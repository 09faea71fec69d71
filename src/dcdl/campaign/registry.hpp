// Scenario registry: string names + typed parameter overrides mapped onto
// the scenarios::make_* factories, so sweeps, the dcdl_sweep CLI, and the
// bench harnesses all construct experiments through one declarative surface.
//
// The registry is extensible at runtime: a bench can register a bespoke
// workload (extra mitigation wiring, custom instrumentation) and sweep it
// with the same executor and result sink as the built-ins.
#pragma once

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "dcdl/campaign/param.hpp"
#include "dcdl/common/metric_sink.hpp"
#include "dcdl/scenarios/scenario.hpp"

namespace dcdl::campaign {

struct RunRecord;  // result.hpp

struct ScenarioDef {
  std::string name;
  std::string description;
  /// Declared knobs; sweeps over undeclared names are rejected up front.
  std::vector<ParamSpec> params;
  /// Builds a ready-to-run scenario from the (possibly partial) overrides.
  std::function<scenarios::Scenario(const ParamMap&)> make;

  /// Optional per-run instrumentation: called after `make`, before the
  /// simulation runs, so it can attach trace hooks. The returned finisher
  /// is invoked at stop time (after the measured run, before the drain
  /// phase) with the core record filled in, to append extra metrics.
  using Finisher = std::function<void(const RunRecord&, MetricSink&)>;
  std::function<Finisher(scenarios::Scenario&, const ParamMap&)> instrument;
};

class ScenarioRegistry {
 public:
  /// Process-wide registry preloaded with the built-in scenarios
  /// (routing_loop, four_switch, ring, transient_loop, valley, incast,
  /// fluid_gap, risk_probe).
  /// Register extensions before launching an executor; the executor's
  /// worker threads only read.
  static ScenarioRegistry& global();

  /// Registers a new scenario; throws CampaignError on a duplicate name.
  void add(ScenarioDef def);
  /// Registers or overwrites (bench-local variants of a built-in).
  void replace(ScenarioDef def);

  const ScenarioDef* find(const std::string& name) const;
  /// Like find, but throws CampaignError with the known names on a miss.
  const ScenarioDef& at(const std::string& name) const;
  std::vector<std::string> names() const;

  /// Throws CampaignError if `params` contains a name the scenario does not
  /// declare (almost always a typo in a sweep spec), or a rate/duration
  /// value (unit gbps, us, ns or ms) the scenario factory's checked reader
  /// would reject as out of range. "seed" is always accepted: the sweep
  /// layer injects it for every run.
  void validate_params(const std::string& scenario,
                       const ParamMap& params) const;

 private:
  std::map<std::string, ScenarioDef> defs_;
};

/// Registers the built-in paper scenarios into `reg` (used by global();
/// exposed so tests can build isolated registries).
void register_builtin_scenarios(ScenarioRegistry& reg);

}  // namespace dcdl::campaign
