// dcdl_bench: the workload program of the repository benchmark.
//
//   dcdl_bench --workload W --seed N --seconds S --trace 0|1
//   dcdl_bench                      short correctness smoke, exits 0 on pass
//
// Workloads (BENCHMARK.json says why each was chosen; dcdlbench/baseline.json
// records which end-to-end metric each layer metric should move):
//   boundary_sweep      the paper's Table-1 grid (loop_len x B x TTL x
//                       +-30% around r_d = n*B/TTL) through CampaignExecutor
//                       with default options, a closed loop of min(2, nproc)
//                       workers
//   fabric_permutation  k=8 fat-tree with ECMP shortest paths, greedy 1000 B
//                       flows along seed-drawn host derangements, on the
//                       default sequential engine; its traced run also runs
//                       the same flows once on min(4, nproc) shards for the
//                       sharded engine's layer metrics, checked against one
//                       run of each on a single shard
//
// --trace 0 measures the end-to-end metrics with nothing attached. --trace 1
// runs traced repetitions interleaved with untraced ones and reports the
// per-layer table: it times calls into the library's public functions from
// here, reads its public counters, and installs probe::Profiler on the
// threads this program owns. The library itself is not modified.
//
// The last line of stdout is one JSON object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Host fingerprint, simulated-statistics digest and check failures go to
// stderr.
#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "dcdl/analysis/boundary.hpp"
#include "dcdl/analysis/deadlock.hpp"
#include "dcdl/analysis/risk.hpp"
#include "dcdl/campaign/campaign.hpp"
#include "dcdl/device/host.hpp"
#include "dcdl/device/network.hpp"
#include "dcdl/device/switch.hpp"
#include "dcdl/probe/probe.hpp"
#include "dcdl/probe/profiler.hpp"
#include "dcdl/routing/compute.hpp"
#include "dcdl/routing/route_table.hpp"
#include "dcdl/scenarios/scenario.hpp"
#include "dcdl/sim/sharded.hpp"
#include "dcdl/stats/hooks.hpp"
#include "dcdl/telemetry/telemetry.hpp"
#include "dcdl/topo/generators.hpp"
#include "dcdl/topo/partition.hpp"
#include "dcdl/watch/watch.hpp"

using namespace dcdl;
using namespace dcdl::literals;
using namespace dcdl::campaign;
using probe::Profiler;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double ms_since(Clock::time_point t0) { return seconds_since(t0) * 1e3; }

double ratio(double num, double den) { return den != 0 ? num / den : 0; }

// SplitMix64. The benchmark draws its inputs itself, so a change to the
// library's RNG never changes what the workloads feed the library.
struct SplitMix64 {
  std::uint64_t state;
  std::uint64_t next() {
    std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  std::size_t below(std::size_t n) {
    return static_cast<std::size_t>(next() % n);
  }
};

template <typename T>
void shuffle(std::vector<T>& v, SplitMix64& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.below(i)]);
  }
}

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

int host_threads() {
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

/// Shards of the sharded engine: min(4, nproc).
int shard_count() { return std::min(4, host_threads()); }

/// Campaign workers: min(2, nproc). Two rather than nproc: with every vCPU
/// busy, a shared host's steal time swung four-worker throughput by more
/// than the gate's bound between runs.
int sweep_jobs() { return std::min(2, host_threads()); }

/// Peak resident set of this process image (VmHWM). getrusage's ru_maxrss
/// is not used: Linux carries it across exec, so it would report the
/// launcher's footprint when that is larger.
double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  double kib = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kib = std::strtod(line + 6, nullptr);
    }
  }
  std::fclose(f);
  return kib / 1024.0;
}

// ---------------------------------------------------------------------------
// Host fingerprint: results from different fingerprints are not comparable.

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid(0x80000000u, &regs[0], &regs[1], &regs[2], &regs[3]) &&
      regs[0] >= 0x80000004u) {
    for (unsigned leaf = 0; leaf < 3; ++leaf) {
      __get_cpuid(0x80000002u + leaf, &regs[4 * leaf], &regs[4 * leaf + 1],
                  &regs[4 * leaf + 2], &regs[4 * leaf + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    const auto b = s.find_first_not_of(' ');
    return b == std::string::npos ? "unknown" : s.substr(b);
  }
#endif
  return "unknown";
}

#ifdef __OPTIMIZE__
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

void print_fingerprint() {
  std::fprintf(stderr,
               "# host: nproc=%u cpu=\"%s\" compiler=\"g++ %s\" "
               "build=%s optimized=%s\n",
               std::thread::hardware_concurrency(), cpu_model().c_str(),
               __VERSION__, DCDL_BENCH_BUILD_TYPE,
               kOptimized ? "yes" : "NO");
}

// ---------------------------------------------------------------------------
// Results, checks and digests.

/// Correctness accounting: an operation (one campaign run, one fabric run)
/// fails when any of its checks fails.
class Checks {
 public:
  void expect(bool ok, const std::string& what) {
    if (ok) return;
    op_ok_ = false;
    if (printed_++ < 20) {
      std::fprintf(stderr, "# CHECK FAILED: %s\n", what.c_str());
    }
  }
  void end_operation() {
    ++attempted_;
    if (!op_ok_) ++failed_;
    op_ok_ = true;
  }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

 private:
  bool op_ok_ = true;
  int printed_ = 0;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Simulated statistics of one repetition (fabric run or whole sweep). A
/// simulator-only optimisation must leave every field unchanged; the digest
/// is printed, not gated, because tie-break re-pinning may move it.
struct Digest {
  std::uint64_t events = 0;
  std::int64_t delivered_bytes = 0;
  std::uint64_t deadlocks = 0;
  std::uint64_t pauses = 0;  ///< Xoff assertions (sweep; traced fabric)
  std::uint64_t hops = 0;    ///< switch departures (fabric)
  bool operator==(const Digest&) const = default;
};

void print_digest(const char* label, const Digest& d) {
  std::fprintf(stderr,
               "# digest %s: events=%llu delivered_bytes=%lld deadlocks=%llu "
               "pauses=%llu hops=%llu\n",
               label, static_cast<unsigned long long>(d.events),
               static_cast<long long>(d.delivered_bytes),
               static_cast<unsigned long long>(d.deadlocks),
               static_cast<unsigned long long>(d.pauses),
               static_cast<unsigned long long>(d.hops));
}

struct MetricDef {
  const char* name;
  const char* unit;
};

/// BENCHMARK.json's end_to_end metrics (reported with --trace 0).
constexpr MetricDef kEndToEnd[] = {
    {"sim_ms_per_s", "ms/s"}, {"events_per_s", "1/s"}, {"runs_per_s", "1/s"},
    {"setup_s", "s"},         {"peak_rss_mb", "MB"},
};

/// BENCHMARK.json's per_layer metrics (reported with --trace 1). Every
/// workload reports all of them; a layer that does no such work in a
/// workload reads 0 there (no shard windows on the sequential engine, no
/// campaign or monitor on the fabric, and on the sweep the topology,
/// network and routes are built inside ScenarioDef::make, which
/// campaign.scenario_make_ms times as a whole).
constexpr MetricDef kPerLayer[] = {
    {"sim.events", "count"},
    {"sim.heap_high_water", "count"},
    {"sim.queue_op_ns", "ns"},
    {"sim.queue_share", "frac"},
    {"routing.lookup_ns", "ns"},
    {"routing.lookups", "count"},
    {"routing.install_ms", "ms"},
    {"device.hops", "count"},
    {"device.events_per_hop", "ratio"},
    {"device.ns_per_hop", "ns"},
    {"device.pause_assertions", "count"},
    {"device.ttl_drops", "count"},
    {"device.network_ctor_ms", "ms"},
    {"topo.build_ms", "ms"},
    {"topo.partition_ms", "ms"},
    {"shard.windows", "count"},
    {"shard.cross_shard_events", "count"},
    {"shard.idle_windows", "count"},
    {"shard.events_per_window", "ratio"},
    {"shard.imbalance", "ratio"},
    {"shard.barrier_wait_share", "frac"},
    {"shard.mailbox_share", "frac"},
    {"shard.replay_share", "frac"},
    {"shard.control_share", "frac"},
    {"analysis.snapshot_wait_for_us", "us"},
    {"analysis.risk_assess_ms", "ms"},
    {"analysis.eq3_mismatches", "count"},
    {"probe.overhead_frac", "frac"},
    {"watch.overhead_frac", "frac"},
    {"dataplane.overhead_frac", "frac"},
    {"telemetry.overhead_frac", "frac"},
    {"campaign.run_ms_p50", "ms"},
    {"campaign.run_ms_p90", "ms"},
    {"campaign.scenario_make_ms", "ms"},
    {"campaign.pool_busy_frac", "frac"},
    {"trace_overhead_frac", "frac"},
    {"digest.delivered_bytes", "bytes"},
    {"digest.deadlocked_runs", "count"},
};

struct Outcome {
  Checks checks;
  std::map<std::string, double> values;
  void set(const std::string& name, double value) {
    const auto named = [&](const MetricDef& m) { return name == m.name; };
    if (std::none_of(std::begin(kEndToEnd), std::end(kEndToEnd), named) &&
        std::none_of(std::begin(kPerLayer), std::end(kPerLayer), named)) {
      std::fprintf(stderr, "dcdl_bench: undeclared metric %s\n", name.c_str());
      std::abort();
    }
    values[name] = std::isfinite(value) ? value : 0;
  }
};

/// Prints the metric set selected by `trace` (stderr table, then the JSON
/// result line on stdout).
void print_result(const Outcome& o, bool trace) {
  std::string json;
  char buf[256];
  const auto emit = [&](const MetricDef& m) {
    const auto it = o.values.find(m.name);
    const double v = it == o.values.end() ? 0 : it->second;
    std::fprintf(stderr, "#   %-30s %16.6f %s\n", m.name, v, m.unit);
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  json.empty() ? "" : ", ", m.name, v, m.unit);
    json += buf;
  };
  if (trace) {
    for (const MetricDef& m : kPerLayer) emit(m);
  } else {
    for (const MetricDef& m : kEndToEnd) emit(m);
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              o.checks.failed() == 0 ? "true" : "false",
              static_cast<unsigned long long>(o.checks.attempted()),
              static_cast<unsigned long long>(o.checks.failed()), json.c_str());
  std::fflush(stdout);
}

// ---------------------------------------------------------------------------
// Layer micro-measurements, each on the workload's own state.

/// Host ns per event-queue operation pair (one pop plus one schedule) on a
/// Simulator holding `depth` pending events whose delays cycle through
/// `delays`: the heap depth and delay mix the workload itself produced.
double queue_op_ns(std::size_t depth, const std::vector<Time>& delays) {
  struct Churn {
    Simulator* sim;
    const std::vector<Time>* delays;
    std::size_t next;
    std::uint64_t left;
  };
  struct Tick {
    Churn* c;
    void operator()() const {
      if (c->left == 0) return;
      --c->left;
      const Time d = (*c->delays)[c->next++ % c->delays->size()];
      c->sim->schedule_in(d, Tick{c});
    }
  };
  depth = std::max<std::size_t>(depth, 1);
  const std::uint64_t ops = std::max<std::uint64_t>(1'000'000, 100 * depth);
  std::vector<double> samples;
  for (int r = 0; r < 3; ++r) {
    Simulator sim;
    Churn c{&sim, &delays, 0, ops};
    for (std::size_t i = 0; i < depth; ++i) {
      sim.schedule_at(Time{static_cast<std::int64_t>(i) * 1000}, Tick{&c});
    }
    const auto t0 = Clock::now();
    sim.run();
    samples.push_back(seconds_since(t0) * 1e9 /
                      static_cast<double>(sim.events_executed()));
  }
  return median(samples);
}

/// Serialization and serialization-plus-propagation delays of every link in
/// `topo` for `bytes`-sized packets: the delay mix of device events.
void add_link_delays(const Topology& topo, std::int64_t bytes,
                     std::vector<Time>& out) {
  for (std::size_t i = 0; i < topo.link_count(); ++i) {
    const LinkSpec& l = topo.link(static_cast<std::uint32_t>(i));
    const Time ser = serialization_time(bytes, l.rate);
    for (const Time t : {ser, l.delay + ser}) {
      if (std::find(out.begin(), out.end(), t) == out.end()) out.push_back(t);
    }
  }
}

struct LookupStep {
  const RouteTable* table;
  FlowId flow;
  NodeId dst;
};

/// The (switch, flow, dst) sequence each flow's packets look up, walked
/// along the installed tables from the source host. `max_hops` bounds the
/// walk around a routing loop.
void walk_routes(const Network& net, const std::vector<FlowSpec>& flows,
                 int max_hops, std::vector<LookupStep>& out) {
  const Topology& topo = net.topo();
  for (const FlowSpec& f : flows) {
    NodeId node = topo.peer(f.src_host, 0).peer_node;
    for (int h = 0; h < max_hops && topo.is_switch(node); ++h) {
      const RouteTable& rt = net.switch_at(node).routes();
      out.push_back({&rt, f.id, f.dst_host});
      const std::optional<PortId> port = rt.lookup(f.id, f.dst_host);
      if (!port) break;
      node = topo.peer(node, *port).peer_node;
    }
  }
}

/// Host ns per RouteTable::lookup over `steps`, replayed in order.
double lookup_ns(const std::vector<LookupStep>& steps) {
  if (steps.empty()) return 0;
  const std::size_t passes = std::max<std::size_t>(1, 2'000'000 / steps.size());
  std::vector<double> samples;
  std::uint64_t sink = 0;
  for (int r = 0; r < 3; ++r) {
    const auto t0 = Clock::now();
    for (std::size_t p = 0; p < passes; ++p) {
      for (const LookupStep& s : steps) {
        sink += s.table->lookup(s.flow, s.dst).value_or(PortId{0xFFFF});
      }
    }
    samples.push_back(seconds_since(t0) * 1e9 /
                      static_cast<double>(passes * steps.size()));
  }
  volatile std::uint64_t keep = sink;
  (void)keep;
  return median(samples);
}

struct SwitchCounts {
  std::uint64_t departures = 0;
  std::uint64_t lookups = 0;  ///< switch arrivals: one lookup each
};

/// Every packet a switch receives is looked up once, then departs, is
/// dropped (TTL, no route) or is still queued.
SwitchCounts switch_counts(const Network& net, std::uint32_t packet_bytes) {
  SwitchCounts c;
  const Topology& topo = net.topo();
  for (NodeId id = 0; id < topo.node_count(); ++id) {
    if (!topo.is_switch(id)) continue;
    const Switch& sw = net.switch_at(id);
    for (std::size_t p = 0; p < sw.num_ports(); ++p) {
      for (int cls = 0; cls < net.config().num_classes; ++cls) {
        c.departures += sw.departures(static_cast<PortId>(p),
                                      static_cast<ClassId>(cls));
      }
    }
  }
  c.lookups = c.departures + net.drops(DropReason::kTtlExpired) +
              net.drops(DropReason::kNoRoute) +
              static_cast<std::uint64_t>(net.total_queued_bytes()) /
                  packet_bytes;
  return c;
}

// ---------------------------------------------------------------------------
// Fabric workloads: k=8 fat-tree, greedy permutation.

constexpr int kFabricK = 8;
constexpr std::uint32_t kFabricPacket = 1000;

constexpr std::size_t kFabricHosts = kFabricK * kFabricK * kFabricK / 4;
/// Permutations per pass. Events per simulated ms depend on how a
/// permutation's flows collide on ECMP paths, so one permutation's
/// sim_ms_per_s is as much a property of the seed as of the simulator; a
/// pass over many permutations averages that out.
constexpr int kPermutations = 24;

struct FabricSpec {
  int shards = 0;  ///< 0 = the default sequential engine
  Time run_for = 125_us;
  std::vector<std::size_t> dst_of;  ///< host index -> destination index
};

/// A derangement drawn from `rng`: every host sends one flow and receives
/// one, and none sends to itself.
std::vector<std::size_t> draw_derangement(std::size_t n, SplitMix64& rng) {
  std::vector<std::size_t> p(n);
  for (;;) {
    std::iota(p.begin(), p.end(), std::size_t{0});
    shuffle(p, rng);
    bool fixed = false;
    for (std::size_t i = 0; i < n; ++i) fixed = fixed || p[i] == i;
    if (!fixed) return p;
  }
}

struct SetupTimes {
  double topo_ms = 0;
  double ctor_ms = 0;
  double install_ms = 0;
  double flows_ms = 0;
  double total_s() const {
    return (topo_ms + ctor_ms + install_ms + flows_ms) / 1e3;
  }
};

/// One fabric instance, timed as it is built. Members are in dependency
/// order: the network references the simulator and the topology.
struct Fabric {
  explicit Fabric(const FabricSpec& spec) {
    auto t0 = Clock::now();
    ft = topo::make_fat_tree(kFabricK);
    times.topo_ms = ms_since(t0);

    t0 = Clock::now();
    {
      std::optional<ScopedShardRequest> request;
      if (spec.shards >= 1) request.emplace(spec.shards);
      net = std::make_unique<Network>(sim, ft.topo, NetConfig{});
    }
    times.ctor_ms = ms_since(t0);

    t0 = Clock::now();
    routing::install_shortest_paths(*net);
    times.install_ms = ms_since(t0);

    t0 = Clock::now();
    for (std::size_t i = 0; i < ft.all_hosts.size(); ++i) {
      FlowSpec f;
      f.id = static_cast<FlowId>(i + 1);
      f.src_host = ft.all_hosts[i];
      f.dst_host = ft.all_hosts[spec.dst_of[i]];
      f.packet_bytes = kFabricPacket;
      net->host_at(f.src_host).add_flow(f);
      flows.push_back(f);
    }
    times.flows_ms = ms_since(t0);
  }
  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  void count_pauses() {
    stats::append_hook(net->trace().pfc_state,
                       [this](Time, NodeId, PortId, ClassId, bool pause) {
                         xoffs += pause ? 1 : 0;
                       });
  }

  Simulator sim;
  topo::FatTreeTopo ft;
  std::unique_ptr<Network> net;
  std::vector<FlowSpec> flows;
  SetupTimes times;
  std::uint64_t xoffs = 0;
};

struct FabricRep {
  SetupTimes setup;
  double run_s = 0;
  Digest digest;
  std::uint64_t lookups = 0;
  std::uint64_t ttl_drops = 0;
  std::uint64_t noroute_drops = 0;
  std::uint64_t overflow_drops = 0;
  std::size_t heap_depth = 0;  ///< max heap high-water of a device simulator
  ShardedEngine::Stats engine;
  Profiler prof;
};

/// Builds the fabric, runs it for spec.run_for and reads its counters.
/// Traced: counts pauses with a pfc_state hook and installs a Profiler on
/// this (the coordinating) thread. `keep` receives the fabric afterwards.
FabricRep run_fabric(const FabricSpec& spec, bool traced,
                     std::unique_ptr<Fabric>* keep = nullptr) {
  FabricRep rep;
  auto fab = std::make_unique<Fabric>(spec);
  rep.setup = fab->times;
  Profiler prof;
  {
    std::optional<Profiler::ScopedInstall> install;
    if (traced) {
      fab->count_pauses();
      install.emplace(prof);
    }
    const auto t0 = Clock::now();
    fab->sim.run_until(spec.run_for);
    rep.run_s = seconds_since(t0);
  }
  rep.prof = prof;

  Network& net = *fab->net;
  const SwitchCounts sc = switch_counts(net, kFabricPacket);
  rep.digest.events = fab->sim.events_executed();
  for (const FlowSpec& f : fab->flows) {
    rep.digest.delivered_bytes += net.host_at(f.dst_host).delivered_bytes(f.id);
  }
  rep.digest.hops = sc.departures;
  rep.digest.pauses = fab->xoffs;
  rep.lookups = sc.lookups;
  rep.ttl_drops = net.drops(DropReason::kTtlExpired);
  rep.noroute_drops = net.drops(DropReason::kNoRoute);
  rep.overflow_drops = net.drops(DropReason::kBufferOverflow);
  rep.heap_depth = fab->sim.counters().heap_high_water;
  if (net.sharded()) {
    ShardedEngine& eng = net.engine();
    rep.engine = eng.stats();
    rep.heap_depth = 0;
    for (int i = 0; i < eng.num_shards(); ++i) {
      const Simulator& shard = eng.shard_sim(static_cast<std::uint32_t>(i));
      rep.heap_depth =
          std::max(rep.heap_depth, shard.counters().heap_high_water);
    }
  }
  if (keep != nullptr) *keep = std::move(fab);
  return rep;
}

void check_fabric_rep(Checks& checks, const FabricRep& rep,
                      std::optional<Digest>& first, bool compare_pauses) {
  checks.expect(rep.overflow_drops == 0,
                "lossless class dropped packets on overflow");
  checks.expect(rep.ttl_drops == 0 && rep.noroute_drops == 0,
                "shortest-path fabric dropped packets (TTL / no route)");
  checks.expect(rep.digest.delivered_bytes > 0, "fabric delivered nothing");
  if (!first) first = rep.digest;
  Digest a = rep.digest;
  Digest b = *first;
  if (!compare_pauses) a.pauses = b.pauses = 0;
  checks.expect(a == b, "repetition changed the simulated statistics");
  checks.end_operation();
}

/// One pass: every permutation run once, in order.
struct FabricPass {
  std::vector<FabricRep> reps;
  double run_s() const {
    double t = 0;
    for (const FabricRep& r : reps) t += r.run_s;
    return t;
  }
  Digest digest() const {
    Digest d;
    for (const FabricRep& r : reps) {
      d.events += r.digest.events;
      d.delivered_bytes += r.digest.delivered_bytes;
      d.pauses += r.digest.pauses;
      d.hops += r.digest.hops;
    }
    return d;
  }
  double span_share(Profiler::Span span) const {
    double ns = 0;
    for (const FabricRep& r : reps) {
      ns += static_cast<double>(r.prof.at(span).wall_ns);
    }
    return ratio(ns * 1e-9, run_s());
  }
};

Outcome fabric_workload(std::uint64_t seed, double seconds, bool trace) {
  SplitMix64 rng{seed};
  std::vector<FabricSpec> specs(kPermutations);
  for (FabricSpec& spec : specs) {
    spec.dst_of = draw_derangement(kFabricHosts, rng);
  }
  const Time run_for = specs.front().run_for;
  std::fprintf(stderr,
               "# fabric: k=%d, %zu greedy flows, %d permutations x %.0f "
               "simulated us per pass, default sequential engine\n",
               kFabricK, kFabricHosts, kPermutations, run_for.us());
  Outcome out;

  // Set-up alone a few times first, so setup_s is a median even when only
  // a few passes fit in the window.
  std::vector<double> setup_s;
  for (int i = 0; i < 3; ++i) {
    const Fabric f(specs[static_cast<std::size_t>(i)]);
    setup_s.push_back(f.times.total_s());
  }
  // One untimed run first: it pages in code and grows the allocator pools.
  std::vector<std::optional<Digest>> first_plain(kPermutations);
  std::vector<std::optional<Digest>> first_traced(kPermutations);
  check_fabric_rep(out.checks, run_fabric(specs.front(), false),
                   first_plain.front(), false);

  std::vector<FabricPass> plain;   // untraced passes
  std::vector<FabricPass> traced;  // traced passes (--trace 1)
  std::unique_ptr<Fabric> last;
  const auto t0 = Clock::now();
  constexpr std::size_t kMinPasses = 2;
  while (plain.size() < kMinPasses || seconds_since(t0) < seconds) {
    for (const bool traced_pass : {false, true}) {
      if (traced_pass && !trace) continue;
      FabricPass pass;
      for (std::size_t p = 0; p < specs.size(); ++p) {
        FabricRep rep = run_fabric(specs[p], traced_pass,
                                   traced_pass ? &last : nullptr);
        setup_s.push_back(rep.setup.total_s());
        check_fabric_rep(out.checks, rep,
                         (traced_pass ? first_traced : first_plain)[p],
                         traced_pass);
        pass.reps.push_back(std::move(rep));
      }
      (traced_pass ? traced : plain).push_back(std::move(pass));
    }
  }
  print_digest(trace ? "per pass (traced)" : "per pass",
               (trace ? traced : plain).front().digest());
  for (std::size_t p = 0; trace && p < specs.size(); ++p) {
    Digest a = *first_traced[p];
    a.pauses = first_plain[p]->pauses;
    out.checks.expect(a == *first_plain[p],
                      "tracing changed the simulated run");
  }

  std::vector<double> pass_s;
  for (const FabricPass& pass : plain) pass_s.push_back(pass.run_s());
  const double pass_med = median(pass_s);
  if (!trace) {
    std::vector<double> sim_rate, ev_rate, run_rate;
    for (const FabricPass& pass : plain) {
      double with_setup = 0;
      for (const FabricRep& r : pass.reps) {
        with_setup += r.run_s + r.setup.total_s();
      }
      sim_rate.push_back(run_for.ms() * kPermutations / pass.run_s());
      ev_rate.push_back(static_cast<double>(pass.digest().events) /
                        pass.run_s());
      run_rate.push_back(kPermutations / with_setup);
    }
    out.set("sim_ms_per_s", median(sim_rate));
    out.set("events_per_s", median(ev_rate));
    out.set("runs_per_s", median(run_rate));
    out.set("setup_s", median(setup_s));
    out.set("peak_rss_mb", peak_rss_mb());
    std::fprintf(stderr, "# %zu timed passes\n", plain.size());
    return out;
  }

  // Per-layer figures: counts per pass over the permutations.
  const Digest d = traced.front().digest();
  std::vector<double> traced_s, topo_ms, ctor_ms, install_ms;
  for (const FabricPass& pass : traced) traced_s.push_back(pass.run_s());
  std::size_t heap_depth = 0;
  std::uint64_t lookups = 0, ttl_drops = 0;
  for (const FabricRep& r : traced.front().reps) {
    heap_depth = std::max(heap_depth, r.heap_depth);
    lookups += r.lookups;
    ttl_drops += r.ttl_drops;
  }
  for (const std::vector<FabricPass>* v : {&plain, &traced}) {
    for (const FabricPass& pass : *v) {
      for (const FabricRep& r : pass.reps) {
        topo_ms.push_back(r.setup.topo_ms);
        ctor_ms.push_back(r.setup.ctor_ms);
        install_ms.push_back(r.setup.install_ms);
      }
    }
  }
  std::vector<Time> delays;
  add_link_delays(last->ft.topo, kFabricPacket, delays);
  const double op_ns = queue_op_ns(heap_depth, delays);
  std::vector<LookupStep> steps;
  walk_routes(*last->net, last->flows, 16, steps);

  // The sharded engine's layer: the same permutations once more on
  // min(4, nproc) shards, traced. Each must repeat the simulated statistics
  // of the same permutation on one shard (the sharded engine's event keys
  // make its stream shard-count invariant); those reference runs also start
  // the engine's threads and pools before the timed ones.
  const int shards = shard_count();
  std::vector<std::optional<Digest>> on_one_shard(kPermutations);
  for (std::size_t p = 0; p < specs.size(); ++p) {
    FabricSpec spec = specs[p];
    spec.shards = 1;
    on_one_shard[p] = run_fabric(spec, true).digest;
  }
  FabricPass sharded;
  for (std::size_t p = 0; p < specs.size(); ++p) {
    FabricSpec spec = specs[p];
    spec.shards = shards;
    FabricRep rep = run_fabric(spec, true);
    check_fabric_rep(out.checks, rep, on_one_shard[p], true);
    sharded.reps.push_back(std::move(rep));
  }
  std::uint64_t windows = 0, cross = 0, idle = 0;
  double imbalance = 0;
  for (const FabricRep& r : sharded.reps) {
    windows += r.engine.windows;
    cross += r.engine.cross_shard_events;
    std::uint64_t shard_max = 0;
    for (const ShardedEngine::ShardStats& sh : r.engine.shard) {
      shard_max = std::max(shard_max, sh.executed);
      idle += sh.idle_windows;
    }
    imbalance += ratio(static_cast<double>(shard_max) *
                           static_cast<double>(r.engine.shard.size()),
                       static_cast<double>(r.digest.events)) /
                 kPermutations;
  }
  std::vector<double> partition_ms;
  for (int i = 0; i < 5; ++i) {
    const auto p0 = Clock::now();
    const topo::ShardPlan plan = topo::assign_shards(last->ft.topo, shards);
    partition_ms.push_back(ms_since(p0));
    out.checks.expect(plan.num_shards == shards, "partition lost shards");
  }

  out.set("sim.events", static_cast<double>(d.events));
  out.set("sim.heap_high_water", static_cast<double>(heap_depth));
  out.set("sim.queue_op_ns", op_ns);
  out.set("sim.queue_share",
          op_ns * 1e-9 * static_cast<double>(d.events) / pass_med);
  out.set("routing.lookup_ns", lookup_ns(steps));
  out.set("routing.lookups", static_cast<double>(lookups));
  out.set("routing.install_ms", median(install_ms));
  out.set("device.hops", static_cast<double>(d.hops));
  out.set("device.events_per_hop", ratio(static_cast<double>(d.events),
                                         static_cast<double>(d.hops)));
  out.set("device.ns_per_hop",
          ratio(pass_med * 1e9, static_cast<double>(d.hops)));
  out.set("device.pause_assertions", static_cast<double>(d.pauses));
  out.set("device.ttl_drops", static_cast<double>(ttl_drops));
  out.set("device.network_ctor_ms", median(ctor_ms));
  out.set("topo.build_ms", median(topo_ms));
  out.set("topo.partition_ms", median(partition_ms));
  out.set("shard.windows", static_cast<double>(windows));
  out.set("shard.cross_shard_events", static_cast<double>(cross));
  out.set("shard.idle_windows", static_cast<double>(idle));
  out.set("shard.events_per_window",
          ratio(static_cast<double>(sharded.digest().events),
                static_cast<double>(windows)));
  out.set("shard.imbalance", imbalance);
  out.set("shard.barrier_wait_share",
          sharded.span_share(Profiler::Span::kBarrierWait));
  out.set("shard.mailbox_share",
          sharded.span_share(Profiler::Span::kMailboxes));
  out.set("shard.replay_share", sharded.span_share(Profiler::Span::kReplay));
  out.set("shard.control_share",
          sharded.span_share(Profiler::Span::kControlPhase));
  out.set("trace_overhead_frac", median(traced_s) / pass_med - 1);
  out.set("digest.delivered_bytes", static_cast<double>(d.delivered_bytes));
  return out;
}

// ---------------------------------------------------------------------------
// boundary_sweep: the Table-1 grid through the campaign engine.

constexpr int kLoopLens[] = {2, 3, 4, 8};
constexpr double kBandwidthsGbps[] = {10.0, 40.0, 100.0};
constexpr int kTtls[] = {8, 16, 32, 64};
constexpr double kMargin = 0.3;
constexpr Time kSweepRunFor = 6_ms;

/// Cells whose simulated verdict disagrees with Eq. 3 today. They stay in
/// the grid, named and counted, and are not failures.
struct KnownDisagreement {
  int loop_len;
  double bw_gbps;
  int ttl;
  double margin;
  const char* why;
};
constexpr KnownDisagreement kKnown[] = {
    {4, 40, 8, kMargin,
     "26 Gbps oscillates through ~1162 Xoffs in 6 ms and does not deadlock"},
    {8, 10, 8, kMargin, "r_d = B: the +30% probe exceeds line rate"},
    {8, 40, 8, kMargin, "r_d = B: the +30% probe exceeds line rate"},
    {8, 100, 8, kMargin, "r_d = B: the +30% probe exceeds line rate"},
};

struct Cell {
  int loop_len;
  double bw_gbps;
  int ttl;
  double margin;
};

Cell cell_of(const ParamMap& pm) {
  return Cell{static_cast<int>(pm.get_int("loop_len", 0)),
              pm.get_double("bw_gbps", 0),
              static_cast<int>(pm.get_int("ttl", 0)),
              pm.get_double("margin", 0)};
}

const KnownDisagreement* known_disagreement(const Cell& c) {
  for (const KnownDisagreement& k : kKnown) {
    if (k.loop_len == c.loop_len && k.bw_gbps == c.bw_gbps &&
        k.ttl == c.ttl && k.margin == c.margin) {
      return &k;
    }
  }
  return nullptr;
}

scenarios::Scenario make_cell(const ParamMap& pm) {
  scenarios::RoutingLoopParams p;
  p.loop_len = static_cast<int>(pm.get_int("loop_len", 2));
  p.bandwidth = Rate::gbps(pm.get_double("bw_gbps", 40));
  p.ttl = static_cast<int>(pm.get_int("ttl", 16));
  const Rate thr = analysis::BoundaryModel::deadlock_threshold(
      p.loop_len, p.bandwidth, p.ttl);
  p.inject = Rate{static_cast<std::int64_t>(
      static_cast<double>(thr.bps()) * (1.0 + pm.get_double("margin", 0)))};
  return scenarios::make_routing_loop(p);
}

/// Traced variant of a cell: at stop time (the state the deadlock monitor
/// and watch poll) it reads the switch counters and times the analysis
/// calls, appending them to the run's metrics.
ScenarioDef::Finisher instrument_cell(scenarios::Scenario& s,
                                      const ParamMap&) {
  return [&s](const RunRecord&, MetricSink& out) {
    const Network& net = *s.net;
    const SwitchCounts sc = switch_counts(net, s.flows.front().packet_bytes);
    out.emplace_back("bench.switch_hops", static_cast<double>(sc.departures));
    out.emplace_back("bench.switch_lookups", static_cast<double>(sc.lookups));
    auto t0 = Clock::now();
    constexpr int kSnapshots = 5;
    for (int i = 0; i < kSnapshots; ++i) (void)analysis::snapshot_wait_for(net);
    out.emplace_back("bench.snapshot_us", ms_since(t0) * 1e3 / kSnapshots);
    t0 = Clock::now();
    (void)analysis::assess_deadlock_risk(net, s.flows);
    out.emplace_back("bench.risk_ms", ms_since(t0));
  };
}

void register_cells(ScenarioRegistry& reg) {
  ScenarioDef def;
  def.name = "table1_cell";
  def.description =
      "Table 1 probe: routing loop injected at r_d * (1 + margin)";
  def.params = {
      {"loop_len", ParamKind::kInt, "", "switches in the loop"},
      {"bw_gbps", ParamKind::kDouble, "gbps", "link bandwidth"},
      {"ttl", ParamKind::kInt, "", "initial packet TTL"},
      {"margin", ParamKind::kDouble, "", "signed probe distance from r_d"},
  };
  def.make = make_cell;
  reg.add(def);
  def.name = "table1_cell_traced";
  def.instrument = instrument_cell;
  reg.add(std::move(def));
}

/// One pass of the closed loop: kGridCopies copies of the Table-1 grid,
/// expanded with the seed as root seed and submitted in one seed-drawn
/// order. Run times are skewed (p90 is ~6x p50), so a single grid's wall
/// time depends on which long runs land last; copies amortize that tail.
constexpr int kGridCopies = 4;

std::vector<RunSpec> sweep_specs(std::uint64_t seed,
                                 const std::string& scenario, int copies,
                                 bool full_grid = true) {
  SweepSpec spec;
  spec.scenario = scenario;
  spec.root_seed = seed;
  spec.run_for = kSweepRunFor;
  spec.drain_grace = kSweepRunFor + 10_ms;
  GridAxis loop{"loop_len", {}};
  for (const int n : kLoopLens) {
    loop.values.push_back(ParamValue::of_int(n));
    if (!full_grid) break;
  }
  GridAxis bw{"bw_gbps", {}};
  for (const double b : kBandwidthsGbps) {
    bw.values.push_back(ParamValue::of_double(b));
  }
  GridAxis ttl{"ttl", {}};
  for (const int t : kTtls) ttl.values.push_back(ParamValue::of_int(t));
  GridAxis margin{"margin", {ParamValue::of_double(-kMargin),
                             ParamValue::of_double(kMargin)}};
  spec.axes = {loop, bw, ttl, margin};
  const std::vector<RunSpec> grid = expand(spec);
  std::vector<RunSpec> specs;
  for (int c = 0; c < copies; ++c) {
    specs.insert(specs.end(), grid.begin(), grid.end());
  }
  SplitMix64 rng{seed};
  shuffle(specs, rng);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    specs[i].run_index = static_cast<int>(i);
  }
  return specs;
}

double telemetry_value(const RunRecord& r, const std::string& name,
                       Checks* checks = nullptr) {
  for (const auto& [k, v] : r.telemetry) {
    if (k == name) return v;
  }
  if (checks != nullptr) checks->expect(false, "run lacks telemetry " + name);
  return 0;
}

double metric_value(const RunRecord& r, const std::string& name) {
  for (const auto& [k, v] : r.metrics) {
    if (k == name) return v;
  }
  return 0;
}

std::int64_t delivered_total(const RunRecord& r) {
  std::int64_t total = 0;
  for (const auto& fb : r.delivered) total += fb.second;
  return total;
}

struct SweepEval {
  Digest digest;
  int eq3_mismatches = 0;
  int known_resolved = 0;
};

/// Checks every run of one sweep: status ok, no overflow drops, verdict
/// equal to Eq. 3 outside the known cells, and simulated statistics equal
/// to those of the same run in the first sweep (`first`, when given).
SweepEval evaluate_sweep(Checks& checks, const CampaignResult& r,
                         const CampaignResult* first) {
  SweepEval ev;
  for (std::size_t i = 0; i < r.records.size(); ++i) {
    const RunRecord& rec = r.records[i];
    const Cell c = cell_of(rec.params);
    char label[96];
    std::snprintf(label, sizeof(label), "n=%d B=%g TTL=%d margin=%+g",
                  c.loop_len, c.bw_gbps, c.ttl, c.margin);
    checks.expect(rec.status == RunStatus::kOk,
                  std::string(label) + ": run status " + to_string(rec.status) +
                      " " + rec.error);
    const double overflow = telemetry_value(
        rec, "net.dropped_packets_total.buffer_overflow", &checks);
    checks.expect(overflow == 0,
                  std::string(label) + ": lossless class dropped on overflow");
    const bool eq3 = c.margin > 0;  // inject = r_d * (1 + margin) > r_d
    const KnownDisagreement* known = known_disagreement(c);
    if (rec.deadlocked != eq3) {
      ++ev.eq3_mismatches;
      checks.expect(known != nullptr,
                    std::string(label) + ": verdict disagrees with Eq. 3");
    } else if (known != nullptr) {
      ++ev.known_resolved;
    }
    if (first != nullptr) {
      const RunRecord& f = first->records[i];
      checks.expect(rec.events == f.events && rec.deadlocked == f.deadlocked &&
                        rec.pause_assertions == f.pause_assertions &&
                        delivered_total(rec) == delivered_total(f),
                    std::string(label) + ": repetition changed the statistics");
    }
    checks.end_operation();
    ev.digest.events += rec.events;
    ev.digest.delivered_bytes += delivered_total(rec);
    ev.digest.deadlocks += rec.deadlocked ? 1 : 0;
    ev.digest.pauses += rec.pause_assertions;
  }
  return ev;
}

/// The traced sweep: the executor's closed loop rebuilt from the public
/// campaign::execute_run, so each worker can install a Profiler.
CampaignResult traced_sweep(const ScenarioRegistry& reg,
                            const std::vector<RunSpec>& specs, int jobs,
                            std::vector<Profiler>& profs) {
  CampaignResult result;
  result.records.resize(specs.size());
  result.jobs = jobs;
  profs.assign(static_cast<std::size_t>(jobs), Profiler{});
  std::atomic<std::size_t> cursor{0};
  const auto worker = [&](int w) {
    const Profiler::ScopedInstall install(profs[static_cast<std::size_t>(w)]);
    const Simulator::ScopedArenaRecycling arena;
    for (;;) {
      const std::size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
      if (i >= specs.size()) return;
      result.records[i] = execute_run(reg, specs[i]);
    }
  };
  const auto t0 = Clock::now();
  std::vector<std::thread> threads;
  for (int w = 0; w < jobs; ++w) threads.emplace_back(worker, w);
  for (std::thread& t : threads) t.join();
  result.total_wall_ms = ms_since(t0);
  return result;
}

/// Paired, interleaved A/B of the always-on instruments on the routing-loop
/// steady cell (n=2, B=40G, TTL=16, 4 Gbps: below r_d = 5 Gbps, so packets
/// circulate until TTL expiry). Returns median(with / without) - 1 for
/// probe, watch, dataplane (detect policy) and telemetry.
std::array<double, 4> instrument_overheads() {
  constexpr int kVariants = 5;  // none, probe, watch, dataplane, telemetry
  const auto run_once = [](int variant) {
    scenarios::RoutingLoopParams p;
    p.inject = Rate::gbps(4);
    if (variant == 3) p.dataplane.policy = dataplane::RecoveryPolicy::kDetect;
    scenarios::Scenario s = scenarios::make_routing_loop(p);
    const Time end = 4_ms;
    std::optional<probe::RunProbe> rp;
    std::optional<watch::RunWatch> rw;
    std::optional<telemetry::RunTelemetry> rt;
    if (variant == 1) {
      rp.emplace(*s.net);
      rp->start(*s.sim, end);
    } else if (variant == 2) {
      rw.emplace(*s.net, s.flows);
      rw->start(*s.sim, end);
    } else if (variant == 4) {
      rt.emplace(*s.net);
    }
    const auto t0 = Clock::now();
    s.sim->run_until(end);
    return seconds_since(t0);
  };
  std::array<std::vector<double>, kVariants> ratios;
  constexpr int kRounds = 15;
  for (int round = 0; round < kRounds; ++round) {
    std::array<double, kVariants> t{};
    for (int j = 0; j < kVariants; ++j) {
      const int v = (round + j) % kVariants;
      t[static_cast<std::size_t>(v)] = run_once(v);
    }
    for (int v = 1; v < kVariants; ++v) {
      const auto i = static_cast<std::size_t>(v);
      ratios[i].push_back(t[i] / t[0]);
    }
  }
  std::array<double, 4> out{};
  for (int v = 1; v < kVariants; ++v) {
    out[static_cast<std::size_t>(v - 1)] =
        median(ratios[static_cast<std::size_t>(v)]) - 1;
  }
  return out;
}

/// Seconds per sweep set-up (the Table-1 cell's registry, the grid
/// expansion and the executor), averaged over a batch: one set-up takes well
/// under a millisecond, too short to time alone. Each set-up's specs stay
/// alive while the next is built, as a sweep's specs do while it runs, so
/// the allocator does not return the heap to the kernel and fault it back
/// in between set-ups.
double sweep_setup_s(std::uint64_t seed, int jobs) {
  constexpr int kSetupBatch = 100;
  std::vector<RunSpec> previous;
  const auto t0 = Clock::now();
  for (int i = 0; i < kSetupBatch; ++i) {
    ScenarioRegistry reg;
    register_cells(reg);
    std::vector<RunSpec> specs = sweep_specs(seed, "table1_cell", kGridCopies);
    ExecutorOptions opts;
    opts.jobs = jobs;
    const CampaignExecutor exec(reg, opts);
    previous = std::move(specs);
  }
  return seconds_since(t0) / kSetupBatch;
}

Outcome sweep_workload(std::uint64_t seed, double seconds, bool trace) {
  const int jobs = sweep_jobs();
  Outcome out;

  // Set-up samples: a few now, then one after every pass, so their median
  // spans the whole measuring window rather than its first instant.
  std::vector<double> setup_s;
  for (int sample = 0; sample < 5; ++sample) {
    setup_s.push_back(sweep_setup_s(seed, jobs));
  }

  ScenarioRegistry reg;
  register_cells(reg);
  const std::vector<RunSpec> specs =
      sweep_specs(seed, "table1_cell", kGridCopies);
  ExecutorOptions opts;
  opts.jobs = jobs;
  CampaignExecutor exec(reg, opts);
  std::fprintf(stderr,
               "# sweep: %zu runs per pass (%d x Table-1 grid, margin "
               "+-%.0f%%), %d workers, %.0f simulated ms + %.0f ms drain "
               "each\n",
               specs.size(), kGridCopies, kMargin * 100, jobs,
               kSweepRunFor.ms(), specs.front().drain_grace.ms());

  // Only per-pass figures are kept, so memory does not grow with the
  // number of passes and peak_rss_mb is the footprint of one pass.
  std::vector<double> plain_s;   // wall per untraced pass
  std::vector<double> run_ms;    // RunRecord.wall_ms, every untraced run
  std::vector<double> busy;      // per pass: sum of run wall / (jobs x wall)
  std::vector<double> traced_s;  // wall per traced pass
  std::optional<CampaignResult> traced;  // the last traced pass
  std::vector<Profiler> profs;
  std::vector<Profiler> all_profs;
  const std::vector<RunSpec> traced_specs =
      trace ? sweep_specs(seed, "table1_cell_traced", kGridCopies)
            : std::vector<RunSpec>{};
  // One untimed pass first (code, pools, worker arenas); its records are
  // the reference every timed pass must repeat.
  const CampaignResult warm = exec.run(specs, seed);
  SweepEval ev = evaluate_sweep(out.checks, warm, nullptr);
  const auto t0 = Clock::now();
  constexpr std::size_t kMinPasses = 3;
  while (plain_s.size() < kMinPasses ||
         (trace && traced_s.size() < kMinPasses) ||
         seconds_since(t0) < seconds) {
    if (trace && plain_s.size() > traced_s.size()) {
      traced = traced_sweep(reg, traced_specs, jobs, profs);
      evaluate_sweep(out.checks, *traced, &warm);
      traced_s.push_back(traced->total_wall_ms / 1e3);
      all_profs.insert(all_profs.end(), profs.begin(), profs.end());
      continue;
    }
    const auto s0 = Clock::now();
    const CampaignResult r = exec.run(specs, seed);
    plain_s.push_back(seconds_since(s0));
    ev = evaluate_sweep(out.checks, r, &warm);
    double sum = 0;
    for (const RunRecord& rec : r.records) {
      run_ms.push_back(rec.wall_ms);
      sum += rec.wall_ms;
    }
    busy.push_back(sum / (jobs * plain_s.back() * 1e3));
    setup_s.push_back(sweep_setup_s(seed, jobs));
  }
  print_digest("per pass", ev.digest);
  std::fprintf(stderr, "# Eq. 3 disagreements: %d of %zu cells (%zu known:",
               ev.eq3_mismatches / kGridCopies, specs.size() / kGridCopies,
               std::size(kKnown));
  for (const KnownDisagreement& k : kKnown) {
    std::fprintf(stderr, " n=%d/B=%g/TTL=%d %+.0f%% [%s];", k.loop_len,
                 k.bw_gbps, k.ttl, k.margin * 100, k.why);
  }
  std::fprintf(stderr, ")%s\n",
               ev.known_resolved > 0 ? " -- a known cell now agrees" : "");

  const double sweep_s = median(plain_s);
  const double runs = static_cast<double>(specs.size());
  if (!trace) {
    // Every run simulates its measured window and then its drain phase
    // (stop_and_drain runs the clock to the end of drain_grace).
    double sim_ms = 0;
    for (const RunSpec& s : specs) sim_ms += (s.run_for + s.drain_grace).ms();
    std::vector<double> run_rate, ev_rate, sim_rate;
    for (double s : plain_s) {
      run_rate.push_back(runs / s);
      ev_rate.push_back(static_cast<double>(ev.digest.events) / s);
      sim_rate.push_back(sim_ms / s);
    }
    out.set("sim_ms_per_s", median(sim_rate));
    out.set("events_per_s", median(ev_rate));
    out.set("runs_per_s", median(run_rate));
    out.set("setup_s", median(setup_s));
    out.set("peak_rss_mb", peak_rss_mb());
    std::fprintf(stderr, "# %zu timed passes\n", plain_s.size());
    return out;
  }

  // Per-run figures of the traced sweep (stop-time counters).
  const CampaignResult& tr = *traced;
  double hops = 0, lookups = 0, events_at_stop = 0, ttl_drops = 0;
  double heap = 0;
  std::vector<double> snapshot_us, risk_ms;
  for (const RunRecord& r : tr.records) {
    hops += metric_value(r, "bench.switch_hops");
    lookups += metric_value(r, "bench.switch_lookups");
    snapshot_us.push_back(metric_value(r, "bench.snapshot_us"));
    risk_ms.push_back(metric_value(r, "bench.risk_ms"));
    events_at_stop += telemetry_value(r, "sim.events_executed");
    ttl_drops += telemetry_value(r, "net.dropped_packets_total.ttl_expired");
    heap = std::max(heap, telemetry_value(r, "sim.heap_high_water"));
  }
  std::uint64_t loop_ns = 0;
  std::uint64_t loop_events = 0;
  for (const Profiler& p : all_profs) {
    loop_ns += p.at(Profiler::Span::kEventLoop).wall_ns;
    loop_events += p.at(Profiler::Span::kEventLoop).units;
  }
  const double events_per_hop = ratio(events_at_stop, hops);

  // ScenarioDef::make of every run, the delay mix of the cells' links, and
  // the installed tables of the B=40G, TTL=16 loops.
  std::vector<double> make_ms;
  std::vector<Time> delays;
  std::vector<LookupStep> steps;
  std::vector<scenarios::Scenario> loops;  // owns the tables `steps` reads
  for (const RunSpec& s : specs) {
    const auto m0 = Clock::now();
    scenarios::Scenario sc = reg.at("table1_cell").make(s.params);
    make_ms.push_back(ms_since(m0));
    add_link_delays(*sc.topo, sc.flows.front().packet_bytes, delays);
    const Cell c = cell_of(s.params);
    if (c.bw_gbps == 40 && c.ttl == 16 && c.margin < 0) {
      walk_routes(*sc.net, sc.flows, 64, steps);
      loops.push_back(std::move(sc));
    }
  }
  const double op_ns = queue_op_ns(static_cast<std::size_t>(heap), delays);
  const std::array<double, 4> overhead = instrument_overheads();

  out.set("sim.events", static_cast<double>(ev.digest.events));
  out.set("sim.heap_high_water", heap);
  out.set("sim.queue_op_ns", op_ns);
  out.set("sim.queue_share",
          op_ns * 1e-9 * static_cast<double>(ev.digest.events) /
              (jobs * sweep_s));
  out.set("routing.lookup_ns", lookup_ns(steps));
  out.set("routing.lookups", lookups);
  out.set("device.hops", hops);
  out.set("device.events_per_hop", events_per_hop);
  out.set("device.ns_per_hop",
          ratio(static_cast<double>(loop_ns),
                static_cast<double>(loop_events)) *
              events_per_hop);
  out.set("device.pause_assertions", static_cast<double>(ev.digest.pauses));
  out.set("device.ttl_drops", ttl_drops);
  out.set("analysis.snapshot_wait_for_us", median(snapshot_us));
  out.set("analysis.risk_assess_ms", median(risk_ms));
  out.set("analysis.eq3_mismatches", ev.eq3_mismatches / kGridCopies);
  out.set("probe.overhead_frac", overhead[0]);
  out.set("watch.overhead_frac", overhead[1]);
  out.set("dataplane.overhead_frac", overhead[2]);
  out.set("telemetry.overhead_frac", overhead[3]);
  out.set("campaign.run_ms_p50", quantile(run_ms, 0.5));
  out.set("campaign.run_ms_p90", quantile(run_ms, 0.9));
  out.set("campaign.scenario_make_ms", median(make_ms));
  out.set("campaign.pool_busy_frac", median(busy));
  out.set("trace_overhead_frac", median(traced_s) / sweep_s - 1);
  out.set("digest.delivered_bytes",
          static_cast<double>(ev.digest.delivered_bytes));
  out.set("digest.deadlocked_runs", static_cast<double>(ev.digest.deadlocks));
  return out;
}

// ---------------------------------------------------------------------------
// Smoke: the benchmark's own tests, short enough for CI.

int smoke() {
  print_fingerprint();
  bool ok = true;

  // The sharded engine must simulate exactly what the same fabric does at
  // shards=1 (canonical event keys make the stream shard-count invariant).
  FabricSpec spec;
  spec.run_for = 100_us;
  SplitMix64 rng{1};
  spec.dst_of = draw_derangement(kFabricHosts, rng);
  spec.shards = 1;
  const Digest one = run_fabric(spec, true).digest;
  spec.shards = std::max(2, shard_count());
  const Digest many = run_fabric(spec, true).digest;
  print_digest("shards=1", one);
  print_digest(("shards=" + std::to_string(spec.shards)).c_str(), many);
  if (!(one == many) || one.delivered_bytes == 0) {
    std::fprintf(stderr, "# smoke: sharded fabric differs from shards=1\n");
    ok = false;
  }

  // The n=2 rows of Table 1 agree with Eq. 3 on both sides of r_d.
  ScenarioRegistry reg;
  register_cells(reg);
  ExecutorOptions opts;
  opts.jobs = sweep_jobs();
  CampaignExecutor exec(reg, opts);
  const CampaignResult r = exec.run(sweep_specs(1, "table1_cell", 1, false), 1);
  Checks checks;
  const SweepEval ev = evaluate_sweep(checks, r, nullptr);
  if (checks.failed() != 0 || ev.eq3_mismatches != 0) ok = false;

  std::fprintf(stderr, "dcdl_bench smoke: %s (%llu runs checked)\n",
               ok ? "ok" : "FAILED",
               static_cast<unsigned long long>(checks.attempted()));
  return ok ? 0 : 1;
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "dcdl_bench: %s\n"
               "usage: dcdl_bench --workload boundary_sweep|fabric_permutation "
               "--seed N --seconds S --trace 0|1\n"
               "       dcdl_bench            (no arguments: smoke test)\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 1) return smoke();

  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    std::string value;
    const auto eq = key.find('=');
    if (eq != std::string::npos) {
      value = key.substr(eq + 1);
      key.resize(eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      usage(("missing value for " + key).c_str());
    }
    char* end = nullptr;
    if (key == "--workload") {
      workload = value;
    } else if (key == "--seed") {
      seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') usage("--seed takes an integer");
    } else if (key == "--seconds") {
      seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(seconds > 0 && seconds <= 600)) {
        usage("--seconds takes a number in (0, 600]");
      }
    } else if (key == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      trace = value == "1" ? 1 : 0;
    } else {
      usage(("unknown flag " + key).c_str());
    }
  }
  if (!kOptimized) {
    std::fprintf(stderr,
                 "dcdl_bench: refusing to measure a non-optimised build\n");
    return 2;
  }

  print_fingerprint();
  std::fprintf(stderr, "# workload=%s seed=%llu seconds=%g trace=%d\n",
               workload.c_str(), static_cast<unsigned long long>(seed),
               seconds, trace);
  Outcome out;
  if (workload == "boundary_sweep") {
    out = sweep_workload(seed, seconds, trace == 1);
  } else if (workload == "fabric_permutation") {
    out = fabric_workload(seed, seconds, trace == 1);
  } else {
    usage(("unknown workload '" + workload + "'").c_str());
  }
  print_result(out, trace == 1);
  return out.checks.failed() == 0 ? 0 : 1;
}
