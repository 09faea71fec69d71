#include "dcdl/forensics/metrics.hpp"

#include <algorithm>

namespace dcdl::forensics {

MetricSink cascade_metrics(const CascadeReport& report) {
  int max_depth = 0, max_width = 0;
  int loops = 0, hosts = 0, congestion = 0;
  for (const CascadeComponent& c : report.components) {
    max_depth = std::max(max_depth, c.max_depth);
    max_width = std::max(max_width, c.max_width);
    switch (c.trigger) {
      case TriggerKind::kRoutingLoop: ++loops; break;
      case TriggerKind::kHostPause: ++hosts; break;
      case TriggerKind::kCongestionCascade: ++congestion; break;
    }
  }
  double effects = 0;
  for (const PauseSpan& s : report.spans) {
    effects += static_cast<double>(s.effects.size());
  }
  const auto spans = static_cast<double>(report.spans.size());
  return {
      {"forensics.pause_spans", spans},
      {"forensics.cascades", static_cast<double>(report.components.size())},
      {"forensics.cascade_max_depth", max_depth},
      {"forensics.cascade_max_width", max_width},
      {"forensics.triggers.routing_loop", loops},
      {"forensics.triggers.host_pause", hosts},
      {"forensics.triggers.congestion", congestion},
      {"forensics.time_to_deadlock_ms",
       report.time_to_deadlock_ps < 0
           ? -1.0
           : static_cast<double>(report.time_to_deadlock_ps) / 1e9},
      {"forensics.fanout.count", spans},
      {"forensics.fanout.sum", effects},
      {"forensics.fanout.mean", spans > 0 ? effects / spans : 0},
  };
}

}  // namespace dcdl::forensics
