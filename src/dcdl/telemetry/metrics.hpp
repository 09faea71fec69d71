// The uniform per-run metric set: every campaign record and every
// `--metrics` report exposes exactly these names, in this order.
//
// Event counts ride the network's trace hooks into a plain counter struct
// (a field bump per dispatch: no lookup, no allocation); point-in-time
// values (simulator counters, queued bytes) are read when snapshot() runs.
#pragma once

#include <cstdint>

#include "dcdl/common/metric_sink.hpp"
#include "dcdl/device/network.hpp"

namespace dcdl::telemetry {

/// Event counts accumulated from the trace hooks since attach.
struct RunCounters {
  std::uint64_t pfc_xoff = 0;
  std::uint64_t pfc_xon = 0;
  std::uint64_t tx_starts = 0;
  std::uint64_t delivered_packets = 0;
  std::uint64_t delivered_bytes = 0;
  std::uint64_t cnp = 0;
  std::uint64_t dropped[kNumDropReasons] = {};
};

/// Chains the counter-feeding observers onto `net`'s trace hooks at
/// construction. Construct after the network, before the run; call
/// snapshot() at the measurement point.
class RunTelemetry {
 public:
  explicit RunTelemetry(Network& net);
  /// The trace hooks hold a pointer to counters_: the object must stay put.
  RunTelemetry(const RunTelemetry&) = delete;
  RunTelemetry& operator=(const RunTelemetry&) = delete;

  const RunCounters& counters() const { return counters_; }

  /// The counters plus the sampled gauges, flattened in schema order:
  /// net.* event counts, net.delivered_packet_bytes.{count,sum,mean},
  /// net.queued_bytes, then the sim.* simulator counters.
  MetricSink snapshot() const;

 private:
  Network& net_;
  RunCounters counters_;
};

}  // namespace dcdl::telemetry
