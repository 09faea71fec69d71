#include "dcdl/telemetry/metrics.hpp"

#include <string>

#include "dcdl/stats/hooks.hpp"

namespace dcdl::telemetry {

RunTelemetry::RunTelemetry(Network& net) : net_(net) {
  Trace& t = net.trace();
  RunCounters* c = &counters_;
  stats::append_hook(t.pfc_state,
                     [c](Time, NodeId, PortId, ClassId, bool paused) {
                       ++(paused ? c->pfc_xoff : c->pfc_xon);
                     });
  stats::append_hook(t.tx_start, [c](Time, const Packet&, NodeId, PortId) {
    ++c->tx_starts;
  });
  stats::append_hook(t.delivered, [c](Time, const Packet& pkt) {
    ++c->delivered_packets;
    c->delivered_bytes += pkt.size_bytes;
  });
  stats::append_hook(t.dropped,
                     [c](Time, const Packet&, NodeId, DropReason reason) {
                       ++c->dropped[static_cast<int>(reason)];
                     });
  stats::append_hook(t.cnp, [c](Time, FlowId) { ++c->cnp; });
}

MetricSink RunTelemetry::snapshot() const {
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  const RunCounters& c = counters_;
  MetricSink out;
  out.emplace_back("net.pfc_xoff_total", d(c.pfc_xoff));
  out.emplace_back("net.pfc_xon_total", d(c.pfc_xon));
  out.emplace_back("net.tx_start_total", d(c.tx_starts));
  out.emplace_back("net.delivered_packets_total", d(c.delivered_packets));
  out.emplace_back("net.delivered_bytes_total", d(c.delivered_bytes));
  out.emplace_back("net.cnp_total", d(c.cnp));
  for (int r = 0; r < kNumDropReasons; ++r) {
    out.emplace_back(std::string("net.dropped_packets_total.") +
                         to_string(static_cast<DropReason>(r)),
                     d(c.dropped[r]));
  }
  // Delivered packet size: count, sum and mean of every delivered packet.
  const double pkts = d(c.delivered_packets);
  const double bytes = d(c.delivered_bytes);
  out.emplace_back("net.delivered_packet_bytes.count", pkts);
  out.emplace_back("net.delivered_packet_bytes.sum", bytes);
  out.emplace_back("net.delivered_packet_bytes.mean",
                   pkts > 0 ? bytes / pkts : 0);
  out.emplace_back("net.queued_bytes",
                   static_cast<double>(net_.total_queued_bytes()));
  const Simulator::Counters s = net_.sim().counters();
  out.emplace_back("sim.events_executed", d(s.executed));
  out.emplace_back("sim.events_scheduled", d(s.scheduled));
  out.emplace_back("sim.events_cancelled", d(s.cancelled));
  out.emplace_back("sim.events_pending", d(s.pending));
  out.emplace_back("sim.slab_slots", d(s.slab_slots));
  out.emplace_back("sim.slab_grows", d(s.slab_grows));
  out.emplace_back("sim.heap_high_water", d(s.heap_high_water));
  return out;
}

}  // namespace dcdl::telemetry
