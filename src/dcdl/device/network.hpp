// The runtime network: owns the devices built from a Topology, moves packets
// and PFC frames across wires, and exposes global introspection used by the
// analysis and statistics layers.
//
// Sharded mode: when a ScopedShardRequest is active on the constructing
// thread, the Network partitions the topology (topo/partition.hpp), builds a
// ShardedEngine whose lookahead is the minimum cut-link delay (clamped by
// the out-of-band feedback delay when ECN/TIMELY is enabled), binds every
// device to its shard's simulator, and routes cross-shard wire/PFC/feedback
// events through the engine's mailboxes under canonical (time, channel,
// sequence) keys:
//
//   wire channels  1 + 2*link + dir        seq: per directed link
//   oob channels   1 + 2L + sender          seq: per sending node
//   self channels  1 + 2L + N + device      seq: per device
//
// Every sequence counter has exactly one writer (the sending side's shard),
// and every key is a pure function of the scenario — so the merged event
// order, and with it every observable byte, is identical for all shard
// counts. The externally visible Simulator (`sim()`) becomes the control
// simulator: run_until() on it drives the sharded engine via its run
// delegate, and monitors/samplers scheduled on it keep working unchanged.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "dcdl/common/units.hpp"
#include "dcdl/device/config.hpp"
#include "dcdl/device/device.hpp"
#include "dcdl/device/trace.hpp"
#include "dcdl/net/packet.hpp"
#include "dcdl/sim/sharded.hpp"
#include "dcdl/sim/simulator.hpp"
#include "dcdl/topo/partition.hpp"
#include "dcdl/topo/topology.hpp"

namespace dcdl {

class Switch;
class Host;

class Network {
 public:
  /// Builds one device per topology node. The topology and simulator must
  /// outlive the network. Constructing under a ScopedShardRequest opts the
  /// network into sharded execution (see file comment).
  Network(Simulator& sim, const Topology& topo, NetConfig cfg);
  ~Network();
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  Simulator& sim() { return sim_; }
  const Topology& topo() const { return topo_; }
  const NetConfig& config() const { return cfg_; }

  /// The observation hooks. On shard worker threads this returns the
  /// shard's deferring trace: each attached slot defers a closure that
  /// fires the real slot, keyed by the executing event and fired in merged
  /// key order at the next window barrier (ShardedEngine::defer). Everywhere
  /// else — attachment sites, legacy runs, control phases — the real hook
  /// set.
  Trace& trace() { return tls_trace_ != nullptr ? *tls_trace_ : trace_; }

  /// True when this network runs on the sharded engine.
  bool sharded() const { return engine_ != nullptr; }
  /// The sharded engine (sharded() must be true) — bench/tests introspect
  /// window and mailbox statistics through this.
  ShardedEngine& engine() { return *engine_; }
  const topo::ShardPlan& shard_plan() const { return plan_; }

  Device& device(NodeId id) { return *devices_.at(id); }
  Switch& switch_at(NodeId id);
  const Switch& switch_at(NodeId id) const;
  Host& host_at(NodeId id);
  const Host& host_at(NodeId id) const;

  Rate link_rate(NodeId node, PortId port) const {
    return topo_.link(topo_.peer(node, port).link).rate;
  }
  Time link_delay(NodeId node, PortId port) const {
    return topo_.link(topo_.peer(node, port).link).delay;
  }

  /// One directed attachment (node, port), resolved once at construction
  /// so the per-packet paths (transmit, PFC frames, hold times, the TTL
  /// check) read plain fields instead of the topology's checked lookups.
  struct Wire {
    Device* peer = nullptr;
    PortId peer_port = kInvalidPort;
    bool peer_is_switch = false;
    std::uint32_t peer_shard = 0;  ///< sharded runs: the peer's shard
    std::uint32_t dir_link = 0;    ///< 2*link + dir: directed link index
    /// One-entry serialization memo: the last packet size this port sent
    /// and its serialization time (0 bytes take 0 ps). Written only by the
    /// device owning the port, so only by that device's shard.
    std::uint32_t memo_bytes = 0;
    Time memo_time = Time::zero();
    Rate rate;
    Time delay = Time::zero();
    Time pfc_time = Time::zero();  ///< PFC frame serialization + delay

    Time serialization(std::uint32_t bytes) {
      if (bytes != memo_bytes) {
        memo_bytes = bytes;
        memo_time = serialization_time(bytes, rate);
      }
      return memo_time;
    }
  };
  Wire& wire(NodeId node, PortId port) {
    return wires_[wire_base_[node] + port];
  }

  /// Serializes `pkt` out of (from, port): the peer's on_receive fires after
  /// serialization + propagation. The caller owns modelling the sender's
  /// busy period (it lasts exactly serialization_time(size, link_rate)).
  void transmit(NodeId from, PortId port, Packet pkt);

  /// Sends a PFC pause/resume for `cls` to the peer of (from, port).
  /// Control frames incur propagation plus their own 64-byte serialization
  /// but never queue behind data (modelling simplification; see DESIGN.md).
  void send_pfc(NodeId from, PortId port, ClassId cls, bool pause);

  /// Tag-carrying variant (dataplane pipeline enabled): the PauseTag rides
  /// with the PFC frame and is delivered through Switch::on_pfc_tagged when
  /// the peer is a switch (hosts receive the plain frame — the tag is
  /// switch-to-switch metadata). Same wire channel and sequence space as
  /// the untagged path, so shard determinism is unchanged.
  void send_pfc(NodeId from, PortId port, ClassId cls, bool pause,
                const dataplane::PauseTag& tag);

  /// Out-of-band congestion notification from `from` to the flow's source
  /// host.
  void send_cnp(NodeId from, FlowId flow, NodeId src_host);

  /// Out-of-band RTT sample from `from` to the flow's source host (TIMELY
  /// feedback).
  void send_rtt_sample(NodeId from, FlowId flow, NodeId src_host, Time rtt);

  /// Tell a switch its route table changed so it can re-resolve queued
  /// packets (used by the BGP / SDN-update substrates).
  void notify_routes_changed(NodeId sw);

  /// Fresh packet id for a packet injected by `src`. Sharded runs draw from
  /// a per-host namespace (single writer per shard, and invariant to the
  /// shard count); legacy runs keep the historical global counter.
  std::uint64_t next_packet_id(NodeId src) {
    if (engine_ != nullptr) {
      return (static_cast<std::uint64_t>(src + 1) << 40) |
             ++host_pkt_seq_[src];
    }
    return ++packet_id_;
  }

  /// Total bytes buffered across all switch ingress queues. After all flows
  /// stop, a non-zero residue once the event queue is quiet means packets
  /// are permanently trapped — the paper's operational deadlock criterion.
  std::int64_t total_queued_bytes() const;

  /// Total packets dropped, by reason (for the lossless-invariant tests).
  /// Summed over per-device counters.
  std::uint64_t drops(DropReason reason) const;

 private:
  void init_sharding(int requested_shards);
  /// (Re)installs per-shard deferring hooks mirroring whatever is attached
  /// to the real trace — invoked by the engine at the start of every run.
  void arm_shard_traces();
  /// Points `slot` of every shard trace at a recorder that defers each
  /// observation as a closure firing the real slot (or clears it when
  /// nothing is attached to the real slot).
  template <typename... Rest>
  void arm_deferred(HookSlot<Time, Rest...> Trace::*slot);
  /// Schedules `fn` to land at the peer `pp` of `from`, `after` from now.
  /// Sharded runs key it on the directed link's wire channel, whose
  /// sequence space data and PFC frames share: both are emissions of the
  /// same link, keyed in the order the sending device produced them.
  template <typename F>
  void post_wire(NodeId from, const Wire& w, Time after, F&& fn);
  /// Schedules out-of-band feedback (CNP, RTT sample) from `from` to host
  /// `to` after the configured feedback delay, keyed per sending node.
  template <typename F>
  void post_oob(NodeId from, NodeId to, F&& fn);

  Simulator& sim_;
  const Topology& topo_;
  NetConfig cfg_;
  Trace trace_;

  // Sharded-mode state. engine_ is declared before devices_ so worker
  // threads are joined after devices are gone only via ~Network's explicit
  // member order: devices never run once the coordinator stops driving
  // windows, so either order is safe; engine-first keeps the plan and seq
  // tables alive for the engine's entire lifetime.
  topo::ShardPlan plan_;
  std::unique_ptr<ShardedEngine> engine_;
  std::vector<Trace> shard_traces_;          ///< deferring hooks, per shard
  std::vector<std::uint64_t> wire_seq_;      ///< per directed link (2L)
  std::vector<std::uint64_t> oob_seq_;       ///< per sending node
  std::vector<std::uint64_t> host_pkt_seq_;  ///< per source host
  /// Shard workers' redirection. Inline and constant-initialized, so the
  /// per-packet trace() reads it without a TLS wrapper call.
  static inline thread_local Trace* tls_trace_ = nullptr;

  std::vector<std::unique_ptr<Device>> devices_;
  std::vector<std::uint32_t> wire_base_;  ///< per node: its first wire
  std::vector<Wire> wires_;               ///< per (node, port)
  std::uint64_t packet_id_ = 0;
};

}  // namespace dcdl
