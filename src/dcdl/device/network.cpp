#include "dcdl/device/network.hpp"

#include <algorithm>

#include "dcdl/common/contract.hpp"
#include "dcdl/device/host.hpp"
#include "dcdl/device/switch.hpp"

namespace dcdl {

const char* to_string(DropReason r) {
  switch (r) {
    case DropReason::kTtlExpired: return "ttl_expired";
    case DropReason::kNoRoute: return "no_route";
    case DropReason::kBufferOverflow: return "buffer_overflow";
    case DropReason::kWatchdogReset: return "watchdog_reset";
    case DropReason::kDataplaneReset: return "dataplane_reset";
  }
  return "?";
}

namespace {

// Canonical channel layout (see network.hpp file comment). Channel 0 is the
// legacy scheduling-order channel and must never be produced here.
std::uint64_t wire_channel(std::uint32_t dir_link) { return 1 + dir_link; }
std::uint64_t oob_channel(const Topology& topo, NodeId from) {
  return 1 + 2ull * topo.link_count() + from;
}
std::uint64_t self_channel(const Topology& topo, NodeId id) {
  return 1 + 2ull * topo.link_count() + topo.node_count() + id;
}

}  // namespace

Network::Network(Simulator& sim, const Topology& topo, NetConfig cfg)
    : sim_(sim), topo_(topo), cfg_(std::move(cfg)) {
  DCDL_EXPECTS(cfg_.pfc.xon_bytes <= cfg_.pfc.xoff_bytes);
  const int requested = ScopedShardRequest::active();
  if (requested >= 1) init_sharding(requested);
  devices_.reserve(topo.node_count());
  for (NodeId id = 0; id < topo.node_count(); ++id) {
    if (topo.is_switch(id)) {
      devices_.push_back(std::make_unique<Switch>(*this, id, cfg_));
    } else {
      devices_.push_back(std::make_unique<Host>(*this, id, cfg_));
    }
    if (engine_ != nullptr) {
      devices_.back()->bind_sim(&engine_->shard_sim(plan_.node_shard[id]),
                                self_channel(topo_, id));
    } else {
      devices_.back()->bind_sim(&sim_, /*self_chan=*/0);
    }
  }
  wire_base_.reserve(topo.node_count());
  for (NodeId id = 0; id < topo.node_count(); ++id) {
    wire_base_.push_back(static_cast<std::uint32_t>(wires_.size()));
    for (const PortPeer& pp : topo.ports(id)) {
      const LinkSpec& link = topo.link(pp.link);
      Wire w;
      w.peer = devices_.at(pp.peer_node).get();
      w.peer_port = pp.peer_port;
      w.peer_is_switch = topo.is_switch(pp.peer_node);
      if (engine_ != nullptr) w.peer_shard = plan_.node_shard[pp.peer_node];
      w.dir_link = 2 * pp.link + (id == link.a ? 0u : 1u);
      w.rate = link.rate;
      w.delay = link.delay;
      w.pfc_time =
          serialization_time(cfg_.pfc.control_frame_bytes, link.rate) +
          link.delay;
      wires_.push_back(w);
    }
  }
}

Network::~Network() = default;

void Network::init_sharding(int requested_shards) {
  plan_ = topo::assign_shards(topo_, requested_shards);
  Time lookahead = Time::max();
  if (plan_.num_shards > 1) {
    // The conservative horizon: nothing a shard does before time T can
    // affect another shard before T + lookahead. Wire traffic (data and
    // PFC frames alike) crosses the cut no faster than the smallest
    // cut-link propagation delay; out-of-band CNP/RTT feedback — which
    // skips the wire entirely — is bounded by its configured delay, so it
    // clamps the horizon whenever the scenario can generate it.
    lookahead = plan_.min_cut_delay;
    if (cfg_.ecn.enabled || cfg_.rtt_feedback) {
      lookahead = std::min(lookahead, cfg_.cnp_feedback_delay);
    }
    DCDL_EXPECTS(lookahead > Time::zero());
  }
  engine_ = std::make_unique<ShardedEngine>(sim_, plan_.num_shards, lookahead);
  wire_seq_.assign(2 * static_cast<std::size_t>(topo_.link_count()), 0);
  oob_seq_.assign(topo_.node_count(), 0);
  host_pkt_seq_.assign(topo_.node_count(), 0);
  if (plan_.num_shards == 1) return;  // runs inline: hooks fire directly
  shard_traces_.resize(static_cast<std::size_t>(plan_.num_shards));
  engine_->set_on_worker_start(
      [this](std::uint32_t s) { tls_trace_ = &shard_traces_[s]; });
  engine_->set_on_run_start([this] { arm_shard_traces(); });
}

template <typename... Rest>
void Network::arm_deferred(HookSlot<Time, Rest...> Trace::*slot) {
  HookSlot<Time, Rest...>* real = &(trace_.*slot);
  for (std::uint32_t s = 0; s < shard_traces_.size(); ++s) {
    HookSlot<Time, Rest...>& deferring = shard_traces_[s].*slot;
    if (!*real) {
      deferring = nullptr;
      continue;
    }
    deferring = [eng = engine_.get(), s, real](Time t, Rest... rest) {
      auto fire = [real, t, rest...] { (*real)(t, rest...); };
      static_assert(sizeof(fire) <= ShardedEngine::kDeferredBytes,
                    "deferred observation would spill to the heap");
      eng->defer(s, t, std::move(fire));
    };
  }
}

void Network::arm_shard_traces() {
  arm_deferred(&Trace::pfc_state);
  arm_deferred(&Trace::queue_bytes);
  arm_deferred(&Trace::delivered);
  arm_deferred(&Trace::dropped);
  arm_deferred(&Trace::tx_start);
  arm_deferred(&Trace::cnp);
  arm_deferred(&Trace::hop_wait);
  arm_deferred(&Trace::dataplane);
}

template <typename F>
void Network::post_wire(NodeId from, const Wire& w, Time after, F&& fn) {
  if (engine_ == nullptr) {
    sim_.schedule_in(after, std::forward<F>(fn));
    return;
  }
  engine_->post(w.peer_shard, devices_[from]->now() + after,
                wire_channel(w.dir_link), ++wire_seq_[w.dir_link],
                std::forward<F>(fn));
}

template <typename F>
void Network::post_oob(NodeId from, NodeId to, F&& fn) {
  if (engine_ == nullptr) {
    sim_.schedule_in(cfg_.cnp_feedback_delay, std::forward<F>(fn));
    return;
  }
  engine_->post(plan_.node_shard[to],
                devices_[from]->now() + cfg_.cnp_feedback_delay,
                oob_channel(topo_, from), ++oob_seq_[from],
                std::forward<F>(fn));
}

Switch& Network::switch_at(NodeId id) {
  DCDL_EXPECTS(topo_.is_switch(id));
  return static_cast<Switch&>(*devices_.at(id));
}

const Switch& Network::switch_at(NodeId id) const {
  DCDL_EXPECTS(topo_.is_switch(id));
  return static_cast<const Switch&>(*devices_.at(id));
}

Host& Network::host_at(NodeId id) {
  DCDL_EXPECTS(topo_.is_host(id));
  return static_cast<Host&>(*devices_.at(id));
}

const Host& Network::host_at(NodeId id) const {
  DCDL_EXPECTS(topo_.is_host(id));
  return static_cast<const Host&>(*devices_.at(id));
}

void Network::transmit(NodeId from, PortId port, Packet pkt) {
  Wire& w = wire(from, port);
  Device* peer = w.peer;
  const PortId peer_port = w.peer_port;
  post_wire(from, w, w.serialization(pkt.size_bytes) + w.delay,
            [peer, peer_port, pkt]() mutable {
              peer->on_receive(peer_port, pkt);
            });
}

void Network::send_pfc(NodeId from, PortId port, ClassId cls, bool pause) {
  const Wire& w = wire(from, port);
  Device* peer = w.peer;
  const PortId peer_port = w.peer_port;
  post_wire(from, w, w.pfc_time, [peer, peer_port, cls, pause] {
    peer->on_pfc(peer_port, cls, pause);
  });
}

void Network::send_pfc(NodeId from, PortId port, ClassId cls, bool pause,
                       const dataplane::PauseTag& tag) {
  const Wire& w = wire(from, port);
  if (!w.peer_is_switch) {
    // Hosts have no pipeline; the tag is meaningful only switch-to-switch.
    send_pfc(from, port, cls, pause);
    return;
  }
  auto* peer = static_cast<Switch*>(w.peer);
  const PortId peer_port = w.peer_port;
  post_wire(from, w, w.pfc_time, [peer, peer_port, cls, pause, tag] {
    peer->on_pfc_tagged(peer_port, cls, pause, tag);
  });
}

void Network::send_cnp(NodeId from, FlowId flow, NodeId src_host) {
  DCDL_EXPECTS(topo_.is_host(src_host));
  post_oob(from, src_host, [this, flow, src_host] {
    Trace& tr = trace();
    if (tr.cnp) tr.cnp(device(src_host).now(), flow);
    host_at(src_host).on_cnp(flow);
  });
}

void Network::send_rtt_sample(NodeId from, FlowId flow, NodeId src_host,
                              Time rtt) {
  DCDL_EXPECTS(topo_.is_host(src_host));
  post_oob(from, src_host, [this, flow, src_host, rtt] {
    host_at(src_host).on_rtt(flow, rtt);
  });
}

void Network::notify_routes_changed(NodeId sw) {
  switch_at(sw).on_routes_changed();
}

std::int64_t Network::total_queued_bytes() const {
  std::int64_t total = 0;
  for (NodeId id = 0; id < topo_.node_count(); ++id) {
    if (topo_.is_switch(id)) total += switch_at(id).total_buffered();
  }
  return total;
}

std::uint64_t Network::drops(DropReason reason) const {
  std::uint64_t total = 0;
  for (const std::unique_ptr<Device>& d : devices_) {
    total += d->drop_count(reason);
  }
  return total;
}

}  // namespace dcdl
