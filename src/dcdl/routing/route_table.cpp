#include "dcdl/routing/route_table.hpp"

#include <algorithm>
#include <limits>

#include "dcdl/common/contract.hpp"

namespace dcdl {

namespace {
/// Node ids index the destination array directly; they are dense topology
/// indices, so anything past this is a caller bug, not a large fabric.
constexpr NodeId kMaxDst = NodeId{1} << 24;
}  // namespace

void RouteTable::set_flow_route(FlowId flow, PortId egress) {
  DCDL_EXPECTS(egress != kInvalidPort);
  PortId& slot = by_flow_.at_or_insert(flow).port;
  if (slot == kInvalidPort) ++flow_count_;
  slot = egress;
  ++version_;
}

void RouteTable::assign_dst(NodeId dst, const PortId* egresses,
                            std::size_t n) {
  DCDL_EXPECTS(dst < kMaxDst);
  DCDL_EXPECTS(n <= kMaxEcmp);
  if (dst >= by_dst_.size()) by_dst_.resize(dst + std::size_t{1});
  DstEntry& e = by_dst_[dst];
  if (!e.present) ++dst_count_;
  live_ports_ -= e.count;
  if (n > e.count) {
    DCDL_EXPECTS(ports_.size() + n <=
                 std::numeric_limits<std::uint32_t>::max());
    e.first = static_cast<std::uint32_t>(ports_.size());
    ports_.resize(ports_.size() + n);
  }
  std::copy(egresses, egresses + n, ports_.begin() + e.first);
  e.count = static_cast<std::uint16_t>(n);
  e.recip = n >= 2 ? ~std::uint64_t{0} / n + 1 : 0;
  e.present = true;
  live_ports_ += n;
  if (ports_.size() > 2 * live_ports_ + 64) {
    // Compact: rewrite every live range contiguously in dst order.
    std::vector<PortId> packed;
    packed.reserve(live_ports_);
    for (DstEntry& d : by_dst_) {
      const std::uint32_t first = static_cast<std::uint32_t>(packed.size());
      packed.insert(packed.end(), ports_.begin() + d.first,
                    ports_.begin() + d.first + d.count);
      d.first = first;
    }
    ports_ = std::move(packed);
  }
  ++version_;
}

void RouteTable::clear_dst_route(NodeId dst) {
  if (dst < by_dst_.size() && by_dst_[dst].present) {
    DstEntry& e = by_dst_[dst];
    live_ports_ -= e.count;
    --dst_count_;
    e = DstEntry{};
  }
  ++version_;
}

void RouteTable::clear() {
  by_flow_ = FlowMap<FlowRoute>{};
  flow_count_ = 0;
  by_dst_.clear();
  ports_.clear();
  live_ports_ = 0;
  dst_count_ = 0;
  ++version_;
}

}  // namespace dcdl
