// Per-device forwarding state.
//
// Lookup order: exact per-flow routes (used by the paper's case studies,
// which pin flow paths with static routing), then destination-based entries
// (possibly ECMP sets, selected by a deterministic flow hash salted per
// switch). Tables are mutable at runtime so the BGP-convergence and
// SDN-update substrates can produce transient loops; a rewrite affects only
// packets routed after it (queued packets keep their egress), and every
// rewrite bumps `version()`.
//
// Layout (see DESIGN.md "Hot-path memory architecture"): a hop's lookup
// touches no hash table. Flow overrides live in a flow-id indexed FlowMap
// that the lookup skips entirely while none is installed (the fabric
// workloads install none). Destinations index a dense entry array, and each
// entry names its ECMP candidates as a range of one flat port array (CSR)
// plus the precomputed reciprocal that turns the candidate pick `h % n`
// into two multiplications.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "dcdl/common/flow_map.hpp"
#include "dcdl/net/packet.hpp"

namespace dcdl {

class RouteTable {
 public:
  void set_flow_route(FlowId flow, PortId egress);

  void set_dst_route(NodeId dst, PortId egress) { assign_dst(dst, &egress, 1); }

  void set_dst_ecmp(NodeId dst, const std::vector<PortId>& egresses) {
    assign_dst(dst, egresses.data(), egresses.size());
  }

  void clear_dst_route(NodeId dst);

  void clear();

  /// Salt mixed into the ECMP hash so distinct switches spread flows
  /// differently (mirrors per-switch hash seeds in real fabrics).
  void set_ecmp_salt(std::uint64_t salt) { salt_ = salt; }

  std::optional<PortId> lookup(FlowId flow, NodeId dst) const {
    if (flow_count_ != 0) {
      const FlowRoute* r = by_flow_.find(flow);
      if (r != nullptr && r->port != kInvalidPort) return r->port;
    }
    if (dst >= by_dst_.size()) return std::nullopt;
    const DstEntry& e = by_dst_[dst];
    if (e.count == 0) return std::nullopt;
    const PortId* set = ports_.data() + e.first;
    if (e.count == 1) return set[0];
    const std::uint64_t h = mix((static_cast<std::uint64_t>(flow) << 32) ^
                                dst ^ salt_ * 0x9E3779B97F4A7C15ULL);
    return set[mod(h, e.count, e.recip)];
  }

  /// ECMP candidate set for a destination (empty if none).
  std::span<const PortId> dst_candidates(NodeId dst) const {
    if (dst >= by_dst_.size()) return {};
    const DstEntry& e = by_dst_[dst];
    return {ports_.data() + e.first, e.count};
  }

  std::optional<PortId> flow_route(FlowId flow) const {
    const FlowRoute* r = by_flow_.find(flow);
    if (r == nullptr || r->port == kInvalidPort) return std::nullopt;
    return r->port;
  }

  /// Installed per-flow overrides / destination entries.
  std::size_t flow_route_count() const { return flow_count_; }
  std::size_t dst_route_count() const { return dst_count_; }

  /// Monotonic change counter.
  std::uint64_t version() const { return version_; }

 private:
  struct FlowRoute {
    PortId port = kInvalidPort;  ///< kInvalidPort = no override
  };
  struct DstEntry {
    /// ceil(2^64 / count) for count >= 2 (see mod()).
    std::uint64_t recip = 0;
    std::uint32_t first = 0;  ///< index of the first candidate in ports_
    std::uint16_t count = 0;
    bool present = false;
  };

  __extension__ typedef unsigned __int128 U128;

  /// Largest ECMP set mod() is exact for.
  static constexpr std::size_t kMaxEcmp = 0xFFFF;

  // 64-bit mix (SplitMix64 finalizer) for ECMP selection.
  static std::uint64_t mix(std::uint64_t x) {
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
  }

  /// h % d without a division, for 2 <= d <= kMaxEcmp and recip =
  /// ceil(2^64 / d). Lemire, Kaser & Kurz ("Faster remainder by direct
  /// computation", 2019): n % d == hi64((recip * n mod 2^64) * d) for every
  /// n < 2^(64 - ceil(log2 d)). Reduce the high 32 bits of h first, then
  /// the remainder shifted above the low 32 bits (< d * 2^32 <= 2^48).
  static std::uint64_t mod(std::uint64_t h, std::uint64_t d,
                           std::uint64_t recip) {
    const auto fastmod = [d, recip](std::uint64_t n) {
      return static_cast<std::uint64_t>((U128{recip * n} * d) >> 64);
    };
    return fastmod(fastmod(h >> 32) << 32 | (h & 0xFFFFFFFFu));
  }

  void assign_dst(NodeId dst, const PortId* egresses, std::size_t n);

  FlowMap<FlowRoute> by_flow_;
  std::size_t flow_count_ = 0;
  std::vector<DstEntry> by_dst_;
  /// Candidate sets, one range per entry. A rewrite that grows a set
  /// appends a new range; ranges that fall out of use are reclaimed by
  /// compacting once they outnumber the live ones.
  std::vector<PortId> ports_;
  std::size_t live_ports_ = 0;
  std::size_t dst_count_ = 0;
  std::uint64_t salt_ = 0;
  std::uint64_t version_ = 0;
};

}  // namespace dcdl
