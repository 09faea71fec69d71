#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <random>
#include <span>
#include <vector>

#include "dcdl/routing/route_table.hpp"

namespace dcdl {
namespace {

TEST(RouteTable, DstRouteLookup) {
  RouteTable rt;
  rt.set_dst_route(7, 3);
  EXPECT_EQ(rt.lookup(1, 7), PortId{3});
  EXPECT_FALSE(rt.lookup(1, 8).has_value());
}

TEST(RouteTable, FlowRouteOverridesDst) {
  RouteTable rt;
  rt.set_dst_route(7, 3);
  rt.set_flow_route(42, 5);
  EXPECT_EQ(rt.lookup(42, 7), PortId{5});
  EXPECT_EQ(rt.lookup(41, 7), PortId{3});
}

TEST(RouteTable, EcmpIsDeterministicPerFlow) {
  RouteTable rt;
  rt.set_dst_ecmp(9, {0, 1, 2, 3});
  for (FlowId f = 0; f < 50; ++f) {
    const auto first = rt.lookup(f, 9);
    for (int i = 0; i < 5; ++i) EXPECT_EQ(rt.lookup(f, 9), first);
  }
}

TEST(RouteTable, EcmpSpreadsFlows) {
  RouteTable rt;
  rt.set_dst_ecmp(9, {0, 1, 2, 3});
  std::map<PortId, int> hits;
  for (FlowId f = 0; f < 4000; ++f) hits[*rt.lookup(f, 9)]++;
  EXPECT_EQ(hits.size(), 4u);
  for (const auto& [port, n] : hits) {
    EXPECT_GT(n, 700) << "port " << port;  // expectation 1000
    EXPECT_LT(n, 1300) << "port " << port;
  }
}

TEST(RouteTable, SaltChangesEcmpSpread) {
  RouteTable a, b;
  a.set_dst_ecmp(9, {0, 1, 2, 3});
  b.set_dst_ecmp(9, {0, 1, 2, 3});
  a.set_ecmp_salt(1);
  b.set_ecmp_salt(2);
  int differ = 0;
  for (FlowId f = 0; f < 200; ++f) {
    if (a.lookup(f, 9) != b.lookup(f, 9)) ++differ;
  }
  EXPECT_GT(differ, 50);
}

TEST(RouteTable, ClearDstRemovesEntry) {
  RouteTable rt;
  rt.set_dst_route(7, 3);
  rt.clear_dst_route(7);
  EXPECT_FALSE(rt.lookup(0, 7).has_value());
}

TEST(RouteTable, VersionBumpsOnEveryMutation) {
  RouteTable rt;
  const auto v0 = rt.version();
  rt.set_dst_route(1, 0);
  const auto v1 = rt.version();
  rt.set_flow_route(1, 0);
  const auto v2 = rt.version();
  rt.clear_dst_route(1);
  const auto v3 = rt.version();
  EXPECT_LT(v0, v1);
  EXPECT_LT(v1, v2);
  EXPECT_LT(v2, v3);
}

TEST(RouteTable, DstCandidatesExposesEcmpSet) {
  RouteTable rt;
  rt.set_dst_ecmp(4, {2, 5});
  EXPECT_EQ(rt.dst_candidates(4).size(), 2u);
  EXPECT_TRUE(rt.dst_candidates(6).empty());
}

// --- FIB oracle -----------------------------------------------------------
//
// The reference model is the table's specification: std::map overrides and
// ECMP sets, and an ECMP pick of `h % n` over the SplitMix64-finalized flow
// hash. Seeded random rewrite sequences must leave the dense table
// answering every (flow, dst) lookup exactly as the model does.

std::uint64_t splitmix_finalizer(std::uint64_t x) {
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

struct ReferenceFib {
  std::map<FlowId, PortId> by_flow;
  std::map<NodeId, std::vector<PortId>> by_dst;
  std::uint64_t salt = 0;

  std::optional<PortId> lookup(FlowId flow, NodeId dst) const {
    if (const auto it = by_flow.find(flow); it != by_flow.end()) {
      return it->second;
    }
    const auto it = by_dst.find(dst);
    if (it == by_dst.end() || it->second.empty()) return std::nullopt;
    const std::vector<PortId>& set = it->second;
    const std::uint64_t h = splitmix_finalizer(
        (static_cast<std::uint64_t>(flow) << 32) ^ dst ^
        salt * 0x9E3779B97F4A7C15ULL);
    return set[h % set.size()];
  }
};

void expect_same_answers(const RouteTable& rt, const ReferenceFib& ref,
                         const std::vector<FlowId>& flows, NodeId dsts) {
  ASSERT_EQ(rt.flow_route_count(), ref.by_flow.size());
  ASSERT_EQ(rt.dst_route_count(), ref.by_dst.size());
  for (NodeId d = 0; d < dsts; ++d) {
    const auto it = ref.by_dst.find(d);
    const std::span<const PortId> cands = rt.dst_candidates(d);
    const std::vector<PortId> got(cands.begin(), cands.end());
    ASSERT_EQ(got, it == ref.by_dst.end() ? std::vector<PortId>{} : it->second)
        << "dst " << d;
  }
  for (const FlowId f : flows) {
    const auto it = ref.by_flow.find(f);
    ASSERT_EQ(rt.flow_route(f), it == ref.by_flow.end()
                                    ? std::nullopt
                                    : std::optional<PortId>(it->second))
        << "flow " << f;
    for (NodeId d = 0; d < dsts; ++d) {
      ASSERT_EQ(rt.lookup(f, d), ref.lookup(f, d))
          << "flow " << f << " dst " << d;
    }
  }
}

TEST(RouteTable, MatchesReferenceModelUnderRandomRewrites) {
  // Flow ids below, at and far past the flow map's dense range.
  std::vector<FlowId> flows;
  for (FlowId f = 0; f < 40; ++f) flows.push_back(f);
  for (const FlowId f : {FlowId{65535}, FlowId{65536}, FlowId{1u << 30},
                         FlowId{0xFFFFFFFFu}}) {
    flows.push_back(f);
  }
  constexpr NodeId kDsts = 48;  // lookups also probe dsts never installed
  for (const std::uint64_t salt :
       {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{0x5DEECE66DULL * 7},
        ~std::uint64_t{0}}) {
    SCOPED_TRACE(salt);
    std::mt19937_64 rng(salt ^ 0xD1B54A32D192ED03ULL);
    const auto pick = [&rng](std::uint64_t n) { return rng() % n; };
    RouteTable rt;
    ReferenceFib ref;
    rt.set_ecmp_salt(salt);
    ref.salt = salt;
    std::uint64_t version = rt.version();
    for (int step = 0; step < 1500; ++step) {
      const std::uint64_t op = pick(100);
      if (op < 15) {
        const FlowId f = flows[pick(flows.size())];
        const auto port = static_cast<PortId>(pick(16));
        rt.set_flow_route(f, port);
        ref.by_flow[f] = port;
      } else if (op < 55) {
        // Empty, single-port and multi-port sets; now and then a large one
        // (ECMP picks over many candidates, and range compaction).
        const std::size_t n = pick(10) == 0 ? 1 + pick(400) : pick(9);
        std::vector<PortId> set(n);
        for (PortId& p : set) p = static_cast<PortId>(pick(64));
        const auto d = static_cast<NodeId>(pick(kDsts - 8));
        rt.set_dst_ecmp(d, set);
        ref.by_dst[d] = set;
      } else if (op < 70) {
        const auto d = static_cast<NodeId>(pick(kDsts - 8));
        const auto port = static_cast<PortId>(pick(64));
        rt.set_dst_route(d, port);
        ref.by_dst[d] = {port};
      } else if (op < 97) {
        const auto d = static_cast<NodeId>(pick(kDsts));
        rt.clear_dst_route(d);
        ref.by_dst.erase(d);
      } else {
        rt.clear();
        ref.by_flow.clear();
        ref.by_dst.clear();
      }
      EXPECT_GT(rt.version(), version);  // every rewrite bumps it
      version = rt.version();
      if (step % 25 == 24) {
        expect_same_answers(rt, ref, flows, kDsts);
        if (HasFatalFailure()) return;
      }
    }
  }
}

TEST(RouteTable, EcmpPickIsTheModuloPickForEverySetSize) {
  // The division-free pick against `h % n` across set sizes up to the
  // largest the table accepts, including powers of two and their
  // neighbours.
  std::vector<std::size_t> sizes;
  for (std::size_t n = 2; n <= 70; ++n) sizes.push_back(n);
  for (const std::size_t n :
       {127, 128, 129, 255, 256, 1000, 4095, 4096, 4097, 32767, 32768, 32769,
        40000, 65521, 65534, 65535}) {
    sizes.push_back(n);
  }
  for (const std::size_t n : sizes) {
    std::vector<PortId> set(n);
    for (std::size_t i = 0; i < n; ++i) set[i] = static_cast<PortId>(i);
    RouteTable rt;
    ReferenceFib ref;
    rt.set_ecmp_salt(0xC0FFEE + n);
    ref.salt = 0xC0FFEE + n;
    rt.set_dst_ecmp(3, set);
    ref.by_dst[3] = set;
    for (FlowId f = 0; f < 300; ++f) {
      const FlowId flow = f * 2654435761u;
      ASSERT_EQ(rt.lookup(flow, 3), ref.lookup(flow, 3))
          << "n " << n << " flow " << flow;
    }
  }
}

}  // namespace
}  // namespace dcdl
