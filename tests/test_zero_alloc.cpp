// Steady-state allocation audit.
//
// The hot-path refactor's headline invariant: once a scenario's arenas have
// grown to their high-water marks (event slab, packet rings, dense
// accounting vectors), the simulation loop performs ZERO heap allocations.
// This test replaces the global allocator with a counting one and asserts
// an exact zero over a 100k+ event window of the paper's routing-loop
// scenario — every schedule/fire/cancel, packet hop, PFC pause/resume and
// TTL drop in the window must run out of recycled storage.
//
// The overrides are global for this binary (gtest allocates too), so the
// measurement brackets exactly one run_until call with no test machinery in
// between.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <optional>

#include "dcdl/device/host.hpp"
#include "dcdl/routing/compute.hpp"
#include "dcdl/scenarios/scenario.hpp"
#include "dcdl/sim/sharded.hpp"
#include "dcdl/stats/hooks.hpp"
#include "dcdl/telemetry/metrics.hpp"
#include "dcdl/telemetry/recorder.hpp"
#include "dcdl/topo/generators.hpp"

namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t n) { return ::operator new(n); }

void* operator new(std::size_t n, std::align_val_t al) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  const std::size_t a = static_cast<std::size_t>(al);
  if (void* p = std::aligned_alloc(a, (n + a - 1) / a * a)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t n, std::align_val_t al) {
  return ::operator new(n, al);
}

// The nothrow forms (std::stable_sort's temporary buffer) must come from the
// same malloc as the rest: the sanitizers' own nothrow new, freed by the
// operator delete below, is an alloc-dealloc mismatch.
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n ? n : 1);
}

void* operator new[](std::size_t n, const std::nothrow_t& t) noexcept {
  return ::operator new(n, t);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace dcdl {
namespace {

using namespace dcdl::literals;
using namespace dcdl::scenarios;

TEST(ZeroAlloc, RoutingLoopSteadyStateAllocatesNothing) {
  // Below-boundary routing loop (Fig. 2 regime that reaches a perpetual
  // steady state): hosts inject, packets circulate the loop, TTLs expire,
  // PFC duty-cycles — indefinitely.
  RoutingLoopParams p;
  p.inject = Rate::gbps(4);
  Scenario s = make_routing_loop(p);

  // Warm-up: grow every arena to its high-water mark.
  s.sim->run_until(2_ms);

  const std::uint64_t events_before = s.sim->events_executed();
  const std::uint64_t allocs_before =
      g_allocs.load(std::memory_order_relaxed);
  s.sim->run_until(12_ms);
  const std::uint64_t allocs =
      g_allocs.load(std::memory_order_relaxed) - allocs_before;
  const std::uint64_t events = s.sim->events_executed() - events_before;

  ASSERT_GE(events, 100'000u) << "window too small to be meaningful";
  EXPECT_EQ(allocs, 0u) << "heap allocations leaked into the steady state "
                           "across " << events << " events";
}

TEST(ZeroAlloc, TelemetryAttachedSteadyStateAllocatesNothing) {
  // The observability invariant: the fully attached run telemetry AND a
  // flight recorder subscribed to every trace slot (including per-packet
  // queue_bytes) must not add a single allocation to the steady state —
  // record() is a masked store, counter bumps are struct field increments.
  RoutingLoopParams p;
  p.inject = Rate::gbps(4);
  Scenario s = make_routing_loop(p);
  telemetry::RunTelemetry run_telemetry(*s.net);
  telemetry::FlightRecorder recorder;  // default 64Ki-record ring
  recorder.attach(*s.net);

  s.sim->run_until(2_ms);  // warm-up: arenas reach high water

  const std::uint64_t events_before = s.sim->events_executed();
  const std::uint64_t records_before = recorder.total_recorded();
  const std::uint64_t allocs_before =
      g_allocs.load(std::memory_order_relaxed);
  s.sim->run_until(12_ms);
  const std::uint64_t allocs =
      g_allocs.load(std::memory_order_relaxed) - allocs_before;
  const std::uint64_t events = s.sim->events_executed() - events_before;

  ASSERT_GE(events, 100'000u) << "window too small to be meaningful";
  EXPECT_GT(recorder.total_recorded(), records_before)
      << "recorder saw no traffic; the measurement is vacuous";
  EXPECT_GT(run_telemetry.counters().tx_starts, 0u);
  EXPECT_EQ(allocs, 0u) << "telemetry leaked heap allocations into the "
                           "steady state across " << events << " events";
}

TEST(ZeroAlloc, LockstepFatTreeTiesAllocateNothing) {
  // A k=4 fat-tree permutation of greedy 1000-byte flows over identical
  // links runs in lockstep: many device events share a timestamp and reach
  // the event queue's delay lanes below the tail in channel order on the
  // keyed engine (one shard, run inline). Those ties are put in order
  // inside the lanes' own storage, so once the lanes have grown to their
  // high-water marks they cost no allocation either.
  Simulator sim;
  const topo::FatTreeTopo ft = topo::make_fat_tree(4);
  std::optional<ScopedShardRequest> req{std::in_place, 1};
  Network net(sim, ft.topo, NetConfig{});
  req.reset();
  ASSERT_TRUE(net.sharded());
  ASSERT_EQ(net.engine().num_shards(), 1);
  routing::install_shortest_paths(net);
  const std::size_t n = ft.all_hosts.size();
  for (std::size_t i = 0; i < n; ++i) {
    FlowSpec f;
    f.id = static_cast<FlowId>(i + 1);
    f.src_host = ft.all_hosts[i];
    f.dst_host = ft.all_hosts[(i + n / 2) % n];
    f.packet_bytes = 1000;
    net.host_at(f.src_host).add_flow(f);
  }
  // Counts transmissions that start at the same instant as the previous
  // one: the lockstep the test relies on.
  Time last = Time::max();
  std::uint64_t same_time = 0;
  stats::append_hook<Time, const Packet&, NodeId, PortId>(
      net.trace().tx_start, [&](Time t, const Packet&, NodeId, PortId) {
        same_time += t == last ? 1 : 0;
        last = t;
      });

  sim.run_until(500_us);  // warm-up: slab, heap and lanes reach high water

  const std::uint64_t events_before = sim.events_executed();
  const std::uint64_t ties_before = same_time;
  const std::uint64_t allocs_before =
      g_allocs.load(std::memory_order_relaxed);
  sim.run_until(1500_us);
  const std::uint64_t allocs =
      g_allocs.load(std::memory_order_relaxed) - allocs_before;
  const std::uint64_t events = sim.events_executed() - events_before;

  ASSERT_GE(events, 100'000u) << "window too small to be meaningful";
  ASSERT_GE(same_time - ties_before, events / 10)
      << "the fabric is not in lockstep; the test is vacuous";
  EXPECT_EQ(allocs, 0u) << "lockstep ties leaked heap allocations across "
                        << events << " events";
}

TEST(ZeroAlloc, EventChurnSteadyStateAllocatesNothing) {
  // Pure scheduler churn: self-rescheduling timers exercise the slab
  // free-list recycling with no device layer involved.
  Simulator sim;
  struct Churn {
    Simulator& sim;
    std::uint64_t fired = 0;
    void tick() {
      ++fired;
      sim.schedule_in(1_ns, [this] { tick(); });
    }
  } churn{sim};
  for (int i = 0; i < 16; ++i) {
    sim.schedule_in(1_ns, [&churn] { churn.tick(); });
  }
  sim.run_until(1_us);  // warm-up: slab and heap reach high water

  const std::uint64_t allocs_before =
      g_allocs.load(std::memory_order_relaxed);
  sim.run_until(10_us);
  const std::uint64_t allocs =
      g_allocs.load(std::memory_order_relaxed) - allocs_before;

  ASSERT_GE(churn.fired, 100'000u);
  EXPECT_EQ(allocs, 0u);
}

}  // namespace
}  // namespace dcdl
