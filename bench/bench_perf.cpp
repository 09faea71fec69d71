// Simulator performance benchmarks.
//
// Three modes:
//   bench_perf [google-benchmark flags]   microbenchmark suite (BM_*)
//   bench_perf --shards N [--k K] [--ms M]
//                                         sharded-scaling probe: run the
//                                         fat-tree permutation at 1 and N
//                                         shards and print the speedup (the
//                                         manual dimension for large-k runs
//                                         on multi-core machines)
//   bench_perf --hybrid [--k K] [--ms M]  hybrid-speedup probe: run the
//                                         localized-congestion fat-tree
//                                         (default k=16) pure packet and
//                                         under --hybrid risk, print the
//                                         simulated-time/sec speedup and
//                                         the fluid-time fraction
//
// The probes report the best of 3 runs. The repository's noise-aware perf
// gate is the dcdlbench/ benchmark (`python3 dcdlbench/run.py --all`), not
// this binary.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "dcdl/device/host.hpp"
#include "dcdl/hybrid/hybrid.hpp"
#include "dcdl/routing/compute.hpp"
#include "dcdl/scenarios/scenario.hpp"
#include "dcdl/sim/sharded.hpp"
#include "dcdl/topo/generators.hpp"
#include "dcdl/traffic/flow.hpp"

using namespace dcdl;
using namespace dcdl::literals;
using namespace dcdl::scenarios;

namespace {

void BM_FourSwitchMillisecond(benchmark::State& state) {
  for (auto _ : state) {
    Scenario s = make_four_switch(FourSwitchParams{});
    s.sim->run_until(1_ms);
    state.counters["events"] = static_cast<double>(s.sim->events_executed());
    benchmark::DoNotOptimize(s.net->total_queued_bytes());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FourSwitchMillisecond)->Unit(benchmark::kMillisecond);

void BM_RoutingLoopMillisecond(benchmark::State& state) {
  for (auto _ : state) {
    RoutingLoopParams p;
    p.inject = Rate::gbps(8);
    Scenario s = make_routing_loop(p);
    s.sim->run_until(1_ms);
    benchmark::DoNotOptimize(s.net->total_queued_bytes());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RoutingLoopMillisecond)->Unit(benchmark::kMillisecond);

void BM_IncastMillisecond(benchmark::State& state) {
  for (auto _ : state) {
    IncastParams p;
    p.num_senders = static_cast<int>(state.range(0));
    Scenario s = make_incast(p);
    s.sim->run_until(1_ms);
    benchmark::DoNotOptimize(s.net->total_queued_bytes());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_IncastMillisecond)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond);

void BM_FatTreePermutation(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    Simulator sim;
    const topo::FatTreeTopo ft = topo::make_fat_tree(4);
    Topology topo = ft.topo;
    Network net(sim, topo, NetConfig{});
    routing::install_shortest_paths(net);
    const auto n = ft.all_hosts.size();
    for (std::size_t i = 0; i < n; ++i) {
      FlowSpec f;
      f.id = static_cast<FlowId>(i + 1);
      f.src_host = ft.all_hosts[i];
      f.dst_host = ft.all_hosts[(i + n / 2) % n];
      f.packet_bytes = 1000;
      net.host_at(f.src_host).add_flow(f);
    }
    state.ResumeTiming();
    sim.run_until(200_us);
    benchmark::DoNotOptimize(net.total_queued_bytes());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FatTreePermutation)->Unit(benchmark::kMillisecond);

void BM_EventQueueChurn(benchmark::State& state) {
  for (auto _ : state) {
    Simulator sim;
    std::int64_t fired = 0;
    for (int i = 0; i < 100'000; ++i) {
      sim.schedule_at(Time{(i * 7919) % 1'000'000}, [&fired] { ++fired; });
    }
    sim.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * 100'000);
}
BENCHMARK(BM_EventQueueChurn)->Unit(benchmark::kMillisecond);

// Device-shaped churn: 3000 self-rescheduling timers, each cycling its next
// delay through four fixed values (serialization, serialization plus
// propagation, a pause refresh, a probe period) — the repeated delays the
// event queue's FIFO lanes serve. BM_EventQueueChurn's scattered absolute
// times exercise the heap instead.
void BM_EventQueueFixedDelays(benchmark::State& state) {
  struct Timer {
    Simulator* sim;
    std::int64_t* left;
    std::uint32_t k;
    void operator()() const {
      static constexpr std::int64_t kDelayPs[] = {200'000, 1'200'000,
                                                  13'100'000, 100'000'000};
      if (--*left <= 0) return;
      sim->schedule_in(Time{kDelayPs[k % 4]}, Timer{sim, left, k + 1});
    }
  };
  std::uint64_t events = 0;
  for (auto _ : state) {
    Simulator sim;
    std::int64_t left = 1'000'000;
    for (std::uint32_t i = 0; i < 3000; ++i) {
      sim.schedule_at(Time{std::int64_t{i} * 1000}, Timer{&sim, &left, i});
    }
    sim.run();
    events += sim.events_executed();
    benchmark::DoNotOptimize(events);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_EventQueueFixedDelays)->Unit(benchmark::kMillisecond);

// Forwarding-table lookups as a k=8 fat-tree's switches do them: every
// (switch, destination host) pair of the installed shortest-path routes
// (ECMP sets of up to k/2 uplinks), each asked for several flows, in a
// fixed shuffled order so successive lookups hit different tables.
void BM_FibLookup(benchmark::State& state) {
  Simulator sim;
  const topo::FatTreeTopo ft = topo::make_fat_tree(8);
  Network net(sim, ft.topo, NetConfig{});
  routing::install_shortest_paths(net);
  struct Step {
    const RouteTable* table;
    FlowId flow;
    NodeId dst;
  };
  std::vector<Step> steps;
  for (const NodeId sw : ft.topo.switches()) {
    for (const NodeId dst : ft.all_hosts) {
      for (FlowId f = 1; f <= 4; ++f) {
        steps.push_back({&net.switch_at(sw).routes(), f * 37 + dst, dst});
      }
    }
  }
  std::mt19937_64 rng(8);
  std::shuffle(steps.begin(), steps.end(), rng);
  std::uint64_t sink = 0;
  for (auto _ : state) {
    for (const Step& s : steps) {
      sink += s.table->lookup(s.flow, s.dst).value_or(PortId{0xFFFF});
    }
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(steps.size()));
}
BENCHMARK(BM_FibLookup);

// ---------------------------------------------------------------------------
// Timed fat-tree runs shared by the --shards and --hybrid probes.

/// Everything one timed run yields. Legacy runs fill only `counters`;
/// sharded runs add the engine's window statistics (counters are summed
/// over the control plus all shard simulators so slab/heap shapes remain
/// comparable across engines).
struct RunOutcome {
  Simulator::Counters counters{};
  int shards = 0;  ///< 0 = legacy engine
  std::uint64_t windows = 0;
  std::uint64_t device_passes = 0;
  std::uint64_t stalled_windows = 0;  ///< shard-passes that fired 0 events
  std::uint64_t cross_shard_events = 0;
  std::vector<std::uint64_t> shard_events;
  /// Hybrid fluid/packet engine (--hybrid probe only).
  bool hybrid = false;
  double fluid_fraction = 0;
  std::uint64_t zoom_events = 0;
  std::uint64_t credited_packets = 0;
};

struct Timed {
  std::string name;
  std::uint64_t events = 0;
  double best_wall_ms = 0;
  double events_per_sec = 0;
  /// Simulated horizon (0 = not tracked for this scenario); with
  /// best_wall_ms this yields sim_ms_per_sec, the hybrid speedup metric.
  double sim_ms = 0;
  RunOutcome outcome{};
};

/// Runs `body` (which returns the run's outcome) once to warm up, then
/// `reps` times; reports the fastest run.
template <typename Body>
Timed measure(const std::string& name, int reps, Body body) {
  Timed r;
  r.name = name;
  body();  // warm-up: page in code, size allocator pools
  for (int i = 0; i < reps; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    const RunOutcome outcome = body();
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    if (i == 0 || ms < r.best_wall_ms) {
      r.best_wall_ms = ms;
      r.events = outcome.counters.executed;
      r.outcome = outcome;
    }
  }
  r.events_per_sec = static_cast<double>(r.events) / (r.best_wall_ms / 1e3);
  return r;
}

/// Fat-tree permutation at `shards` shards (0 = legacy engine). The
/// scenario is identical for every shard count — so are the delivered
/// streams; only the wall clock and the window statistics differ.
RunOutcome run_fat_tree(int shards, int k, Time run_for) {
  Simulator sim;
  const topo::FatTreeTopo ft = topo::make_fat_tree(k);
  Topology topo = ft.topo;
  std::optional<ScopedShardRequest> req;
  if (shards >= 1) req.emplace(shards);
  Network net(sim, topo, NetConfig{});
  req.reset();
  routing::install_shortest_paths(net);
  const auto n = ft.all_hosts.size();
  for (std::size_t i = 0; i < n; ++i) {
    FlowSpec f;
    f.id = static_cast<FlowId>(i + 1);
    f.src_host = ft.all_hosts[i];
    f.dst_host = ft.all_hosts[(i + n / 2) % n];
    f.packet_bytes = 1000;
    net.host_at(f.src_host).add_flow(f);
  }
  sim.run_until(run_for);
  benchmark::DoNotOptimize(net.total_queued_bytes());

  RunOutcome out;
  out.counters = sim.counters();  // executed already includes shard credits
  if (net.sharded()) {
    ShardedEngine& eng = net.engine();
    out.shards = eng.num_shards();
    const ShardedEngine::Stats& st = eng.stats();
    out.windows = st.windows;
    out.device_passes = st.device_passes;
    out.cross_shard_events = st.cross_shard_events;
    for (const ShardedEngine::ShardStats& sh : st.shard) {
      out.shard_events.push_back(sh.executed);
      out.stalled_windows += sh.idle_windows;
    }
    for (int i = 0; i < eng.num_shards(); ++i) {
      const Simulator::Counters c =
          eng.shard_sim(static_cast<std::uint32_t>(i)).counters();
      out.counters.scheduled += c.scheduled;
      out.counters.cancelled += c.cancelled;
      out.counters.slab_grows += c.slab_grows;
      out.counters.slab_slots += c.slab_slots;
      out.counters.heap_high_water += c.heap_high_water;
    }
  }
  return out;
}

/// Localized congestion on a k-ary fat-tree: pod 0 runs a greedy intra-pod
/// incast (every pod-0 host blasts host 0, crossing the aggregation layer),
/// while pods 1..k-1 carry a steady intra-pod CBR permutation at ~10% line
/// rate. The hot traffic never leaves pod 0 and the background never touches
/// it, so under the risk-guided hybrid engine the background pods fluidize
/// (token-bucket pacers, unsaturated paths, link-disjoint from every packet
/// flow) while pod 0 stays packet-accurate — the workload the zoom was built
/// for. The event streams differ between modes by design; compare
/// simulated-time per wall second, not events/sec.
RunOutcome run_fat_tree_localized(int k, Time run_for, hybrid::Mode mode) {
  Simulator sim;
  const topo::FatTreeTopo ft = topo::make_fat_tree(k);
  Topology topo = ft.topo;
  Network net(sim, topo, NetConfig{});
  routing::install_shortest_paths(net);

  const int half = k / 2;
  const int hp = half * half;  // hosts per pod
  std::vector<FlowSpec> flows;
  FlowId next_id = 1;
  // Hot pod: every pod-0 host except the victim sends greedy (no pacer) to
  // pod-0 host 0. Greedy flows are never fluidization-eligible.
  for (int i = 1; i < hp; ++i) {
    FlowSpec f;
    f.id = next_id++;
    f.src_host = ft.all_hosts[static_cast<std::size_t>(i)];
    f.dst_host = ft.all_hosts[0];
    f.packet_bytes = 1000;
    net.host_at(f.src_host).add_flow(f);
    flows.push_back(f);
  }
  // Background pods: host i -> host (i + half) % hp inside the same pod — a
  // bijection that always crosses to the next edge switch, exercising the
  // pod's aggregation layer without ever reaching the core tier.
  for (int pod = 1; pod < k; ++pod) {
    for (int i = 0; i < hp; ++i) {
      FlowSpec f;
      f.id = next_id++;
      f.src_host = ft.all_hosts[static_cast<std::size_t>(pod * hp + i)];
      f.dst_host =
          ft.all_hosts[static_cast<std::size_t>(pod * hp + (i + half) % hp)];
      f.packet_bytes = 1000;
      net.host_at(f.src_host).add_flow(
          f, std::make_unique<TokenBucketPacer>(Rate::gbps(4),
                                                2 * f.packet_bytes));
      flows.push_back(f);
    }
  }

  std::optional<hybrid::HybridController> ctl;
  if (mode != hybrid::Mode::kOff) {
    hybrid::HybridConfig hc;
    hc.mode = mode;
    ctl.emplace(net, flows, hc);
  }
  sim.run_until(run_for);
  benchmark::DoNotOptimize(net.total_queued_bytes());

  RunOutcome out;
  if (ctl) {
    ctl->finalize();
    out.hybrid = true;
    out.fluid_fraction = ctl->stats().fluid_fraction;
    out.zoom_events = ctl->stats().zoom_events;
    out.credited_packets = ctl->stats().credited_packets;
  }
  out.counters = sim.counters();
  return out;
}

void print_suite(const std::vector<Timed>& results) {
  for (const Timed& r : results) {
    std::printf("%-14s %10llu events  %8.2f ms  %12.0f events/sec  "
                "(slab %zu, heap hw %zu, cancelled %llu)\n",
                r.name.c_str(), static_cast<unsigned long long>(r.events),
                r.best_wall_ms, r.events_per_sec, r.outcome.counters.slab_slots,
                r.outcome.counters.heap_high_water,
                static_cast<unsigned long long>(r.outcome.counters.cancelled));
    if (r.outcome.shards > 0) {
      std::printf("  %-12s %d shards, %llu windows (%llu passes, %llu "
                  "stalled), %llu cross-shard events\n",
                  "", r.outcome.shards,
                  static_cast<unsigned long long>(r.outcome.windows),
                  static_cast<unsigned long long>(r.outcome.device_passes),
                  static_cast<unsigned long long>(r.outcome.stalled_windows),
                  static_cast<unsigned long long>(
                      r.outcome.cross_shard_events));
    }
    if (r.sim_ms > 0) {
      std::printf("  %-12s %.1f sim ms (%.2f sim-ms/sec)", "", r.sim_ms,
                  r.sim_ms / (r.best_wall_ms / 1e3));
      if (r.outcome.hybrid) {
        std::printf(", fluid fraction %.3f, %llu zoom event(s), %llu "
                    "credited pkt(s)",
                    r.outcome.fluid_fraction,
                    static_cast<unsigned long long>(r.outcome.zoom_events),
                    static_cast<unsigned long long>(
                        r.outcome.credited_packets));
      }
      std::printf("\n");
    }
  }
}

// ---------------------------------------------------------------------------
// --shards mode: sharded-scaling probe.

int run_shards_mode(int shards, int k, double sim_ms) {
  if (shards < 1 || k < 4 || k % 2 != 0 || sim_ms <= 0) {
    std::fprintf(stderr,
                 "bench_perf: --shards needs shards >= 1, even k >= 4, "
                 "ms > 0\n");
    return 1;
  }
  const Time run_for = Time{static_cast<std::int64_t>(sim_ms * 1e9)};
  constexpr int kReps = 3;
  std::printf("fat-tree k=%d, %.1f simulated ms, best of %d:\n", k, sim_ms,
              kReps);
  const Timed one = measure(
      "fat_tree_s1", kReps, [k, run_for] { return run_fat_tree(1, k, run_for); });
  const Timed n = measure(
      "fat_tree_s" + std::to_string(shards), kReps,
      [shards, k, run_for] { return run_fat_tree(shards, k, run_for); });
  print_suite({one, n});
  std::printf("speedup (%d shards vs 1): %.2fx\n", n.outcome.shards,
              one.best_wall_ms / n.best_wall_ms);
  return 0;
}

// ---------------------------------------------------------------------------
// --hybrid mode: fluid/packet zoom speedup probe.

int run_hybrid_mode(int k, double sim_ms) {
  if (k < 4 || k % 2 != 0 || sim_ms <= 0) {
    std::fprintf(stderr, "bench_perf: --hybrid needs even k >= 4, ms > 0\n");
    return 1;
  }
  const Time run_for = Time{static_cast<std::int64_t>(sim_ms * 1e9)};
  constexpr int kReps = 3;
  std::printf(
      "fat-tree k=%d localized congestion, %.1f simulated ms, best of %d:\n",
      k, sim_ms, kReps);
  Timed off = measure("local_packet", kReps, [k, run_for] {
    return run_fat_tree_localized(k, run_for, hybrid::Mode::kOff);
  });
  off.sim_ms = sim_ms;
  Timed hy = measure("local_hybrid", kReps, [k, run_for] {
    return run_fat_tree_localized(k, run_for, hybrid::Mode::kRisk);
  });
  hy.sim_ms = sim_ms;
  print_suite({off, hy});
  std::printf("simulated-time/sec speedup (hybrid risk vs packet): %.2fx\n",
              off.best_wall_ms / hy.best_wall_ms);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  int shards = 0, k = 16;
  double sim_ms = 1.0;
  bool shards_mode = false, hybrid_mode = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--shards") == 0 && i + 1 < argc) {
      shards_mode = true;
      shards = std::atoi(argv[++i]);
      continue;
    }
    if (std::strcmp(argv[i], "--hybrid") == 0) {
      hybrid_mode = true;
      continue;
    }
    if (std::strcmp(argv[i], "--k") == 0 && i + 1 < argc) {
      k = std::atoi(argv[++i]);
      continue;
    }
    if (std::strcmp(argv[i], "--ms") == 0 && i + 1 < argc) {
      sim_ms = std::atof(argv[++i]);
      continue;
    }
  }
  if (shards_mode) return run_shards_mode(shards, k, sim_ms);
  if (hybrid_mode) return run_hybrid_mode(k, sim_ms);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
