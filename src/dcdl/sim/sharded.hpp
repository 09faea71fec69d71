// Sharded conservative parallel discrete-event engine.
//
// One simulation run executes across N worker threads, each owning a
// Simulator for one topology shard, coordinated by conservative time
// windows:
//
//   window protocol
//     T_min  = earliest pending event across all shards
//     L      = lookahead = min cross-shard latency (cut-link propagation
//              delay, clamped by the out-of-band CNP/RTT feedback delay)
//     every shard may safely execute events with key < (T_min + L, 0):
//     a cross-shard effect of any event at time s >= T_min becomes visible
//     at s + L' >= T_min + L (L' >= L by construction, serialization adds
//     strictly positive margin), i.e. never inside the window.
//
// PFC pause propagation is what makes the paper's deadlocks spread — and
// its delay is exactly this lookahead: an Xoff/Xon crossing a shard
// boundary incurs the same cut-link propagation as data, so the pause
// cascade can never outrun the window either.
//
// Cross-shard events travel through per-(src-shard, dst-shard) mailboxes:
// a worker posts into its own row (single writer), the coordinator drains
// all rows between windows in fixed (src, dst, FIFO) order. Ordering of
// execution does NOT depend on drain order: every event carries a canonical
// (time, channel, sequence) key assigned by the sender, and each shard's
// heap fires in key order. The observable stream is therefore the key-sorted
// event sequence — a pure function of the scenario, byte-identical for
// every shard count (including 1).
//
// Observations obey the same key. A worker never fires a Trace hook: it
// defers a closure over the observation, tagged with the emitting event's
// (time, channel, sequence) key plus an intra-event counter, and at each
// window barrier the coordinator fires every shard's closures in merged key
// order (defer()). Hooks therefore see one globally ordered stream, and
// adding a hook needs no engine change.
//
// Control events (deadlock-monitor polls, route flaps, campaign guards,
// stats samplers) live on the *control* simulator — the one the Scenario
// owns. The engine installs itself as that simulator's run delegate, so
// run_until() on it drives the whole sharded run; at each control
// timestamp Tc the engine finishes all device events with time <= Tc,
// drains the control events at Tc on the coordinator thread (devices
// frozen at the barrier — control code may call into them synchronously),
// and repeats the device pass for any same-time events control injected.
//
// Synchronization is two std::barriers per device pass and nothing else:
// everything a worker reads was written before the start barrier, and
// everything the coordinator reads was written before the end barrier. No
// locks, no atomics on the event path — ThreadSanitizer-clean by
// construction (see DESIGN.md "Sharded simulation architecture").
//
// A single shard runs inline: its device pass executes on the coordinator
// with no worker thread, no barrier and no deferral (hooks fire directly;
// a lone shard fires in key order, the order the merge would replay them
// in), so --shards 1 produces the same bytes as every other shard count
// without paying for threads.
#pragma once

#include <barrier>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "dcdl/common/inplace_fn.hpp"
#include "dcdl/common/units.hpp"
#include "dcdl/sim/simulator.hpp"

namespace dcdl {

/// Declares, for the current thread, that Networks constructed while this
/// object is alive should run on a sharded engine with (up to) `shards`
/// shards. Scenario factories don't take engine parameters; this is how
/// callers (CLI --shards, campaign executor, tests) opt a construction in.
/// shards <= 0 (or no request) keeps the legacy scheduling-order engine;
/// 1 is the keyed engine with its one shard run inline on the caller's
/// thread.
class ScopedShardRequest {
 public:
  explicit ScopedShardRequest(int shards);
  ~ScopedShardRequest();
  ScopedShardRequest(const ScopedShardRequest&) = delete;
  ScopedShardRequest& operator=(const ScopedShardRequest&) = delete;

  /// The innermost active request on this thread (0 = none/legacy).
  static int active();

 private:
  int prev_;
};

class ShardedEngine final : public Simulator::RunDelegate {
 public:
  /// Inline capture budget of a deferred observation: the largest hook
  /// closure holds the slot pointer, a Time, a 48-byte Packet and two ids.
  static constexpr std::size_t kDeferredBytes = 72;

  struct ShardStats {
    std::uint64_t executed = 0;      ///< events fired on this shard
    std::uint64_t idle_windows = 0;  ///< device passes with zero events
  };
  struct Stats {
    std::uint64_t windows = 0;        ///< conservative windows completed
    std::uint64_t device_passes = 0;  ///< barrier round-trips
    std::uint64_t control_phases = 0;
    std::uint64_t cross_shard_events = 0;  ///< mailbox deliveries
    std::vector<ShardStats> shard;
  };

  /// `control` is the scenario-owned simulator; the engine installs itself
  /// as its run delegate and removes itself on destruction. `lookahead`
  /// must be > 0 when num_shards > 1.
  ShardedEngine(Simulator& control, int num_shards, Time lookahead);
  ~ShardedEngine() override;
  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  int num_shards() const { return static_cast<int>(shards_.size()); }
  Time lookahead() const { return lookahead_; }
  Simulator& shard_sim(std::uint32_t shard) { return *shards_[shard]; }
  Simulator& control_sim() { return *ctl_; }

  /// Schedules a keyed event on `dst_shard`'s simulator. From that shard's
  /// own worker (or from the coordinator, where all shards are quiescent)
  /// this is a direct schedule; from another shard's worker it is appended
  /// to the mailbox and delivered at the next window barrier. `at` must lie
  /// beyond the current window for cross-shard posts — guaranteed by the
  /// lookahead contract, asserted at drain time.
  void post(std::uint32_t dst_shard, Time at, std::uint64_t chan,
            std::uint64_t seq, EventFn&& fn);

  /// Worker-side: defers `fire` (a closure over one observation) on
  /// `shard`, keyed by the event that shard is executing; the coordinator
  /// fires it in merged (at, chan, seq, intra) order at the next window
  /// barrier.
  template <typename F>
  void defer(std::uint32_t shard, Time at, F&& fire) {
    Simulator& sm = *shards_[shard];
    deferred_[shard].push_back(Deferred{at, sm.current_chan(),
                                        sm.current_seq(), sm.next_intra(),
                                        std::forward<F>(fire)});
  }

  /// Invoked at the start of every run_until (coordinator thread, workers
  /// idle) — the Network re-arms its per-shard deferring hooks to match the
  /// hooks currently attached.
  void set_on_run_start(std::function<void()> fn) {
    on_run_start_ = std::move(fn);
  }
  /// Invoked once on each worker thread before its first window (sets up
  /// thread-local state such as the Network's trace redirection).
  void set_on_worker_start(std::function<void(std::uint32_t)> fn) {
    on_worker_start_ = std::move(fn);
  }

  /// Shard owned by the calling thread, or -1 off worker threads
  /// (coordinator, setup, control phases).
  static int current_worker_shard();

  /// Drives the whole run to `deadline` (all simulators end at deadline).
  /// Returns false if the control simulator's stop() fired.
  bool run_until(Time deadline);
  /// Runs until every simulator is idle. Like Simulator::run(), leaves the
  /// clocks wherever the last window put them.
  void run_all();

  const Stats& stats() const { return stats_; }

  // Simulator::RunDelegate
  bool delegate_run_until(Time deadline) override {
    return run_until(deadline);
  }
  void delegate_run() override { run_all(); }

 private:
  struct RemoteEvent {
    Time at;
    std::uint64_t chan;
    std::uint64_t seq;
    EventFn fn;
  };
  using DeferredFn = InplaceFn<void(), kDeferredBytes>;
  struct Deferred {
    Time at;
    std::uint64_t chan;
    std::uint64_t seq;
    std::uint32_t intra;
    DeferredFn fire;
  };

  void ensure_workers();
  void worker_main(std::uint32_t shard);
  /// One barrier round: every shard executes events with key <
  /// (limit_at, limit_chan), then the coordinator drains mailboxes and
  /// fires the merged deferred observations. A lone shard runs inline.
  void device_pass(Time limit_at, std::uint64_t limit_chan);
  /// Folds round_executed_ into the stats and the control simulator's
  /// executed count; returns the pass's event total.
  std::uint64_t account_pass();
  void drain_mailboxes();
  void fire_deferred();
  bool run_core(Time deadline);
  Time min_shard_event_time();

  Simulator* ctl_;
  Time lookahead_;
  std::vector<std::unique_ptr<Simulator>> shards_;
  /// mail_[src * K + dst]: single writer (src worker between barriers),
  /// single reader (coordinator at the barrier).
  std::vector<std::vector<RemoteEvent>> mail_;
  std::vector<std::vector<Deferred>> deferred_;
  std::vector<std::size_t> merge_cursor_;

  // Round publication: written by the coordinator before the start
  // barrier, read by workers after it (and vice versa for the results via
  // the end barrier). The barriers provide the happens-before edges.
  Time round_at_ = Time::zero();
  std::uint64_t round_chan_ = 0;
  bool quit_ = false;
  std::vector<std::uint64_t> round_executed_;

  std::optional<std::barrier<>> start_gate_;
  std::optional<std::barrier<>> end_gate_;
  std::vector<std::thread> workers_;
  bool workers_started_ = false;

  std::function<void()> on_run_start_;
  std::function<void(std::uint32_t)> on_worker_start_;

  Stats stats_;
};

}  // namespace dcdl
