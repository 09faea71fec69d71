// Single-threaded discrete-event simulation engine.
//
// Ordering: every event carries a (time, channel, sequence) key and events
// fire in key order, so a scenario with a fixed RNG seed replays
// identically. schedule_keyed() takes an explicit key; the device layer
// assigns channel/sequence pairs from topology-derived identities (wire,
// per-node timer, out-of-band path), so the device event order is a pure
// function of the scenario, independent of how many shard simulators the
// run is split across (see sim/sharded.hpp). schedule_at() uses channel 0
// with a per-simulator scheduling sequence, so its events at one timestamp
// fire in scheduling order (control events such as monitors, samplers and
// route flaps, and every device event of the legacy unsharded engine). The
// golden-trace tests pin the legacy order across engine refactors.
//
// Event queue: a binary min-heap on (time, chan, seq) fronted by up to
// kLanes delay lanes. Device events reuse a handful of delays
// (serialization, serialization plus propagation, pause refresh, monitor
// and probe periods), so each lane holds the pending entries scheduled
// with one non-zero delay (at - now); zero-delay entries, and delays no
// lane is keyed to while none is empty, take the heap. Because the clock
// never runs backwards, a lane's entries arrive in non-decreasing time:
// the only disorder is a same-time tie, where a keyed event on a lower
// channel is scheduled after one on a higher channel (lockstep fabrics
// with identical links produce many). Each lane therefore keeps its
// entries in time order and tracks its *open run*, the entries that share
// the tail's timestamp. A tie below the tail marks the run unsorted and
// updates the run's least entry; the run is sorted once, in place by
// (chan, seq), when a later timestamp closes it or when a pop needs its
// least entry, whichever comes first. A tie-free lane is a plain FIFO
// append. A pop takes the least of the heap top and the lane fronts: the
// same global key order a single heap yields. Because the keys are unique,
// the fire order, the moment each cancelled husk is reclaimed (when it is
// the global minimum), slot recycling and every counter are exactly those
// of the plain heap; heap_entries() and counters().heap_high_water count
// all pending entries, lanes included.
//
// Hot-path memory architecture (see DESIGN.md): callbacks live in a
// generation-tagged slab of fixed-size records recycled through a free
// list, the heap and the lanes hold only POD (time, chan, seq, slot, gen)
// entries, and closures are stored inline via InplaceFn — steady-state
// scheduling, firing, and cancelling perform zero heap allocation and zero
// hashing. Each lane is one contiguous buffer that slides its entries back
// to the start when its tail reaches the end, and doubles only when it is
// more than half full — so storage grows only when the heap or a lane
// reaches a new high-water mark, and ScopedArenaRecycling recycles all of
// it.
#pragma once

#include <cstdint>
#include <vector>

#include "dcdl/common/inplace_fn.hpp"
#include "dcdl/common/units.hpp"

namespace dcdl {

/// Event callbacks are stored inline in the event slab. 64 bytes covers
/// every closure the device layer schedules (the largest captures a Packet
/// by value plus a device pointer); larger captures still work via
/// InplaceFn's heap fallback but are not allocation-free.
using EventFn = InplaceFn<void(), 64>;

/// Opaque handle for cancelling a scheduled event. {slot, generation} into
/// the event slab: a stale handle (fired, cancelled, or recycled slot)
/// carries an old generation and is rejected by an O(1) array check.
struct EventId {
  std::uint32_t slot = 0xFFFFFFFFu;
  std::uint32_t gen = 0;
  bool valid() const { return slot != 0xFFFFFFFFu; }
};

class Simulator {
 public:
  /// Channel limit meaning "every channel at this timestamp" for
  /// run_keyed_window (no real channel ever uses this value).
  static constexpr std::uint64_t kAllChannels = ~std::uint64_t{0};

  /// A run driver substituted for the local event loop: when set, run() /
  /// run_until() on this simulator delegate to the coordinator (the sharded
  /// engine), so code holding a Simulator& — scenario helpers, the deadlock
  /// monitor's stop-and-drain — transparently drives the whole sharded run.
  class RunDelegate {
   public:
    virtual ~RunDelegate() = default;
    virtual bool delegate_run_until(Time deadline) = 0;
    virtual void delegate_run() = 0;
  };

  Simulator();
  ~Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  Time now() const { return now_; }

  /// Schedules `fn` to run at absolute time `at` (must be >= now()).
  /// Closures are taken by rvalue reference at every layer and moved once,
  /// into their slab slot.
  EventId schedule_at(Time at, EventFn&& fn);

  /// Schedules `fn` to run `delay` after now().
  EventId schedule_in(Time delay, EventFn&& fn) {
    return schedule_at(now_ + delay, std::move(fn));
  }

  /// Schedules `fn` under an explicit ordering key (at, chan, seq). Keys
  /// must be unique per simulator; `chan` must be non-zero (channel 0 is
  /// the legacy global-sequence channel). Events fire in key order.
  EventId schedule_keyed(Time at, std::uint64_t chan, std::uint64_t seq,
                         EventFn&& fn);

  /// Cancels a pending event. Cancelling an already-fired or already
  /// cancelled event is a harmless no-op and never accumulates state: the
  /// slot's generation tag was bumped when it retired, so a stale id fails
  /// the O(1) generation check. This also makes cancelling an event from
  /// inside its own callback a guaranteed no-op (the slot retires *before*
  /// the callback runs).
  void cancel(EventId id);

  /// Runs until the event queue is empty or stop() is called.
  void run();

  /// Runs events with timestamp <= deadline; afterwards now() == deadline
  /// (unless stop() fired earlier). Returns false if stopped early.
  bool run_until(Time deadline);

  /// Stops the current run() / run_until() after the current event returns.
  void stop() { stopped_ = true; }

  // --- sharded-engine interface (see sim/sharded.hpp) -------------------
  // These never allocate and are harmless on a legacy simulator; they are
  // grouped so the coordination protocol reads in one place.

  /// Executes every event with key < (limit_at, limit_chan); afterwards
  /// now() == max(now, limit_at). Returns the number of events executed.
  /// This is one shard's share of a conservative time window: the limit is
  /// the window boundary the coordinator proved safe.
  std::uint64_t run_keyed_window(Time limit_at, std::uint64_t limit_chan);

  /// Like run_until, but never routes through the run delegate and does not
  /// clear a pending stop() — the engine's internal control-phase drain.
  bool drain_through(Time deadline);

  /// Timestamp of the earliest live event, or Time::max() when idle.
  Time next_event_time();

  /// Fast-forwards the clock without executing anything (t < now is a
  /// no-op). Used to align shard clocks at window barriers so control-phase
  /// observations carry shard-count-invariant timestamps.
  void advance_to(Time t) {
    if (t > now_) now_ = t;
  }

  void set_run_delegate(RunDelegate* d) { delegate_ = d; }
  bool stop_requested() const { return stopped_; }
  void clear_stop() { stopped_ = false; }

  /// Folds events executed elsewhere (on shard simulators) into this
  /// simulator's executed count, so events_executed() on the control
  /// simulator reports the whole run — identically for every shard count.
  void credit_external_events(std::uint64_t n) { executed_ += n; }

  /// Ordering key of the event currently executing (valid inside a
  /// callback). Used to tag buffered trace records for the global merge.
  std::uint64_t current_chan() const { return cur_chan_; }
  std::uint64_t current_seq() const { return cur_seq_; }
  /// Per-event intra counter: 0, 1, 2, ... for successive calls during one
  /// callback — orders multiple trace records emitted by a single event.
  std::uint32_t next_intra() { return intra_++; }
  // ----------------------------------------------------------------------

  std::uint64_t events_executed() const { return executed_; }
  std::size_t pending_events() const { return live_; }

  /// Lifetime counters of the engine's hot path, exposed for the telemetry
  /// layer and bench_perf. All are monotonic except `pending`; none cost
  /// more than an integer bump per schedule/cancel to maintain.
  struct Counters {
    std::uint64_t scheduled = 0;  ///< schedule_at/schedule_keyed calls
    std::uint64_t executed = 0;   ///< callbacks fired
    std::uint64_t cancelled = 0;  ///< effective cancels (stale ids excluded)
    /// Times the event slab grew by a slot because the free list was empty —
    /// each is one real heap allocation; zero in a recycled-arena steady
    /// state.
    std::uint64_t slab_grows = 0;
    std::size_t slab_slots = 0;       ///< slab high-water (slabs never shrink)
    /// Max queue entries ever pending (heap plus lanes, husks included).
    std::size_t heap_high_water = 0;
    std::size_t pending = 0;          ///< live events right now
  };
  Counters counters() const {
    return Counters{scheduled_,   executed_,        cancelled_, slab_grows_,
                    slab_.size(), heap_high_water_, live_};
  }

  /// Diagnostic: queue entries (heap plus lanes) including cancelled husks
  /// awaiting their pop. Bounded by the number of still-scheduled
  /// timestamps; the regression test for the cancel-tombstone leak asserts
  /// on this.
  std::size_t heap_entries() const { return entries_; }

  /// Diagnostic: slab slots currently allocated (live + free-listed).
  std::size_t slab_slots() const { return slab_.size(); }

  /// While an object of this type is alive on a thread, Simulators
  /// destroyed on that thread donate their slab/heap storage to a
  /// thread-local stash and newly constructed ones adopt it — so a worker
  /// that runs many simulations back-to-back (the campaign executor) pays
  /// the arena growth once instead of once per run. Scopes nest; the stash
  /// is freed when the outermost scope exits. No effect on behaviour, only
  /// on allocation traffic.
  class ScopedArenaRecycling {
   public:
    ScopedArenaRecycling();
    ~ScopedArenaRecycling();
    ScopedArenaRecycling(const ScopedArenaRecycling&) = delete;
    ScopedArenaRecycling& operator=(const ScopedArenaRecycling&) = delete;
  };

 private:
  /// Queue entries are POD: sift operations move 32 bytes, never a closure.
  struct Entry {
    Time at;
    std::uint64_t chan;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t gen;
  };

  /// "a fires after b" — used as the comparator of a std::push_heap /
  /// std::pop_heap min-heap on (at, chan, seq).
  struct EntryAfter {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.at != b.at) return a.at > b.at;
      if (a.chan != b.chan) return a.chan > b.chan;
      return a.seq > b.seq;
    }
  };
  /// (chan, seq) order of two entries at the same timestamp.
  static bool tie_before(const Entry& a, const Entry& b) {
    return a.chan != b.chan ? a.chan < b.chan : a.seq < b.seq;
  }

  struct Slot {
    EventFn fn;
    std::uint32_t gen = 0;
    bool live = false;
  };

  /// The pending entries scheduled `delay` after the clock of their
  /// scheduling, in time order: buf[head, tail). The open run
  /// buf[run, tail) holds the entries at the tail's timestamp; while
  /// `unsorted`, a tie arrived below the tail and `run_min` is the run's
  /// least entry (everything before the run is sorted).
  struct Lane {
    Time delay{-1};  // no scheduling delay is negative: never matches
    std::vector<Entry> buf;
    std::uint32_t head = 0;
    std::uint32_t tail = 0;
    std::uint32_t run = 0;
    bool unsorted = false;
    Entry run_min{};
  };
  static constexpr int kLanes = 8;
  static constexpr std::size_t kLaneMin = 16;  // a lane's first buffer
  static constexpr int kHeap = kLanes;  // source index of the heap top

  /// Recyclable storage (see ScopedArenaRecycling).
  struct Arena {
    std::vector<Entry> heap;
    std::vector<Entry> lanes[kLanes];
    std::vector<std::uint64_t> sort_keys;
    std::vector<Entry> sort_tmp;
    std::vector<Slot> slab;
    std::vector<std::uint32_t> free_slots;
  };

  EventId push_entry(Time at, std::uint64_t chan, std::uint64_t seq,
                     EventFn&& fn);
  void enqueue(const Entry& e);
  void append(int lane, Time delay, const Entry& e);
  /// Slides lane `l`'s entries to the start of its buffer, doubling the
  /// buffer first when they fill more than half of it.
  static void make_room(Lane& l);
  /// Sorts what is left of lane `l`'s open run by (chan, seq).
  void sort_run(Lane& l);
  /// The least entry of a lane: its front, or the unsorted run's least
  /// entry when the front lies in that run.
  static const Entry& lane_min(const Lane& l) {
    return l.unsorted && l.head >= l.run ? l.run_min : l.buf[l.head];
  }
  /// The earliest live entry, found by one scan of the heap top and the
  /// lane fronts; cancelled husks met at the front are popped on the way.
  /// Sets `src` to its source (a lane index or kHeap); nullptr when empty.
  const Entry* peek(int& src);
  void pop(int src);
  /// Pops the entry `front` that peek() found at `src` and runs it.
  void fire(const Entry* front, int src);

  static thread_local int arena_scope_depth_;
  static thread_local Arena* arena_stash_;

  Time now_ = Time::zero();
  std::uint64_t next_seq_ = 1;
  std::uint64_t scheduled_ = 0;
  std::uint64_t executed_ = 0;
  std::uint64_t cancelled_ = 0;
  std::uint64_t slab_grows_ = 0;
  std::size_t heap_high_water_ = 0;
  std::size_t live_ = 0;
  bool stopped_ = false;
  std::uint64_t cur_chan_ = 0;
  std::uint64_t cur_seq_ = 0;
  std::uint32_t intra_ = 0;
  RunDelegate* delegate_ = nullptr;
  std::vector<Entry> heap_;
  Lane lanes_[kLanes];
  std::uint32_t lane_mask_ = 0;  // bit i set iff lane i is non-empty
  std::size_t entries_ = 0;      // heap plus lane entries, husks included
  // sort_run's scratch, sized to the longest run sorted so far.
  std::vector<std::uint64_t> sort_keys_;
  std::vector<Entry> sort_tmp_;
  std::vector<Slot> slab_;
  std::vector<std::uint32_t> free_slots_;
};

}  // namespace dcdl
