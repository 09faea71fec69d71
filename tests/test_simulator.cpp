#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <compare>
#include <cstdint>
#include <map>
#include <optional>
#include <ostream>
#include <random>
#include <type_traits>
#include <vector>

#include "dcdl/sim/simulator.hpp"

namespace dcdl {
namespace {

using namespace dcdl::literals;

TEST(Simulator, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(30_ns, [&] { order.push_back(3); });
  sim.schedule_at(10_ns, [&] { order.push_back(1); });
  sim.schedule_at(20_ns, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30_ns);
  EXPECT_EQ(sim.events_executed(), 3u);
}

TEST(Simulator, TiesFireInSchedulingOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(5_ns, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Simulator, ScheduleInIsRelative) {
  Simulator sim;
  Time fired = Time::zero();
  sim.schedule_at(100_ns, [&] {
    sim.schedule_in(50_ns, [&] { fired = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(fired, 150_ns);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  int fired = 0;
  const EventId id = sim.schedule_at(10_ns, [&] { ++fired; });
  sim.schedule_at(5_ns, [&] { sim.cancel(id); });
  sim.run();
  EXPECT_EQ(fired, 0);
}

TEST(Simulator, CancelAfterFireIsHarmless) {
  Simulator sim;
  int fired = 0;
  const EventId id = sim.schedule_at(1_ns, [&] { ++fired; });
  sim.run();
  sim.cancel(id);  // no crash, no effect
  EXPECT_EQ(fired, 1);
}

TEST(Simulator, RunUntilAdvancesClockToDeadline) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(10_ns, [&] { ++fired; });
  sim.schedule_at(100_ns, [&] { ++fired; });
  EXPECT_TRUE(sim.run_until(50_ns));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 50_ns);
  // The later event still fires on the next run.
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, RunUntilExecutesEventExactlyAtDeadline) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(50_ns, [&] { ++fired; });
  sim.run_until(50_ns);
  EXPECT_EQ(fired, 1);
}

TEST(Simulator, StopHaltsRun) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(1_ns, [&] {
    ++fired;
    sim.stop();
  });
  sim.schedule_at(2_ns, [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 1);
  sim.run();  // resumes
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, EventsCanScheduleAtCurrentTime) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(10_ns, [&] {
    order.push_back(1);
    sim.schedule_in(Time::zero(), [&] { order.push_back(2); });
  });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Simulator, PendingEventsAccountsForCancellations) {
  Simulator sim;
  const EventId a = sim.schedule_at(1_ns, [] {});
  sim.schedule_at(2_ns, [] {});
  EXPECT_EQ(sim.pending_events(), 2u);
  sim.cancel(a);
  EXPECT_EQ(sim.pending_events(), 1u);
}

TEST(Simulator, CancelOfFiredEventLeavesNoResidue) {
  // Regression: cancelling an already-fired event used to insert its seq
  // into a tombstone set that nothing ever drained, so long-lived sims
  // (device timers follow exactly this schedule/fire/cancel pattern) grew
  // their bookkeeping without bound.
  Simulator sim;
  for (int i = 0; i < 1'000'000; ++i) {
    const EventId id = sim.schedule_in(1_ns, [] {});
    sim.run();
    sim.cancel(id);  // already fired: must be a true no-op
    if (sim.pending_events() != 0 || sim.heap_entries() != 0) {
      FAIL() << "residue after cycle " << i
             << ": pending=" << sim.pending_events()
             << " heap=" << sim.heap_entries();
    }
  }
  EXPECT_EQ(sim.events_executed(), 1'000'000u);
}

TEST(Simulator, CancelledHusksAreReclaimedOnPop) {
  // Cancel-before-fire leaves a husk in the heap; every husk must be
  // reclaimed as the clock passes it, so churn stays bounded too.
  Simulator sim;
  for (int i = 0; i < 100'000; ++i) {
    sim.schedule_in(1_ns, [] {});
    const EventId dropped = sim.schedule_in(2_ns, [] {});
    sim.cancel(dropped);
    sim.run();
    if (sim.pending_events() != 0 || sim.heap_entries() != 0) {
      FAIL() << "residue after cycle " << i
             << ": pending=" << sim.pending_events()
             << " heap=" << sim.heap_entries();
    }
  }
  EXPECT_EQ(sim.events_executed(), 100'000u);
}

TEST(Simulator, CancelAtCurrentTimeInsideRunUntil) {
  // The cancelled event sits exactly at now(); run_until must skip it and
  // reclaim the husk rather than execute it.
  Simulator sim;
  int fired = 0;
  EventId victim;
  sim.schedule_at(10_ns, [&] {
    victim = sim.schedule_in(Time::zero(), [&] { ++fired; });
    sim.cancel(victim);
  });
  sim.run_until(20_ns);
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(sim.heap_entries(), 0u);
}

TEST(Simulator, SelfCancelDuringFireIsNoOp) {
  // An event that cancels *itself* from inside its own callback. The slot
  // retires (generation bump + free-list push) before the callback runs, so
  // the cancel must be a guaranteed no-op — in particular it must not push
  // the slot onto the free list a second time, which would hand one slot to
  // two future events.
  Simulator sim;
  int fired = 0;
  int later = 0;
  EventId self;
  self = sim.schedule_at(10_ns, [&] {
    ++fired;
    sim.cancel(self);  // stale by construction: no-op
    // Likely recycles the very slot `self` pointed at (LIFO free list).
    sim.schedule_in(1_ns, [&] { ++later; });
    sim.cancel(self);  // still a no-op, even after the slot was reused
  });
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(later, 1);
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(sim.heap_entries(), 0u);
}

TEST(Simulator, StaleIdDoesNotCancelRecycledSlot) {
  // A handle kept across its event's firing goes stale; once the slot is
  // recycled for a new event, cancelling through the stale handle must not
  // touch the new occupant (the generation tag disambiguates).
  Simulator sim;
  int a = 0;
  int b = 0;
  const EventId first = sim.schedule_at(1_ns, [&] { ++a; });
  sim.run();  // fires; the slot returns to the free list
  const EventId second = sim.schedule_at(2_ns, [&] { ++b; });
  ASSERT_EQ(first.slot, second.slot) << "expected LIFO slot recycling";
  ASSERT_NE(first.gen, second.gen);
  sim.cancel(first);  // stale generation: must not cancel `second`
  sim.run();
  EXPECT_EQ(a, 1);
  EXPECT_EQ(b, 1);
}

TEST(Simulator, SlabStaysBoundedUnderSteadyChurn) {
  // Eight self-rescheduling timers firing a million times total: the slab
  // must stay at the in-flight high-water mark (eight), not grow with
  // lifetime churn — retired slots recycle through the free list.
  Simulator sim;
  struct Churn {
    Simulator& sim;
    std::uint64_t fired = 0;
    void tick() {
      if (++fired < 1'000'000) {
        sim.schedule_in(1_ns, [this] { tick(); });
      }
    }
  } churn{sim};
  for (int i = 0; i < 8; ++i) {
    sim.schedule_in(1_ns, [&churn] { churn.tick(); });
  }
  sim.run();
  EXPECT_GE(churn.fired, 1'000'000u);
  EXPECT_LE(sim.slab_slots(), 16u);
}

// ---------------------------------------------------------------------------
// Queue-order oracle. A seeded mix of schedules (repeated delays that ride
// the delay lanes, more distinct delays than there are lanes, zero delays
// that take the heap, same-time keyed bursts on falling or random channels
// that tie below a lane's tail — within one callback and across the
// callbacks of one timestamp),
// cancels (before firing, from other callbacks, stale, self-cancel) and
// run_until / run_keyed_window / next_event_time boundaries, checked against
// a reference that keeps every pending entry — cancelled husks included —
// sorted by (at, chan, seq). Every fire must be the reference's earliest
// live key, and heap_entries() must equal the reference's entry count: a
// husk is reclaimed exactly when it is the earliest entry at a pop.

class QueueOracle {
 public:
  explicit QueueOracle(std::uint64_t seed) : rng_(seed) {}

  void run() {
    for (int i = 0; i < 40; ++i) schedule_random();
    while (!broken_ && recs_.size() < kBudget) {
      const Time now = sim_.now();
      const Time span{static_cast<std::int64_t>(pick(3000)) * 1000};
      switch (pick(6)) {
        case 0:
        case 1: {
          const bool done = sim_.run_until(now + span);
          if (done) skim();  // run_until peeked past the deadline
          break;
        }
        case 2: {
          // Window limits that split same-time keyed bursts by channel.
          const std::uint64_t limit_chan =
              pick(4) == 0 ? Simulator::kAllChannels : 1 + pick(12);
          sim_.run_keyed_window(now + span, limit_chan);
          skim();
          break;
        }
        case 3: {
          const Time next = sim_.next_event_time();
          skim();
          EXPECT_EQ(next, earliest_live_at());
          break;
        }
        case 4:
          for (int i = 0, n = 1 + static_cast<int>(pick(4)); i < n; ++i) {
            schedule_random();  // between runs, from outside any callback
          }
          break;
        default:
          cancel_random();
          break;
      }
      check_entries();
      if (sim_.pending_events() == 0) schedule_random();
    }
    draining_ = true;
    sim_.run();
    skim();
    check_entries();
    EXPECT_EQ(sim_.pending_events(), 0u);
    EXPECT_EQ(sim_.heap_entries(), 0u);

    // The fire order is the reference sort of every uncancelled entry.
    std::vector<Key> expected;
    for (const Rec& r : recs_) {
      if (r.state != State::kCancelled) expected.push_back(r.key);
    }
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(fired_, expected);
    EXPECT_EQ(sim_.counters().heap_high_water, high_water_);
    EXPECT_EQ(sim_.counters().scheduled, recs_.size());
    EXPECT_EQ(sim_.counters().executed, fired_.size());
    EXPECT_EQ(sim_.counters().cancelled, cancelled_);
    EXPECT_GT(cancelled_, 0u);
    EXPECT_GT(fired_.size(), kBudget / 2);
  }

 private:
  static constexpr std::size_t kBudget = 30'000;

  struct Key {
    Time at;
    std::uint64_t chan;
    std::uint64_t seq;
    friend auto operator<=>(const Key&, const Key&) = default;
    friend std::ostream& operator<<(std::ostream& os, const Key& k) {
      return os << "(" << k.at.ps() << "," << k.chan << "," << k.seq << ")";
    }
  };
  enum class State { kPending, kFired, kCancelled };
  struct Rec {
    Key key;
    EventId id;
    State state;
  };

  std::uint64_t pick(std::uint64_t n) { return rng_() % n; }

  // Delays device events reuse (serialization, serialization plus
  // propagation, a refresh period) — and zero.
  Time repeated_delay() {
    static constexpr std::int64_t kNs[] = {0, 200, 1200, 5000};
    return Time{kNs[pick(4)] * 1000};
  }
  // Twelve further delays: more than the lanes can key at once.
  Time scattered_delay() {
    return Time{static_cast<std::int64_t>(300 + 37 * pick(12)) * 1000};
  }

  // New keys always sort after the last fired one (`last_`), so the whole
  // fire order is one ascending sort: a zero-delay event that would sort
  // before it moves one serialization time later, and a zero-delay keyed
  // burst uses channels above the last fired one.
  void schedule_random() {
    const Time now = sim_.now();
    const std::uint64_t kind = pick(10);
    if (kind < 4) {
      // Same-time keyed burst on falling (kinds 0, 1) or random channels:
      // entries after the first sort before the lane's tail, and bursts
      // scheduled by other events at the same instant tie with it again.
      const Time at = now + repeated_delay();
      const std::uint64_t base = at == last_.at ? last_.chan : 0;
      const std::uint64_t n = 2 + pick(4);
      for (std::uint64_t i = 0; i < n; ++i) {
        const std::uint64_t c = kind < 2 ? base + n - i : base + 1 + pick(32);
        add(Key{at, c, keyed_seq_++});
      }
      return;
    }
    Time at = now + (kind < 6 ? scattered_delay() : repeated_delay());
    if (at == last_.at && last_.chan != 0) at += Time{200'000};
    add(Key{at, 0, legacy_seq_++});
  }

  void add(const Key& k) {
    const std::size_t idx = recs_.size();
    auto fn = [this, idx] { on_fire(idx); };
    const EventId id = k.chan == 0
                           ? sim_.schedule_at(k.at, fn)
                           : sim_.schedule_keyed(k.at, k.chan, k.seq, fn);
    recs_.push_back(Rec{k, id, State::kPending});
    pending_.emplace(k, idx);
    high_water_ = std::max(high_water_, pending_.size());
  }

  void cancel_random() {
    if (recs_.empty()) return;
    Rec& r = recs_[pick(recs_.size())];
    sim_.cancel(r.id);  // a fired or cancelled record is a stale no-op
    if (r.state == State::kPending) {
      r.state = State::kCancelled;
      ++cancelled_;
    }
  }

  void on_fire(std::size_t idx) {
    if (broken_) return;
    Rec& r = recs_[idx];
    // Everything ordered before this key must be a husk.
    while (!pending_.empty() && pending_.begin()->first < r.key) {
      if (recs_[pending_.begin()->second].state != State::kCancelled) {
        ADD_FAILURE() << "fired " << r.key << " before live "
                      << pending_.begin()->first;
        broken_ = true;
        sim_.stop();
        return;
      }
      pending_.erase(pending_.begin());
    }
    if (r.state != State::kPending || pending_.empty() ||
        pending_.begin()->second != idx) {
      ADD_FAILURE() << "fired " << r.key << " out of reference order";
      broken_ = true;
      sim_.stop();
      return;
    }
    pending_.erase(pending_.begin());
    r.state = State::kFired;
    fired_.push_back(r.key);
    last_ = r.key;
    EXPECT_EQ(sim_.now(), r.key.at);
    EXPECT_EQ(sim_.current_chan(), r.key.chan);
    EXPECT_EQ(sim_.current_seq(), r.key.seq);
    check_entries();

    if (pick(20) == 0) sim_.cancel(r.id);  // self-cancel: stale no-op
    if (recs_.size() >= kBudget) return;
    const std::uint64_t live = sim_.pending_events();
    const int n = live < 20 ? 2 : static_cast<int>(pick(5) % 3);
    for (int i = 0; i < n; ++i) schedule_random();
    if (pick(5) == 0) cancel_random();
    if (!draining_ && pick(400) == 0) sim_.stop();
    check_entries();
  }

  /// The engine peeked: leading husks have been reclaimed.
  void skim() {
    while (!pending_.empty() &&
           recs_[pending_.begin()->second].state == State::kCancelled) {
      pending_.erase(pending_.begin());
    }
  }

  Time earliest_live_at() const {
    return pending_.empty() ? Time::max() : pending_.begin()->first.at;
  }

  void check_entries() {
    if (sim_.heap_entries() != pending_.size()) {
      ADD_FAILURE() << "heap_entries " << sim_.heap_entries()
                    << " != reference " << pending_.size();
      broken_ = true;
      sim_.stop();
    }
  }

  Simulator sim_;
  std::mt19937_64 rng_;
  std::vector<Rec> recs_;
  std::map<Key, std::size_t> pending_;  // unpopped entries, husks included
  std::vector<Key> fired_;
  Key last_{Time::zero(), 0, 0};  // the last fired key
  std::uint64_t legacy_seq_ = 1;  // mirrors the simulator's global sequence
  std::uint64_t keyed_seq_ = 1;
  std::uint64_t cancelled_ = 0;
  std::size_t high_water_ = 0;
  bool draining_ = false;
  bool broken_ = false;
};

TEST(SimulatorQueueOracle, FireOrderAndEntryCountsMatchReferenceSort) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE(seed);
    QueueOracle(seed).run();
  }
}

TEST(SimulatorDeath, RejectsSchedulingInThePast) {
  Simulator sim;
  sim.schedule_at(10_ns, [] {});
  sim.run();
  EXPECT_DEATH(sim.schedule_at(5_ns, [] {}), "precondition");
}

// --- EventFn lifetime ----------------------------------------------------
//
// Every closure must be destroyed exactly once however its event ends:
// fired, cancelled, cancelled from inside its own callback, or still
// pending when the Simulator is destroyed. Counted closures tally every
// construction (including each relocation's move) and every destruction;
// a double destroy drives `live()` negative, a leak leaves it positive.

struct Tally {
  int made = 0;
  int destroyed = 0;
  int calls = 0;
  int corrupt = 0;  // Plain payload words that arrived changed
  int min_live = 0;
  int live() const { return made - destroyed; }
};

/// Non-trivial closure of `Pad` payload bytes (beyond the budget: heap).
template <std::size_t Pad>
struct Counted {
  Tally* t;
  Simulator* sim = nullptr;
  const EventId* self = nullptr;  // cancelled from inside its callback
  std::array<unsigned char, Pad> pad{};

  explicit Counted(Tally* tally) : t(tally) { ++t->made; }
  Counted(const Counted& o) : t(o.t), sim(o.sim), self(o.self), pad(o.pad) {
    ++t->made;
  }
  Counted(Counted&& o) noexcept
      : t(o.t), sim(o.sim), self(o.self), pad(o.pad) {
    ++t->made;
  }
  Counted& operator=(const Counted&) = delete;
  ~Counted() {
    ++t->destroyed;
    t->min_live = std::min(t->min_live, t->live());
  }
  void operator()() {
    ++t->calls;
    if (self != nullptr) sim->cancel(*self);
  }
};

/// Trivially copyable closure filling the whole inline budget: it has no
/// destructor to count, so the test checks that its bytes survive every
/// relocation (slab growth, the move out of the slot at fire) intact. Each
/// closure's words derive from its own seed, so stale bytes left in a
/// recycled slot by an earlier closure do not pass for a correct copy.
struct Plain {
  Tally* t;
  Simulator* sim;
  const EventId* self;
  std::uint64_t words[5];
  void operator()() const {
    ++t->calls;
    for (std::uint64_t i = 1; i < 5; ++i) {
      if (words[i] != words[0] * 0x9E3779B97F4A7C15ULL * (i + 1)) {
        ++t->corrupt;
      }
    }
    if (self != nullptr) sim->cancel(*self);
  }
};
static_assert(std::is_trivially_copyable_v<Plain>);
static_assert(sizeof(Plain) == 64);
static_assert(!std::is_trivially_copyable_v<Counted<8>>);
static_assert(sizeof(Counted<8>) <= 64);
static_assert(sizeof(Counted<100>) > 64);  // InplaceFn's heap fallback

Plain make_plain(Tally* t, Simulator* sim, const EventId* self,
                 std::uint64_t seed) {
  Plain p{t, sim, self, {seed + 1}};
  for (std::uint64_t i = 1; i < 5; ++i) {
    p.words[i] = p.words[0] * 0x9E3779B97F4A7C15ULL * (i + 1);
  }
  return p;
}

template <typename Fn>
Fn make_closure(Tally* t, Simulator* sim, const EventId* self,
                std::uint64_t seed) {
  if constexpr (std::is_same_v<Fn, Plain>) {
    return make_plain(t, sim, self, seed);
  } else {
    Fn f(t);
    f.sim = sim;
    f.self = self;
    return f;
  }
}

template <typename Fn>
void check_event_fn_lifetimes() {
  constexpr bool kPlain = std::is_same_v<Fn, Plain>;
  // Enough events that the slab grows (relocating live closures) mid-way.
  constexpr int kBatch = 100;
  {  // fired
    Tally t;
    {
      Simulator sim;
      for (int i = 0; i < kBatch; ++i) {
        sim.schedule_at(Time{i + 1}, make_closure<Fn>(&t, nullptr, nullptr, i));
      }
      sim.run();
      EXPECT_EQ(t.calls, kBatch);
      if (!kPlain) EXPECT_EQ(t.live(), 0);
    }
    EXPECT_EQ(t.live(), 0);
    EXPECT_EQ(t.min_live, 0);
    EXPECT_EQ(t.corrupt, 0);
  }
  {  // cancelled before firing: destroyed at the cancel
    Tally t;
    {
      Simulator sim;
      std::vector<EventId> ids;
      for (int i = 0; i < kBatch; ++i) {
        ids.push_back(sim.schedule_at(
            Time{i + 1}, make_closure<Fn>(&t, nullptr, nullptr, i)));
      }
      for (const EventId id : ids) sim.cancel(id);
      if (!kPlain) EXPECT_EQ(t.live(), 0);
      for (const EventId id : ids) sim.cancel(id);  // stale: no-op
      sim.run();
      EXPECT_EQ(t.calls, 0);
    }
    EXPECT_EQ(t.live(), 0);
    EXPECT_EQ(t.min_live, 0);
    EXPECT_EQ(t.corrupt, 0);
  }
  {  // cancelled from inside its own callback
    Tally t;
    {
      Simulator sim;
      std::vector<EventId> ids(kBatch);
      for (int i = 0; i < kBatch; ++i) {
        ids[i] = sim.schedule_at(Time{i + 1},
                                 make_closure<Fn>(&t, &sim, &ids[i], i));
      }
      sim.run();
      EXPECT_EQ(t.calls, kBatch);
      if (!kPlain) EXPECT_EQ(t.live(), 0);
    }
    EXPECT_EQ(t.live(), 0);
    EXPECT_EQ(t.min_live, 0);
    EXPECT_EQ(t.corrupt, 0);
  }
  for (const bool recycle : {false, true}) {  // pending at destruction
    SCOPED_TRACE(recycle ? "arena recycling" : "plain destruction");
    Tally t;
    {
      std::optional<Simulator::ScopedArenaRecycling> scope;
      if (recycle) scope.emplace();
      {
        Simulator sim;
        for (int i = 0; i < kBatch; ++i) {
          sim.schedule_at(Time{i + 1},
                          make_closure<Fn>(&t, nullptr, nullptr, i));
        }
        sim.run_until(Time{kBatch / 2});
        EXPECT_EQ(t.calls, kBatch / 2);
        if (!kPlain) EXPECT_EQ(t.live(), kBatch - kBatch / 2);
      }
      EXPECT_EQ(t.live(), 0);
    }
    EXPECT_EQ(t.live(), 0);
    EXPECT_EQ(t.min_live, 0);
    EXPECT_EQ(t.corrupt, 0);
  }
}

TEST(EventFnLifetime, TriviallyCopyableClosureRelocatesByBytes) {
  check_event_fn_lifetimes<Plain>();
}

TEST(EventFnLifetime, NonTrivialClosureIsDestroyedExactlyOnce) {
  check_event_fn_lifetimes<Counted<8>>();
}

TEST(EventFnLifetime, OversizedClosureOnTheHeapIsDestroyedExactlyOnce) {
  check_event_fn_lifetimes<Counted<100>>();
}

TEST(EventFnLifetime, MoveAssignAndResetDestroyOnce) {
  Tally t;
  {
    EventFn a = Counted<8>(&t);
    EventFn b = Counted<100>(&t);
    EXPECT_EQ(t.live(), 2);
    a = std::move(b);  // destroys a's closure, takes b's heap cell
    EXPECT_EQ(t.live(), 1);
    EXPECT_FALSE(static_cast<bool>(b));
    a();
    EXPECT_EQ(t.calls, 1);
    a = nullptr;
    EXPECT_EQ(t.live(), 0);
    EventFn c = make_plain(&t, nullptr, nullptr, 7);
    EventFn d = std::move(c);
    d();
    EXPECT_EQ(t.calls, 2);
    EXPECT_EQ(t.corrupt, 0);
  }
  EXPECT_EQ(t.live(), 0);
  EXPECT_EQ(t.min_live, 0);
}

}  // namespace
}  // namespace dcdl
