#include "dcdl/sim/simulator.hpp"

#include <algorithm>
#include <bit>

#include "dcdl/common/contract.hpp"
#include "dcdl/probe/profiler.hpp"

namespace dcdl {

thread_local int Simulator::arena_scope_depth_ = 0;
thread_local Simulator::Arena* Simulator::arena_stash_ = nullptr;

Simulator::Simulator() {
  if (arena_scope_depth_ > 0 && arena_stash_ != nullptr) {
    heap_ = std::move(arena_stash_->heap);
    for (int i = 0; i < kLanes; ++i) {
      lanes_[i].buf = std::move(arena_stash_->lanes[i]);
    }
    sort_keys_ = std::move(arena_stash_->sort_keys);
    sort_tmp_ = std::move(arena_stash_->sort_tmp);
    slab_ = std::move(arena_stash_->slab);
    free_slots_ = std::move(arena_stash_->free_slots);
    delete arena_stash_;
    arena_stash_ = nullptr;
  }
  // Every lane gets its first buffer up front: a lane first keyed late in
  // a run would otherwise allocate then.
  for (Lane& l : lanes_) {
    if (l.buf.empty()) l.buf.resize(kLaneMin);
  }
}

Simulator::~Simulator() {
  if (arena_scope_depth_ > 0 && arena_stash_ == nullptr) {
    // clear() destroys pending closures but keeps vector capacity — the
    // next Simulator on this thread starts with a warmed arena. The lane
    // buffers hold only POD entries and keep their size.
    heap_.clear();
    slab_.clear();
    free_slots_.clear();
    arena_stash_ = new Arena{std::move(heap_),      {},
                             std::move(sort_keys_), std::move(sort_tmp_),
                             std::move(slab_),      std::move(free_slots_)};
    for (int i = 0; i < kLanes; ++i) {
      arena_stash_->lanes[i] = std::move(lanes_[i].buf);
    }
  }
}

Simulator::ScopedArenaRecycling::ScopedArenaRecycling() {
  ++arena_scope_depth_;
}

Simulator::ScopedArenaRecycling::~ScopedArenaRecycling() {
  if (--arena_scope_depth_ == 0) {
    delete arena_stash_;
    arena_stash_ = nullptr;
  }
}

EventId Simulator::push_entry(Time at, std::uint64_t chan, std::uint64_t seq,
                              EventFn&& fn) {
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slab_.size());
    slab_.emplace_back();
    ++slab_grows_;
  }
  Slot& s = slab_[slot];
  s.fn = std::move(fn);
  s.live = true;
  ++live_;
  ++scheduled_;
  enqueue(Entry{at, chan, seq, slot, s.gen});
  return EventId{slot, s.gen};
}

void Simulator::enqueue(const Entry& e) {
  if (++entries_ > heap_high_water_) heap_high_water_ = entries_;
  // The lane already keyed to this delay, else the first empty lane. A
  // zero delay takes the heap: its entry may sort before the front of a
  // run that is being popped right now.
  const Time delay = e.at - now_;
  if (delay > Time::zero()) {
    int i = -1;
    for (int k = 0; k < kLanes; ++k) {
      if (lanes_[k].delay == delay) {
        i = k;
        break;
      }
      if (i < 0 && (lane_mask_ & (1u << k)) == 0) i = k;
    }
    if (i >= 0) {
      append(i, delay, e);
      return;
    }
  }
  heap_.push_back(e);
  std::push_heap(heap_.begin(), heap_.end(), EntryAfter{});
}

void Simulator::append(int i, Time delay, const Entry& e) {
  Lane& l = lanes_[i];
  if ((lane_mask_ & (1u << i)) == 0) {
    l.delay = delay;  // re-keys an empty lane
    lane_mask_ |= 1u << i;
  } else {
    const Entry& last = l.buf[l.tail - 1];
    if (e.at != last.at) {
      // A later timestamp closes the open run: no entry can join it now.
      if (l.unsorted) sort_run(l);
      l.run = l.tail;
    } else if (tie_before(e, last)) {
      if (!l.unsorted) {
        l.unsorted = true;
        l.run_min = l.buf[std::max(l.head, l.run)];
      }
      if (tie_before(e, l.run_min)) l.run_min = e;
    }
  }
  if (l.tail == l.buf.size()) make_room(l);
  l.buf[l.tail++] = e;
}

void Simulator::make_room(Lane& l) {
  const std::uint32_t n = l.tail - l.head;
  if (2 * n > l.buf.size()) l.buf.resize(2 * l.buf.size());
  std::copy(l.buf.begin() + l.head, l.buf.begin() + l.tail, l.buf.begin());
  l.run = l.run > l.head ? l.run - l.head : 0;
  l.head = 0;
  l.tail = n;
}

void Simulator::sort_run(Lane& l) {
  l.unsorted = false;
  Entry* const first = l.buf.data() + std::max(l.head, l.run);
  const std::size_t n = static_cast<std::size_t>(l.buf.data() + l.tail - first);
  // Fast path: sort 8-byte (chan, position) keys and gather the entries.
  // Position order stands in for seq order because each channel's events
  // reach a lane in rising seq (every channel has one scheduling writer);
  // the gather checks that and falls back to the full sort if it fails.
  constexpr int kPosBits = 20;
  constexpr std::uint64_t kPosMask = (std::uint64_t{1} << kPosBits) - 1;
  bool keyed = n <= kPosMask;
  if (keyed) {
    if (sort_keys_.size() < n) {
      sort_keys_.resize(n);
      sort_tmp_.resize(n);
    }
    for (std::size_t i = 0; i < n && keyed; ++i) {
      keyed = first[i].chan >> (64 - kPosBits) == 0;
      sort_keys_[i] = first[i].chan << kPosBits | i;
    }
  }
  if (keyed) {
    std::sort(sort_keys_.begin(), sort_keys_.begin() + n);
    for (std::size_t i = 0; i < n && keyed; ++i) {
      sort_tmp_[i] = first[sort_keys_[i] & kPosMask];
      keyed = i == 0 || tie_before(sort_tmp_[i - 1], sort_tmp_[i]);
    }
  }
  if (keyed) {
    std::copy(sort_tmp_.begin(), sort_tmp_.begin() + n, first);
    return;
  }
  std::sort(first, first + n,
            [](const Entry& a, const Entry& b) { return tie_before(a, b); });
}

EventId Simulator::schedule_at(Time at, EventFn&& fn) {
  DCDL_EXPECTS(at >= now_);
  DCDL_EXPECTS(static_cast<bool>(fn));
  return push_entry(at, /*chan=*/0, next_seq_++, std::move(fn));
}

EventId Simulator::schedule_keyed(Time at, std::uint64_t chan,
                                  std::uint64_t seq, EventFn&& fn) {
  DCDL_EXPECTS(at >= now_);
  DCDL_EXPECTS(chan != 0 && chan != kAllChannels);
  DCDL_EXPECTS(static_cast<bool>(fn));
  return push_entry(at, chan, seq, std::move(fn));
}

void Simulator::cancel(EventId id) {
  if (!id.valid() || id.slot >= slab_.size()) return;
  Slot& s = slab_[id.slot];
  if (s.gen != id.gen || !s.live) return;  // fired/cancelled/recycled: no-op
  s.fn.reset();
  s.live = false;
  ++s.gen;  // invalidates the heap husk and any other stale handle
  free_slots_.push_back(id.slot);
  --live_;
  ++cancelled_;
}

const Simulator::Entry* Simulator::peek(int& src) {
  for (;;) {
    const Entry* best = heap_.empty() ? nullptr : &heap_.front();
    src = kHeap;
    for (std::uint32_t m = lane_mask_; m != 0; m &= m - 1) {
      const int i = std::countr_zero(m);
      const Entry& front = lane_min(lanes_[i]);
      if (best == nullptr || EntryAfter{}(*best, front)) {
        best = &front;
        src = i;
      }
    }
    if (best == nullptr) return nullptr;
    if (src != kHeap) {
      Lane& l = lanes_[src];
      if (l.unsorted && l.head >= l.run) sort_run(l);  // brings run_min up
      best = &l.buf[l.head];
    }
    const Slot& s = slab_[best->slot];
    if (s.live && s.gen == best->gen) return best;
    pop(src);  // cancelled husk: reclaim
  }
}

void Simulator::pop(int src) {
  --entries_;
  if (src == kHeap) {
    std::pop_heap(heap_.begin(), heap_.end(), EntryAfter{});
    heap_.pop_back();
    return;
  }
  Lane& l = lanes_[src];
  if (++l.head == l.tail) {
    l.head = l.tail = l.run = 0;
    lane_mask_ &= ~(1u << src);
  }
}

void Simulator::fire(const Entry* front, int src) {
  const Entry top = *front;
  pop(src);
  Slot& s = slab_[top.slot];
  DCDL_ASSERT(top.at >= now_);
  // Retire the slot *before* firing: a cancel() of this event from inside
  // its own callback sees a bumped generation and is a no-op, and the
  // callback may immediately reschedule into the recycled slot.
  EventFn fn = std::move(s.fn);
  s.live = false;
  ++s.gen;
  free_slots_.push_back(top.slot);
  --live_;
  now_ = top.at;
  cur_chan_ = top.chan;
  cur_seq_ = top.seq;
  intra_ = 0;
  ++executed_;
  fn();
}

void Simulator::run() {
  if (delegate_ != nullptr) {
    delegate_->delegate_run();
    return;
  }
  stopped_ = false;
  // One span per drain, not per event: the profiler's contract is no
  // per-event clock reads (see probe/profiler.hpp). The executed delta
  // rides along so ns/event is still derivable.
  probe::Profiler::Scope span(probe::Profiler::Span::kEventLoop);
  const std::uint64_t before = executed_;
  int src;
  while (!stopped_) {
    const Entry* top = peek(src);
    if (top == nullptr) break;
    fire(top, src);
  }
  span.add_units(executed_ - before);
}

bool Simulator::run_until(Time deadline) {
  DCDL_EXPECTS(deadline >= now_);
  if (delegate_ != nullptr) return delegate_->delegate_run_until(deadline);
  stopped_ = false;
  probe::Profiler::Scope span(probe::Profiler::Span::kEventLoop);
  const std::uint64_t before = executed_;
  int src;
  while (!stopped_) {
    // Peek past cancelled husks without executing live entries beyond the
    // deadline.
    const Entry* top = peek(src);
    if (top == nullptr || top->at > deadline) break;
    fire(top, src);
  }
  span.add_units(executed_ - before);
  if (!stopped_) {
    now_ = deadline;
    return true;
  }
  return false;
}

std::uint64_t Simulator::run_keyed_window(Time limit_at,
                                          std::uint64_t limit_chan) {
  std::uint64_t executed = 0;
  int src;
  for (;;) {
    const Entry* top = peek(src);
    if (top == nullptr || top->at > limit_at ||
        (top->at == limit_at && top->chan >= limit_chan)) {
      break;
    }
    fire(top, src);
    ++executed;
  }
  advance_to(limit_at);
  return executed;
}

bool Simulator::drain_through(Time deadline) {
  int src;
  while (!stopped_) {
    const Entry* top = peek(src);
    if (top == nullptr || top->at > deadline) break;
    fire(top, src);
  }
  if (!stopped_) {
    advance_to(deadline);
    return true;
  }
  return false;
}

Time Simulator::next_event_time() {
  int src;
  const Entry* top = peek(src);
  return top == nullptr ? Time::max() : top->at;
}

}  // namespace dcdl
