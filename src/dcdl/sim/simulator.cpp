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
    chunks_ = std::move(arena_stash_->chunks);
    cap_ = arena_stash_->cap;
    slab_ = std::move(arena_stash_->slab);
    free_slots_ = std::move(arena_stash_->free_slots);
    delete arena_stash_;
    arena_stash_ = nullptr;
    for (std::size_t c = chunks_.size(); c-- > 0;) {
      chunks_[c].next = free_chunk_;
      free_chunk_ = static_cast<std::uint32_t>(c);
    }
  }
}

Simulator::~Simulator() {
  if (arena_scope_depth_ > 0 && arena_stash_ == nullptr) {
    // clear() destroys pending closures but keeps vector capacity — the
    // next Simulator on this thread starts with a warmed arena. The chunk
    // pool holds only POD entries and keeps its size; the adopter relinks
    // all of it as free.
    heap_.clear();
    slab_.clear();
    free_slots_.clear();
    arena_stash_ = new Arena{std::move(heap_), std::move(chunks_), cap_,
                             std::move(slab_), std::move(free_slots_)};
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
                              EventFn fn) {
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
  if (entries_ == cap_) grow_queue();
  if (++entries_ > heap_high_water_) heap_high_water_ = entries_;
  // The lane already keyed to this delay, else the first empty lane.
  const Time delay = e.at - now_;
  int i = -1;
  for (int k = 0; k < kLanes; ++k) {
    if (lanes_[k].delay == delay) {
      i = k;
      break;
    }
    if (i < 0 && lanes_[k].count == 0) i = k;
  }
  // Append only past the tail, so the lane stays sorted; an earlier key (a
  // same-time keyed event on a lower channel) takes the heap.
  if (i >= 0 &&
      (lanes_[i].count == 0 || EntryAfter{}(e, lane_tail(i)))) {
    lanes_[i].delay = delay;  // re-keys an empty lane
    append(i, e);
    return;
  }
  // Sized for every pending entry on its first use after each growth, so a
  // heap push never reallocates; runs whose delays all ride lanes (every
  // device workload measured) never allocate it.
  if (heap_.capacity() < cap_) heap_.reserve(cap_);
  heap_.push_back(e);
  std::push_heap(heap_.begin(), heap_.end(), EntryAfter{});
}

void Simulator::append(int i, const Entry& e) {
  Lane& lane = lanes_[i];
  if (lane.count == 0 || lane.tail == kChunk) {
    std::uint32_t c = free_chunk_;
    if (c != kNoChunk) {
      free_chunk_ = chunks_[c].next;
      chunks_[c].next = kNoChunk;
    } else {
      // Within the capacity grow_queue reserved: never reallocates.
      DCDL_ASSERT(chunks_.size() < chunks_.capacity());
      c = static_cast<std::uint32_t>(chunks_.size());
      chunks_.emplace_back();
    }
    if (lane.count == 0) {
      lane.head_chunk = c;
      lane.head = 0;
    } else {
      chunks_[lane.tail_chunk].next = c;
    }
    lane.tail_chunk = c;
    lane.tail = 0;
  }
  chunks_[lane.tail_chunk].e[lane.tail++] = e;
  ++lane.count;
  lane_mask_ |= 1u << i;
}

void Simulator::grow_queue() {
  cap_ = cap_ == 0 ? 16 : 2 * cap_;
  // A lane of n entries spans at most n / kChunk + 2 chunks. Chunks are
  // constructed on first use, so only the ones the lanes touch cost memory.
  chunks_.reserve(cap_ / kChunk + 2 * kLanes);
}

EventId Simulator::schedule_at(Time at, EventFn fn) {
  DCDL_EXPECTS(at >= now_);
  DCDL_EXPECTS(static_cast<bool>(fn));
  return push_entry(at, /*chan=*/0, next_seq_++, std::move(fn));
}

EventId Simulator::schedule_keyed(Time at, std::uint64_t chan,
                                  std::uint64_t seq, EventFn fn) {
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
      const Entry& front = lane_front(i);
      if (best == nullptr || EntryAfter{}(*best, front)) {
        best = &front;
        src = i;
      }
    }
    if (best == nullptr) return nullptr;
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
  Lane& lane = lanes_[src];
  ++lane.head;
  if (--lane.count == 0 || lane.head == kChunk) {
    // Return the drained chunk to the pool.
    const std::uint32_t c = lane.head_chunk;
    lane.head_chunk = chunks_[c].next;
    lane.head = 0;
    chunks_[c].next = free_chunk_;
    free_chunk_ = c;
    if (lane.count == 0) lane_mask_ &= ~(1u << src);
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
