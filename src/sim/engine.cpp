#include "sim/engine.h"

#include <algorithm>

#include "common/error.h"

namespace homp::sim {

std::uint64_t Engine::schedule_at(Time t, Callback fn, GenTag tag) {
  HOMP_ASSERT(t >= now_);
  HOMP_ASSERT(fn);
  std::uint32_t s = free_head_;
  if (s != kNone) {
    free_head_ = slots_[s].next;
  } else {
    HOMP_ASSERT(slots_.size() < kNone);
    s = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& slot = slots_[s];
  slot.fn = std::move(fn);
  slot.seq = next_seq_++;
  slot.tag = tag;
  slot.prev = kNone;
  slot.next = kNone;
  if (tag != 0) {
    GenList& gen = gens_[tag];
    slot.next = gen.head;
    if (gen.head != kNone) slots_[gen.head].prev = s;
    gen.head = s;
    ++gen.size;
  }
  heap_.push_back(Key{t, slot.seq, s});
  std::push_heap(heap_.begin(), heap_.end(), later);
  ++live_;
  return (std::uint64_t{slot.stamp} << 32) | s;
}

Callback Engine::release(std::uint32_t s) {
  Slot& slot = slots_[s];
  if (slot.tag != 0) {
    const auto it = gens_.find(slot.tag);
    GenList& gen = it->second;
    if (slot.prev != kNone) {
      slots_[slot.prev].next = slot.next;
    } else {
      gen.head = slot.next;
    }
    if (slot.next != kNone) slots_[slot.next].prev = slot.prev;
    if (--gen.size == 0) gens_.erase(it);
    slot.tag = 0;
  }
  Callback fn = std::move(slot.fn);
  slot.prev = kNone;
  slot.next = free_head_;
  free_head_ = s;
  if (++slot.stamp == 0) slot.stamp = 1;
  --live_;
  return fn;
}

bool Engine::cancel(std::uint64_t handle) {
  const auto s = static_cast<std::uint32_t>(handle);
  if (s >= slots_.size()) return false;
  const Slot& slot = slots_[s];
  if (!slot.fn || slot.stamp != handle >> 32) return false;
  release(s);  // the callback dies here; its heap key is now stale
  return true;
}

std::size_t Engine::cancel_generation(GenTag tag) {
  if (tag == 0) return 0;
  std::size_t n = 0;
  // Look the generation up afresh each time: a destroyed callback's
  // captures may schedule or cancel on this engine.
  for (auto it = gens_.find(tag); it != gens_.end(); it = gens_.find(tag)) {
    release(it->second.head);
    ++n;
  }
  return n;
}

std::size_t Engine::pending_in(GenTag tag) const {
  const auto it = gens_.find(tag);
  return it == gens_.end() ? 0 : it->second.size;
}

void Engine::purge_cancelled_top() {
  while (!heap_.empty() && stale(heap_.front())) {
    std::pop_heap(heap_.begin(), heap_.end(), later);
    heap_.pop_back();
  }
}

bool Engine::pop_one() {
  purge_cancelled_top();
  if (heap_.empty()) return false;
  const Key k = heap_.front();
  std::pop_heap(heap_.begin(), heap_.end(), later);
  heap_.pop_back();
  Callback fn = release(k.slot);
  HOMP_ASSERT(k.t >= now_);
  now_ = k.t;
  ++processed_;
  fn();
  return true;
}

void Engine::run() {
  stopped_ = false;
  while (!stopped_ && pop_one()) {
  }
}

std::size_t Engine::run_until(Time deadline) {
  stopped_ = false;
  std::size_t n = 0;
  for (;;) {
    if (stopped_) break;
    // The deadline check must see the next *live* event: a stale key at
    // the top would otherwise let pop_one() skip it and run an event past
    // the deadline.
    purge_cancelled_top();
    if (heap_.empty() || heap_.front().t > deadline) break;
    if (pop_one()) ++n;
  }
  if (now_ < deadline && heap_.empty()) now_ = deadline;
  return n;
}

}  // namespace homp::sim
