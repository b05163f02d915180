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
  slot.gen = kNone;
  slot.prev = kNone;
  slot.next = kNone;
  if (tag != 0) {
    HOMP_ASSERT(find_gen(tag) != nullptr);  // issued and not retired
    slot.gen = static_cast<std::uint32_t>(tag);
    GenList& gen = gens_[slot.gen];
    slot.next = gen.head;
    if (gen.head != kNone) slots_[gen.head].prev = s;
    gen.head = s;
    if (gen.size++ == 0) ++live_gens_;
  }
  heap_.push_back(Key{t, slot.seq, s});
  std::push_heap(heap_.begin(), heap_.end(), later);
  ++live_;
  return (std::uint64_t{slot.stamp} << 32) | s;
}

Callback Engine::release(std::uint32_t s) {
  Slot& slot = slots_[s];
  if (slot.gen != kNone) {
    GenList& gen = gens_[slot.gen];
    if (slot.prev != kNone) {
      slots_[slot.prev].next = slot.next;
    } else {
      gen.head = slot.next;
    }
    if (slot.next != kNone) slots_[slot.next].prev = slot.prev;
    if (--gen.size == 0) --live_gens_;
    slot.gen = kNone;
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

Engine::GenTag Engine::new_generation() noexcept {
  std::uint32_t g = free_gen_;
  if (g != kNone) {
    free_gen_ = gens_[g].head;
    gens_[g].head = kNone;
  } else {
    HOMP_ASSERT(gens_.size() < kNone);
    g = static_cast<std::uint32_t>(gens_.size());
    gens_.emplace_back();
  }
  return (GenTag{gens_[g].stamp} << 32) | g;
}

std::size_t Engine::cancel_generation(GenTag tag) {
  std::size_t n = 0;
  // Look the generation up afresh each time: a destroyed callback's
  // captures may schedule, cancel or retire on this engine.
  for (const GenList* gen = find_gen(tag); gen != nullptr && gen->size > 0;
       gen = find_gen(tag)) {
    release(gen->head);
    ++n;
  }
  return n;
}

std::size_t Engine::retire_generation(GenTag tag) {
  const std::size_t n = cancel_generation(tag);
  if (find_gen(tag) == nullptr) return n;  // 0 or already retired
  const auto g = static_cast<std::uint32_t>(tag);
  GenList& gen = gens_[g];
  if (++gen.stamp == 0) gen.stamp = 1;
  gen.head = free_gen_;
  free_gen_ = g;
  return n;
}

std::size_t Engine::pending_in(GenTag tag) const {
  const GenList* gen = find_gen(tag);
  return gen == nullptr ? 0 : gen->size;
}

void Engine::reset() {
  // Release slot by slot, so every generation list empties; a destroyed
  // callback's captures may still schedule on this engine, hence the
  // outer loop.
  while (live_ != 0) {
    for (std::uint32_t s = 0; s < slots_.size(); ++s) {
      if (slots_[s].fn) release(s);
    }
  }
  heap_.clear();
  // Hand slots out in index order again, as a fresh engine does.
  free_head_ = kNone;
  for (auto s = static_cast<std::uint32_t>(slots_.size()); s-- > 0;) {
    slots_[s].next = free_head_;
    free_head_ = s;
  }
  now_ = 0.0;
  next_seq_ = 0;
  processed_ = 0;
  stopped_ = false;
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
