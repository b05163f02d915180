#include "sim/engine.h"

#include "common/error.h"

namespace homp::sim {

std::uint64_t Engine::schedule_at(Time t, Callback fn, GenTag tag) {
  HOMP_ASSERT(t >= now_);
  HOMP_ASSERT(fn != nullptr);
  const std::uint64_t id = next_seq_++;
  queue_.push(Entry{t, id, std::move(fn)});
  pending_.emplace(id, tag);
  if (tag != 0) gens_[tag].insert(id);
  return id;
}

void Engine::retire_from_generation(std::uint64_t id, GenTag tag) {
  if (tag == 0) return;
  auto git = gens_.find(tag);
  if (git == gens_.end()) return;
  git->second.erase(id);
  if (git->second.empty()) gens_.erase(git);
}

bool Engine::cancel(std::uint64_t id) {
  auto it = pending_.find(id);
  if (it == pending_.end()) return false;
  retire_from_generation(id, it->second);
  pending_.erase(it);
  return true;
}

std::size_t Engine::cancel_generation(GenTag tag) {
  if (tag == 0) return 0;
  auto git = gens_.find(tag);
  if (git == gens_.end()) return 0;
  std::size_t n = 0;
  for (std::uint64_t id : git->second) n += pending_.erase(id);
  gens_.erase(git);
  return n;
}

std::size_t Engine::pending_in(GenTag tag) const {
  auto git = gens_.find(tag);
  return git == gens_.end() ? 0 : git->second.size();
}

void Engine::purge_cancelled_top() {
  while (!queue_.empty() && !pending_.contains(queue_.top().seq)) {
    queue_.pop();
  }
}

bool Engine::pop_one() {
  purge_cancelled_top();
  if (queue_.empty()) return false;
  Entry e = std::move(const_cast<Entry&>(queue_.top()));
  queue_.pop();
  const auto it = pending_.find(e.seq);
  retire_from_generation(e.seq, it->second);
  pending_.erase(it);
  HOMP_ASSERT(e.t >= now_);
  now_ = e.t;
  ++processed_;
  e.fn();
  return true;
}

void Engine::run() {
  stopped_ = false;
  while (!stopped_ && pop_one()) {
  }
}

std::size_t Engine::run_bounded(std::size_t max_events) {
  stopped_ = false;
  std::size_t n = 0;
  while (n < max_events && !stopped_ && pop_one()) ++n;
  return n;
}

std::size_t Engine::run_until(Time deadline) {
  stopped_ = false;
  std::size_t n = 0;
  for (;;) {
    if (stopped_) break;
    // The deadline check must see the next *live* event: a tombstone at
    // the top would otherwise let pop_one() skip it and run an event past
    // the deadline.
    purge_cancelled_top();
    if (queue_.empty() || queue_.top().t > deadline) break;
    if (pop_one()) ++n;
  }
  if (now_ < deadline && queue_.empty()) now_ = deadline;
  return n;
}

}  // namespace homp::sim
