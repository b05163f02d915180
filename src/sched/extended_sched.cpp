#include "sched/extended_sched.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "common/error.h"
#include "common/log.h"
#include "common/strings.h"
#include "common/toml.h"

namespace homp::sched {

CyclicScheduler::CyclicScheduler(const LoopContext& ctx,
                                 double block_fraction, long long min_chunk,
                                 long long absolute_block)
    : domain_(ctx.loop), parties_(ctx.num_devices()) {
  HOMP_REQUIRE(parties_ > 0, "no devices to schedule onto");
  HOMP_REQUIRE(min_chunk >= 1, "min_chunk must be at least 1");
  if (absolute_block > 0) {
    block_ = absolute_block;
  } else {
    HOMP_REQUIRE(block_fraction > 0.0 && block_fraction <= 1.0,
                 "cyclic block fraction must be in (0, 1]");
    block_ = std::max(min_chunk,
                      static_cast<long long>(std::llround(
                          block_fraction *
                          static_cast<double>(domain_.size()))));
  }
  next_block_.assign(parties_, 0);
  for (std::size_t s = 0; s < parties_; ++s) {
    next_block_[s] = static_cast<long long>(s);
  }
}

std::optional<dist::Range> CyclicScheduler::next_chunk(int slot) {
  HOMP_ASSERT(slot >= 0 && static_cast<std::size_t>(slot) < parties_);
  auto& idx = next_block_[static_cast<std::size_t>(slot)];
  const long long lo = domain_.lo + idx * block_;
  if (lo >= domain_.hi) return std::nullopt;
  const long long hi = std::min(lo + block_, domain_.hi);
  idx += static_cast<long long>(parties_);
  ++issued_;
  return dist::Range(lo, hi);
}

std::vector<dist::Range> CyclicScheduler::deactivate(int slot) {
  HOMP_ASSERT(slot >= 0 && static_cast<std::size_t>(slot) < parties_);
  auto& idx = next_block_[static_cast<std::size_t>(slot)];
  std::vector<dist::Range> orphaned;
  for (;; idx += static_cast<long long>(parties_)) {
    const long long lo = domain_.lo + idx * block_;
    if (lo >= domain_.hi) break;
    orphaned.emplace_back(lo, std::min(lo + block_, domain_.hi));
  }
  return orphaned;  // idx now points past the domain: finished(slot)
}

bool CyclicScheduler::finished(int slot) const {
  HOMP_ASSERT(slot >= 0 && static_cast<std::size_t>(slot) < parties_);
  const long long lo =
      domain_.lo + next_block_[static_cast<std::size_t>(slot)] * block_;
  return lo >= domain_.hi;
}

WorkStealingScheduler::WorkStealingScheduler(const LoopContext& ctx,
                                             double grain_fraction,
                                             long long min_chunk)
    : live_(ctx.num_devices()) {
  HOMP_REQUIRE(ctx.num_devices() > 0, "no devices to schedule onto");
  HOMP_REQUIRE(grain_fraction > 0.0 && grain_fraction <= 1.0,
               "grain fraction must be in (0, 1]");
  HOMP_REQUIRE(min_chunk >= 1, "min_chunk must be at least 1");
  deque_ = dist::Distribution::block(ctx.loop, ctx.num_devices()).parts();
  grain_ = std::max(min_chunk,
                    static_cast<long long>(std::llround(
                        grain_fraction *
                        static_cast<double>(ctx.loop.size()))));
}

std::optional<dist::Range> WorkStealingScheduler::next_chunk(int slot) {
  HOMP_ASSERT(slot >= 0 &&
              static_cast<std::size_t>(slot) < deque_.size());
  if (!live_.active(slot)) return std::nullopt;
  auto& own = deque_[static_cast<std::size_t>(slot)];
  if (own.empty()) {
    // Steal the back half of the largest victim deque. Ties pick the
    // lowest victim index — deterministic on the single-threaded engine.
    std::size_t victim = deque_.size();
    long long best = 0;
    for (std::size_t v = 0; v < deque_.size(); ++v) {
      if (v == static_cast<std::size_t>(slot)) continue;
      if (deque_[v].size() > best) {
        best = deque_[v].size();
        victim = v;
      }
    }
    if (victim == deque_.size() || best == 0) return std::nullopt;
    auto& loot = deque_[victim];
    const long long half = (loot.size() + 1) / 2;
    own = dist::Range(loot.hi - half, loot.hi);
    loot.hi -= half;
    ++steals_;
  }
  const long long take = std::min(grain_, own.size());
  dist::Range chunk(own.lo, own.lo + take);
  own.lo += take;
  ++issued_;
  return chunk;
}

std::vector<dist::Range> WorkStealingScheduler::deactivate(int slot) {
  HOMP_ASSERT(slot >= 0 && static_cast<std::size_t>(slot) < deque_.size());
  auto& own = deque_[static_cast<std::size_t>(slot)];
  // The slot's own deque is handed back to the runtime, so the iterations
  // still *inside* the scheduler are everyone else's deques.
  long long elsewhere = 0;
  for (std::size_t v = 0; v < deque_.size(); ++v) {
    if (v != static_cast<std::size_t>(slot)) elsewhere += deque_[v].size();
  }
  if (!live_.deactivate(slot, elsewhere)) return {};
  if (own.empty()) return {};
  const dist::Range orphaned = own;
  own = dist::Range();  // survivors could also steal it, but returning it
                        // lets the runtime redistribute immediately
  return {orphaned};
}

void WorkStealingScheduler::reactivate(int slot) {
  // The readmitted slot comes back with an empty deque and earns work by
  // stealing — exactly the cold-start path a late-joining device takes.
  live_.reactivate(slot);
}

bool WorkStealingScheduler::finished(int slot) const {
  if (!live_.active(slot)) return true;
  for (const auto& d : deque_) {
    if (!d.empty()) return false;
  }
  return true;
}

void ThroughputHistory::upsert(const std::string& kernel, int device_id,
                               double rate, double alpha) {
  auto key = std::make_pair(kernel, device_id);
  auto it = rates_.find(key);
  if (it != rates_.end()) {
    it->second = alpha * rate + (1.0 - alpha) * it->second;
    return;
  }
  while (rates_.size() >= capacity_ && !order_.empty()) {
    rates_.erase(order_.front());
    order_.erase(order_.begin());
  }
  order_.push_back(key);
  rates_.emplace(std::move(key), rate);
}

void ThroughputHistory::record(const std::string& kernel, int device_id,
                               double rate, double alpha) {
  HOMP_REQUIRE(rate >= 0.0 && std::isfinite(rate),
               "throughput must be finite and non-negative");
  HOMP_REQUIRE(alpha > 0.0 && alpha <= 1.0, "EWMA alpha must be in (0, 1]");
  upsert(kernel, device_id, rate, alpha);
}

void ThroughputHistory::set_capacity(std::size_t n) {
  HOMP_REQUIRE(n >= 1, "throughput history capacity must be at least 1");
  capacity_ = n;
  while (rates_.size() > capacity_ && !order_.empty()) {
    rates_.erase(order_.front());
    order_.erase(order_.begin());
  }
}

double ThroughputHistory::rate(const std::string& kernel,
                               int device_id) const {
  auto it = rates_.find({kernel, device_id});
  return it == rates_.end() ? 0.0 : it->second;
}

bool ThroughputHistory::has(const std::string& kernel, int device_id) const {
  return rates_.count({kernel, device_id}) != 0;
}

std::string ThroughputHistory::to_text() const {
  std::string out;
  char buf[64];
  for (const auto& [key, rate] : rates_) {
    std::snprintf(buf, sizeof buf, "\t%d\t%.17g\n", key.second, rate);
    out += key.first;
    out += buf;
  }
  return out;
}

void ThroughputHistory::merge_text(const std::string& text) {
  std::size_t pos = 0;
  int lineno = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    ++lineno;
    if (line.empty()) continue;
    const auto t1 = line.find('\t');
    const auto t2 = line.find('\t', t1 + 1);
    HOMP_REQUIRE(t1 != std::string::npos && t2 != std::string::npos,
                 "throughput history line " + std::to_string(lineno) +
                     " is not kernel<TAB>device<TAB>rate");
    const std::string kernel = line.substr(0, t1);
    HOMP_REQUIRE(!kernel.empty(), "empty kernel name in history line " +
                                      std::to_string(lineno));
    // Each field must be one whole number, as in a machine file.
    const auto bad = [lineno](const char* field, const std::string& why) {
      throw ConfigError("throughput history line " + std::to_string(lineno) +
                        ": " + field + " " + why);
    };
    int device = 0;
    double rate = 0.0;
    std::string why = read_int(
        std::string_view(line).substr(t1 + 1, t2 - t1 - 1), device);
    if (!why.empty()) bad("device", why);
    why = read_double(line.substr(t2 + 1), rate);
    if (!why.empty()) bad("rate", why);
    HOMP_REQUIRE(rate >= 0.0 && std::isfinite(rate),
                 "bad rate in history line " + std::to_string(lineno));
    upsert(kernel, device, rate, /*alpha=*/1.0);  // overwrite on merge
  }
}

void ThroughputHistory::save_file(const std::string& path) const {
  std::ofstream out(path);
  HOMP_REQUIRE(out.good(), "cannot open history file for writing: " + path);
  out << to_text();
}

void ThroughputHistory::load_file(const std::string& path) {
  merge_text(read_file(path, "history file"));
}

}  // namespace homp::sched
