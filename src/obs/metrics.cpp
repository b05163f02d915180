#include "obs/metrics.h"

#include <cmath>
#include <limits>
#include <ostream>

#include "common/error.h"
#include "common/json.h"

namespace homp::obs {

void Histogram::observe(double v) noexcept {
  int idx = 0;
  if (v >= kBaseSeconds) {
    // Bucket index from the binary exponent: v in [base*2^i, base*2^(i+1)).
    idx = static_cast<int>(std::floor(std::log2(v / kBaseSeconds)));
    if (idx < 0) idx = 0;
    if (idx >= kNumBuckets) idx = kNumBuckets - 1;
  }
  buckets_[idx] += 1;
  count_ += 1;
  sum_ += v;
}

void Histogram::add_bucket(int i, std::uint64_t n) noexcept {
  if (i < 0 || i >= kNumBuckets) return;
  buckets_[i] += n;
  count_ += n;
}

void Histogram::merge(const Histogram& other) noexcept {
  for (int i = 0; i < kNumBuckets; ++i) buckets_[i] += other.buckets_[i];
  count_ += other.count_;
  sum_ += other.sum_;
}

double Histogram::upper_bound(int i) noexcept {
  if (i >= kNumBuckets - 1) return std::numeric_limits<double>::infinity();
  return kBaseSeconds * std::ldexp(1.0, i + 1);
}

const char* to_string(MetricType t) noexcept {
  switch (t) {
    case MetricType::kCounter:
      return "counter";
    case MetricType::kGauge:
      return "gauge";
    case MetricType::kHistogram:
      return "histogram";
  }
  return "?";
}

MetricsRegistry::Metric& MetricsRegistry::slot(std::string_view name,
                                               std::string_view labels,
                                               MetricType type) {
  auto [it, inserted] =
      metrics_.try_emplace({std::string(name), std::string(labels)});
  if (inserted) {
    it->second.type = type;
  } else {
    HOMP_REQUIRE(it->second.type == type,
                 "metric '" + std::string(name) + "' re-registered as " +
                     to_string(type) + " but is a " +
                     to_string(it->second.type));
  }
  return it->second;
}

void MetricsRegistry::add(std::string_view name, std::string_view labels,
                          double v) {
  slot(name, labels, MetricType::kCounter).value += v;
}

void MetricsRegistry::set(std::string_view name, std::string_view labels,
                          double v) {
  slot(name, labels, MetricType::kGauge).value = v;
}

void MetricsRegistry::observe(std::string_view name, std::string_view labels,
                              double v) {
  slot(name, labels, MetricType::kHistogram).hist.observe(v);
}

void MetricsRegistry::merge_histogram(std::string_view name,
                                      std::string_view labels,
                                      const Histogram& h) {
  slot(name, labels, MetricType::kHistogram).hist.merge(h);
}

void MetricsRegistry::merge(const MetricsRegistry& other) {
  for (const auto& [key, m] : other.metrics_) {
    Metric& mine = slot(key.first, key.second, m.type);
    switch (m.type) {
      case MetricType::kCounter:
        mine.value += m.value;
        break;
      case MetricType::kGauge:
        mine.value = m.value;
        break;
      case MetricType::kHistogram:
        mine.hist.merge(m.hist);
        break;
    }
  }
}

double MetricsRegistry::value(std::string_view name,
                              std::string_view labels) const {
  auto it = metrics_.find({std::string(name), std::string(labels)});
  if (it == metrics_.end() || it->second.type == MetricType::kHistogram)
    return 0.0;
  return it->second.value;
}

const Histogram* MetricsRegistry::find_histogram(
    std::string_view name, std::string_view labels) const {
  auto it = metrics_.find({std::string(name), std::string(labels)});
  if (it == metrics_.end() || it->second.type != MetricType::kHistogram)
    return nullptr;
  return &it->second.hist;
}

void MetricsRegistry::write_json(std::ostream& os) const {
  os << "{\n  \"homp_metrics_version\": 1,\n  \"metrics\": [";
  bool first = true;
  for (const auto& [key, m] : metrics_) {
    os << (first ? "\n" : ",\n") << R"(    {"name": ")";
    first = false;
    json_escape(os, key.first);
    os << R"(", "labels": ")";
    json_escape(os, key.second);
    os << R"(", "type": ")" << to_string(m.type) << '"';
    if (m.type == MetricType::kHistogram) {
      os << ", \"count\": " << m.hist.count()
         << ", \"sum\": " << json_number(m.hist.sum())
         << ", \"buckets\": [";
      // Cumulative counts; buckets past the last occupied one collapse
      // into the +Inf entry to keep the document small.
      int last = -1;
      for (int i = 0; i < Histogram::kNumBuckets; ++i) {
        if (m.hist.bucket(i) > 0) last = i;
      }
      std::uint64_t cum = 0;
      for (int i = 0; i <= last && i < Histogram::kNumBuckets - 1; ++i) {
        cum += m.hist.bucket(i);
        if (i > 0) os << ", ";
        os << R"({"le": )" << json_number(Histogram::upper_bound(i))
           << R"(, "count": )" << cum << '}';
      }
      // A comma is due whenever any finite row was emitted above — also
      // when the last occupied bucket IS the final (+Inf-bound) one, in
      // which case every finite row printed and +Inf still follows.
      if (last >= 0) os << ", ";
      os << R"({"le": "+Inf", "count": )" << m.hist.count() << "}]";
    } else {
      os << ", \"value\": " << json_number(m.value);
    }
    os << '}';
  }
  os << "\n  ]\n}\n";
}

void MetricsRegistry::write_prometheus(std::ostream& os) const {
  std::string last_name;
  for (const auto& [key, m] : metrics_) {
    const auto& [name, labels] = key;
    if (name != last_name) {
      os << "# TYPE " << name << ' ' << to_string(m.type) << '\n';
      last_name = name;
    }
    if (m.type == MetricType::kHistogram) {
      std::uint64_t cum = 0;
      for (int i = 0; i < Histogram::kNumBuckets; ++i) {
        cum += m.hist.bucket(i);
        if (m.hist.bucket(i) == 0 && i < Histogram::kNumBuckets - 1) continue;
        const double ub = Histogram::upper_bound(i);
        os << name << "_bucket{" << labels << (labels.empty() ? "" : ",")
           << "le=\""
           << (std::isinf(ub) ? std::string("+Inf") : json_number(ub))
           << "\"} " << cum << '\n';
      }
      os << name << "_sum";
      if (!labels.empty()) os << '{' << labels << '}';
      os << ' ' << json_number(m.hist.sum()) << '\n';
      os << name << "_count";
      if (!labels.empty()) os << '{' << labels << '}';
      os << ' ' << m.hist.count() << '\n';
    } else {
      os << name;
      if (!labels.empty()) os << '{' << labels << '}';
      os << ' ' << json_number(m.value) << '\n';
    }
  }
}

}  // namespace homp::obs
