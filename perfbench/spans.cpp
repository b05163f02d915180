#include "spans.h"

#include <cstdio>
#include <map>

namespace perfbench {

int SpanRecorder::begin(const char* name) {
  const int id = static_cast<int>(spans_.size());
  const int parent = open_.empty() ? -1 : open_.back();
  spans_.push_back({name, now_us(), -1.0, 0.0, parent, op_});
  open_.push_back(id);
  return id;
}

void SpanRecorder::end(int id) {
  Span& s = spans_[static_cast<std::size_t>(id)];
  s.t1_us = now_us();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
  if (s.parent >= 0) {
    spans_[static_cast<std::size_t>(s.parent)].child_us += s.t1_us - s.t0_us;
  }
}

std::vector<std::pair<std::string, double>> SpanRecorder::self_ms_by_layer()
    const {
  std::map<std::string, double> by_layer;
  for (const Span& s : spans_) {
    if (s.t1_us < 0.0) continue;
    const std::string name(s.name);
    const std::string layer = name.substr(0, name.find('.'));
    by_layer[layer] += (s.t1_us - s.t0_us - s.child_us) / 1e3;
  }
  std::vector<std::pair<std::string, double>> out(by_layer.begin(),
                                                  by_layer.end());
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  return out;
}

bool SpanRecorder::write_chrome_trace(
    const std::string& path,
    const std::vector<std::pair<std::string, std::string>>& meta) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"otherData\": {");
  for (std::size_t i = 0; i < meta.size(); ++i) {
    std::fprintf(f, "%s\"%s\": \"%s\"", i ? ", " : "", meta[i].first.c_str(),
                 meta[i].second.c_str());
  }
  std::fprintf(f, "},\n\"traceEvents\": [\n");
  bool first = true;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.t1_us < 0.0) continue;
    const std::string name(s.name);
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                 "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": 1, "
                 "\"args\": {\"id\": %zu, \"parent\": %d, \"op\": %lld}}",
                 first ? "" : ",\n", s.name,
                 name.substr(0, name.find('.')).c_str(), s.t0_us,
                 s.t1_us - s.t0_us, i, s.parent, s.op);
    first = false;
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
