#include "spans.h"

#include <algorithm>
#include <cstdio>

#include "common/clock.h"

namespace perfbench {

void SpanRecorder::begin(const char* name) {
  if (!enabled_) return;
  const std::uint64_t start = cosmos::now_ns();
  std::int64_t index = -1;
  if (spans_.size() < kMaxKept) {
    index = static_cast<std::int64_t>(spans_.size());
    spans_.push_back({name, start, 0,
                      stack_.empty() ? -1 : stack_.back().index, run_});
  } else {
    ++dropped_;
  }
  stack_.push_back({name, start, 0, index});
}

void SpanRecorder::end() {
  if (!enabled_ || stack_.empty()) return;
  const std::uint64_t now = cosmos::now_ns();
  const Open open = stack_.back();
  stack_.pop_back();
  const std::uint64_t dur = now - open.start_ns;
  if (!stack_.empty()) stack_.back().child_ns += dur;

  auto& row = by_name_[open.name];
  if (row == nullptr) row = &totals_[open.name];
  ++row->count;
  row->total_ns += dur;
  row->self_ns += dur - std::min(dur, open.child_ns);
  if (open.index >= 0) {
    spans_[static_cast<std::size_t>(open.index)].end_ns = now;
    row->durations_ns.push_back(dur);
  }
}

bool SpanRecorder::write_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"dropped\": %zu,\n\"totals\": {", dropped_);
  bool first = true;
  for (const auto& [name, t] : totals_) {
    std::fprintf(f,
                 "%s\n  \"%s\": {\"count\": %llu, \"total_ns\": %llu, "
                 "\"self_ns\": %llu}",
                 first ? "" : ",", name.c_str(),
                 static_cast<unsigned long long>(t.count),
                 static_cast<unsigned long long>(t.total_ns),
                 static_cast<unsigned long long>(t.self_ns));
    first = false;
  }
  std::fprintf(f, "},\n\"spans\": [");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    std::fprintf(f,
                 "%s\n  {\"name\": \"%s\", \"start_ns\": %llu, \"end_ns\": "
                 "%llu, \"parent\": %lld, \"run\": %u}",
                 i == 0 ? "" : ",", s.name,
                 static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns),
                 static_cast<long long>(s.parent), s.run);
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
