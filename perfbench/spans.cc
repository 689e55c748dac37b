#include "spans.h"

#include <cmath>
#include <cstdio>

#include "common.h"

namespace swan::perfbench {

uint64_t SpanRecorder::Begin(const std::string& name, uint64_t request,
                             uint64_t parent) {
  if (!enabled_) return 0;
  SpanRecord span;
  span.id = spans_.size() + 1;
  span.parent = parent;
  span.request = request;
  span.name = name;
  span.start_ns = WallNanos();
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void SpanRecorder::End(uint64_t id, Counters counters) {
  if (!enabled_ || id == 0) return;
  SpanRecord& span = spans_[id - 1];
  span.end_ns = WallNanos();
  span.counters = std::move(counters);
}

bool SpanRecorder::Write(const std::string& path,
                         const std::string& header_json) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "%s\n", header_json.c_str());
  for (const SpanRecord& s : spans_) {
    std::fprintf(f,
                 "{\"id\": %llu, \"parent\": %llu, \"request\": %llu, "
                 "\"name\": \"%s\", \"start_ns\": %lld, \"end_ns\": %lld, "
                 "\"counters\": {",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request),
                 JsonEscape(s.name).c_str(),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
    for (size_t i = 0; i < s.counters.size(); ++i) {
      const double v = s.counters[i].second;
      std::fprintf(f, "%s\"%s\": %.17g", i > 0 ? ", " : "",
                   JsonEscape(s.counters[i].first).c_str(),
                   std::isfinite(v) ? v : 0.0);
    }
    std::fprintf(f, "}}\n");
  }
  return std::fclose(f) == 0;
}

}  // namespace swan::perfbench
