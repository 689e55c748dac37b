#ifndef SWANDB_PERFBENCH_SPANS_H_
#define SWANDB_PERFBENCH_SPANS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace swan::perfbench {

// Counter values attached to a span: deltas of the program's own counters
// (disk bytes, seeks, pool hits, match calls, ...) snapshotted at the
// span's boundaries.
using Counters = std::vector<std::pair<std::string, double>>;

// One timed call from the benchmark into a layer. The layer is the name's
// prefix before the first '.', e.g. "core.run" -> core.
struct SpanRecord {
  uint64_t id = 0;
  uint64_t parent = 0;   // 0 = root
  uint64_t request = 0;  // shared by every span of one operation
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = -1;   // -1 while open
  Counters counters;
};

// In-memory span store for the traced run; written out once at the end.
// A disabled recorder records nothing, so untraced and traced runs share
// one code path.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  // Opens a span and returns its id (0 when disabled).
  uint64_t Begin(const std::string& name, uint64_t request,
                 uint64_t parent = 0);
  // Closes a span, attaching its counters.
  void End(uint64_t id, Counters counters = {});

  const std::vector<SpanRecord>& spans() const { return spans_; }

  // Writes a JSON-lines file: one header line (`header_json`, an object),
  // then one line per span. Returns false on an I/O error.
  bool Write(const std::string& path, const std::string& header_json) const;

 private:
  bool enabled_;
  std::vector<SpanRecord> spans_;
};

}  // namespace swan::perfbench

#endif  // SWANDB_PERFBENCH_SPANS_H_
