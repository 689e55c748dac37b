#ifndef SWANDB_PERFBENCH_WORKLOADS_H_
#define SWANDB_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "spans.h"
#include "stores.h"

namespace swan::perfbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  // span file of the traced run
  Fingerprint fingerprint;
};

// What a workload hands back: metric values by name (main.cc owns the
// names, units and kinds, and fills metrics a workload leaves idle with
// 0), the checked-operation tally, and the traced run's spans.
struct RunResult {
  std::map<std::string, double> values;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool checks_passed = true;
  PhaseRss rss;  // peak_rss_mb: spans the timed phases only
  HostSpeed speed;  // probed through the run; rescales its timings
  std::unique_ptr<SpanRecorder> spans;
  std::string trace_header;  // extra JSON members for the span file
};

// The program's own cost counters of one backend, snapshotted before and
// after a call: virtual disk clock, disk bytes and seeks, network totals,
// and buffer-pool hits and misses (0 without a pool).
struct BackendSnap {
  double io_s;
  uint64_t bytes, seeks, net_bytes, net_messages;
  double net_s;
  uint64_t pool_hits, pool_misses;

  static BackendSnap Of(const core::Backend& b) {
    const storage::BufferPool* pool = b.buffer_pool();
    return {b.VirtualSeconds(),
            b.TotalBytesRead(),
            b.TotalSeeks(),
            b.TotalNetBytes(),
            b.TotalNetMessages(),
            b.NetSeconds(),
            pool != nullptr ? pool->hits() : 0,
            pool != nullptr ? pool->misses() : 0};
  }
};

// Set-up is repeated this many times per run; setup_s and the per-layer
// set-up times report the median.
constexpr int kSetups = 3;

// Builds the world kSetups times and records setup_s,
// bench_support.generate_s and core.open_s.<store> (medians). Set-up i
// passes i to `before_open` (see BuildWorld). After set-up i, `measure`
// (may be null) runs on that world with i, so a workload can
// spread its timed phase over the whole run: a host that is slow for a
// stretch of the run then skews fewer of the samples. Returns the last
// world.
std::unique_ptr<World> RepeatedSetup(
    const RunConfig& config, const std::vector<std::string>& labels,
    const std::function<void(rdf::Dataset*, int)>& before_open,
    RunResult* result,
    const std::function<void(World*, int)>& measure = nullptr);

// Σ disk_bytes / triples over `world`'s stores, plus
// storage.disk_bytes.<store>; prints each store's size.
void RecordFootprint(const World& world, RunResult* result);

RunResult RunPaper(const RunConfig& config, bool hot);
RunResult RunMixed(const RunConfig& config);

}  // namespace swan::perfbench

#endif  // SWANDB_PERFBENCH_WORKLOADS_H_
