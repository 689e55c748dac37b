#ifndef SWANDB_CORE_COST_METER_H_
#define SWANDB_CORE_COST_METER_H_

#include <cstdint>
#include <vector>

#include "exec/exec_context.h"

namespace swan::obs {
struct QueryLogRecord;
}  // namespace swan::obs

namespace swan::core {

class Backend;

// The cost of one bracketed execution: the difference of two CostMeter
// readings, in the paper's §2.3 terms. "Real" is modeled: critical-path
// CPU (the slowest ParallelFor lane plus the serial rest, so it reduces
// to "user" without parallel work) plus the backend's virtual clock,
// which on a sharded backend is max over node disks plus network time.
struct CostDelta {
  double real_seconds = 0.0;  // cpu_seconds + io_seconds
  double cpu_seconds = 0.0;   // modeled critical-path CPU
  double user_seconds = 0.0;  // CPU time summed over all threads
  double wall_seconds = 0.0;  // host wall clock (diagnostic; host-dependent)
  double io_seconds = 0.0;    // virtual-clock advance (disk I/O + network)
  uint64_t bytes_read = 0;    // data pulled from the simulated disk(s)
  uint64_t reads = 0;         // page reads charged by the disk(s)
  uint64_t seeks = 0;         // random repositionings charged by the disk(s)
  uint64_t net_bytes = 0;     // modeled inter-node traffic (zero on one
  uint64_t net_messages = 0;  // node); net_seconds is inside io_seconds
  double net_seconds = 0.0;
  uint64_t pool_hits = 0;     // buffer-pool hits (coordinator's pool)
  uint64_t pool_misses = 0;
  exec::OpCounters::Snapshot ops;  // the context's operator counters

  // Fills a query-log record's cost fields (io, cpu, bytes, seeks,
  // operator counters, network); latency and service time stay the
  // caller's, because each producer defines them differently.
  void FillRecord(obs::QueryLogRecord* record) const;
};

// One reading of everything a cost bracket needs: the backend's
// aggregate totals, its buffer pool, the context's operator counters,
// the per-lane CPU accounting and the host clocks. Take one before and
// one after an execution; `after - before` is its cost. A profiled
// execution gets both readings from core::ScopedProfile.
struct CostMeter {
  double virtual_seconds = 0.0;
  uint64_t bytes_read = 0;
  uint64_t reads = 0;
  uint64_t seeks = 0;
  uint64_t net_bytes = 0;
  uint64_t net_messages = 0;
  double net_seconds = 0.0;
  uint64_t pool_hits = 0;
  uint64_t pool_misses = 0;
  exec::OpCounters::Snapshot ops;
  std::vector<double> lane_cpu;
  int64_t wall_ns = 0;
  int64_t cpu_ns = 0;  // process CPU, read last

  static CostMeter Take(const Backend& backend, const exec::ExecContext& ectx);
};

CostDelta operator-(const CostMeter& after, const CostMeter& before);

}  // namespace swan::core

#endif  // SWANDB_CORE_COST_METER_H_
