#ifndef SWANDB_EXEC_THREAD_POOL_H_
#define SWANDB_EXEC_THREAD_POOL_H_

#include <cstdint>
#include <functional>
#include <vector>

namespace swan::exec {

// Execution context of one morsel (chunk) of a ParallelFor. Tasks are the
// deterministic unit of parallel work: chunk c of a region run at T
// configured threads always executes on lane c % T, no matter which OS
// thread the work-stealing scheduler lands it on. Cost accounting (CPU
// below, simulated-disk I/O in storage::SimulatedDisk) is keyed by lane,
// which keeps modeled "real time" deterministic under stealing.
struct TaskContext {
  int lane = 0;

  // Per-task simulated-disk stream state. Each task is its own logical
  // I/O stream: its first read pays a seek and contiguity is judged only
  // against the task's own previous read, so accrual never depends on how
  // tasks interleave. storage::SimulatedDisk owns the semantics; the
  // fields live here so storage needs no thread-local machinery of its
  // own. Plain integers to keep exec independent of storage types.
  bool io_has_last = false;
  uint64_t io_last_file = 0;
  uint64_t io_last_page = 0;
  uint32_t io_run_length = 0;
};

// The calling thread's task context, or nullptr outside a ParallelFor
// chunk. Serial code paths (including everything at --threads=1) see
// nullptr and behave exactly as the pre-parallel engine did.
TaskContext* CurrentTask();

// True while the calling thread is executing inside a ParallelFor: either
// in a chunk body (any thread), or on the thread that issued a ParallelFor
// that is still in flight — including the inline serial path, so the
// answer is a function of the call structure, not of the thread budget.
// The tracing layer uses this to keep span trees width-invariant.
bool InParallelRegion();

// ---------------------------------------------------------------------------
// Global parallelism knob
// ---------------------------------------------------------------------------

// Sets the execution width: the caller plus n-1 pool workers. n <= 1
// tears the pool down and makes every ParallelFor run inline — the
// bit-identical single-threaded mode all paper-reproduction benches
// default to. Must not be called while a ParallelFor is in flight.
void SetThreads(int n);

// Currently configured width (>= 1).
int Threads();

// std::thread::hardware_concurrency with a floor of 1.
int HardwareConcurrency();

// ---------------------------------------------------------------------------
// Morsel scheduler
// ---------------------------------------------------------------------------

// Splits [0, n) into chunks of `grain` indices and runs
// body(begin, end, chunk) for every chunk. Blocks until all chunks have
// finished. Chunks self-schedule across the pool (the caller participates),
// so skew between chunks load-balances; `chunk` indexes chunks in range
// order, letting callers concatenate per-chunk results deterministically.
//
// Runs inline — sequentially, on the calling thread, with no TaskContext —
// when Threads() <= 1 or there is only one chunk. A nested call from
// inside a chunk also runs inline (in the enclosing task's context), so
// composed kernels need no re-entrancy guards.
//
// The first exception thrown by a body is rethrown here after all chunks
// have drained; remaining chunks are skipped once a failure is recorded.
void ParallelFor(uint64_t n, uint64_t grain,
                 const std::function<void(uint64_t begin, uint64_t end,
                                          uint64_t chunk)>& body);

// As ParallelFor, but with an explicit width: the region fans out over
// min(width, Threads()) lanes (chunk c -> lane c % effective width), so a
// narrower ExecContext is honored without resizing the pool. width <= 1
// is the inline serial path regardless of the pool size.
void ParallelForWidth(uint64_t n, uint64_t grain, int width,
                      const std::function<void(uint64_t begin, uint64_t end,
                                               uint64_t chunk)>& body);

// Convenience: number of contiguous shards a size-n input should be split
// into for per-shard partial aggregation — Threads() when n is worth
// parallelizing, else 1.
uint64_t ShardsFor(uint64_t n, uint64_t min_items_per_shard);

// As ShardsFor with an explicit width budget (capped at Threads()).
uint64_t ShardsForWidth(uint64_t n, uint64_t min_items_per_shard, int width);

// ---------------------------------------------------------------------------
// Lane CPU accounting
// ---------------------------------------------------------------------------

// Cumulative CPU seconds charged per lane by finished chunks (thread CPU
// clock, summed into the chunk's lane). core::CostMeter snapshots this
// around a query and models parallel wall cost as max-over-lanes, mirroring
// the simulated disk's per-lane virtual I/O accrual.
std::vector<double> LaneCpuSnapshot();

// Models the parallel CPU cost of a region bracketed by two
// LaneCpuSnapshot calls: CPU spent inside ParallelFor chunks progresses
// as its slowest lane (max over per-lane deltas) while the serial rest of
// `user_seconds` runs start to finish. With no parallel work both lane
// terms are zero and the result is user_seconds. Called by
// core::CostMeter's difference only, so every report uses one figure.
double ModeledCpuSeconds(const std::vector<double>& lanes_before,
                         const std::vector<double>& lanes_after,
                         double user_seconds);

}  // namespace swan::exec

#endif  // SWANDB_EXEC_THREAD_POOL_H_
