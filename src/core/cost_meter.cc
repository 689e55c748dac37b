#include "core/cost_meter.h"

#include "common/timer.h"
#include "core/backend.h"
#include "exec/thread_pool.h"
#include "obs/querylog.h"

namespace swan::core {

CostMeter CostMeter::Take(const Backend& backend,
                          const exec::ExecContext& ectx) {
  CostMeter m;
  m.virtual_seconds = backend.VirtualSeconds();
  m.bytes_read = backend.TotalBytesRead();
  m.reads = backend.TotalReads();
  m.seeks = backend.TotalSeeks();
  m.net_bytes = backend.TotalNetBytes();
  m.net_messages = backend.TotalNetMessages();
  m.net_seconds = backend.NetSeconds();
  if (const storage::BufferPool* pool = backend.buffer_pool()) {
    m.pool_hits = pool->hits();
    m.pool_misses = pool->misses();
  }
  m.ops = ectx.counters().Snap();
  m.lane_cpu = exec::LaneCpuSnapshot();
  m.wall_ns = MonotonicNanos();
  m.cpu_ns = ProcessCpuNanos();
  return m;
}

CostDelta operator-(const CostMeter& after, const CostMeter& before) {
  CostDelta d;
  d.user_seconds = static_cast<double>(after.cpu_ns - before.cpu_ns) * 1e-9;
  d.wall_seconds = static_cast<double>(after.wall_ns - before.wall_ns) * 1e-9;
  // CPU charged to ParallelFor lanes progresses as its slowest lane; the
  // serial rest runs start to finish.
  d.cpu_seconds =
      exec::ModeledCpuSeconds(before.lane_cpu, after.lane_cpu, d.user_seconds);
  d.io_seconds = after.virtual_seconds - before.virtual_seconds;
  d.real_seconds = d.cpu_seconds + d.io_seconds;
  d.bytes_read = after.bytes_read - before.bytes_read;
  d.reads = after.reads - before.reads;
  d.seeks = after.seeks - before.seeks;
  d.net_bytes = after.net_bytes - before.net_bytes;
  d.net_messages = after.net_messages - before.net_messages;
  d.net_seconds = after.net_seconds - before.net_seconds;
  d.pool_hits = after.pool_hits - before.pool_hits;
  d.pool_misses = after.pool_misses - before.pool_misses;
  d.ops = after.ops - before.ops;
  return d;
}

void CostDelta::FillRecord(obs::QueryLogRecord* record) const {
  record->io_seconds = io_seconds;
  record->cpu_seconds = cpu_seconds;
  record->bytes_read = bytes_read;
  record->seeks = seeks;
  record->match_calls = ops.match_calls;
  record->morsels = ops.morsels;
  record->bgp_batches = ops.bgp_batches;
  record->star_gathers = ops.star_gathers;
  record->net_bytes = net_bytes;
  record->net_messages = net_messages;
  record->net_seconds = net_seconds;
}

}  // namespace swan::core
