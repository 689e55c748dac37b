#include "core/profiling.h"

#include <utility>

namespace swan::core {

ScopedProfile::ScopedProfile(std::string root_name, const Backend& backend,
                             const exec::ExecContext& ectx)
    : backend_(&backend), ectx_(&ectx) {
  // Time and cost come from the backend's aggregate virtuals, so a
  // sharded backend's spans see max-over-nodes virtual time plus modeled
  // network time, and single-node backends reduce to their one disk. The
  // sample runs at every span boundary, so it reads only what spans keep.
  const Backend* be = &backend;
  const exec::OpCounters* counters = &ectx.counters();
  obs::TraceSources sources;
  sources.now = [be] { return be->VirtualSeconds(); };
  sources.sample = [be, counters] {
    obs::CounterSample s;
    s.bytes_read = be->TotalBytesRead();
    s.seeks = be->TotalSeeks();
    s.net_bytes = be->TotalNetBytes();
    s.net_messages = be->TotalNetMessages();
    const exec::OpCounters::Snapshot snap = counters->Snap();
    s.morsels = snap.morsels;
    s.parallel_regions = snap.parallel_regions;
    s.lane_seconds = be->LaneSecondsSnapshot();
    return s;
  };
  session_ = std::make_shared<obs::TraceSession>(
      std::move(root_name), std::move(sources), ectx.threads());
  ectx.AttachTrace(session_.get());
  start_ = CostMeter::Take(backend, ectx);
}

ScopedProfile::~ScopedProfile() {
  if (!finished_) Finish();
}

std::shared_ptr<obs::TraceSession> ScopedProfile::Finish() {
  if (finished_) return session_;
  finished_ = true;
  cost_ = CostMeter::Take(*backend_, *ectx_) - start_;
  ectx_->AttachTrace(nullptr);

  // Fold end-of-query storage statistics into the registry. Hit/miss and
  // byte/seek totals are schedule-independent (the pool deduplicates
  // in-flight reads), so these deltas stay deterministic at any width.
  obs::MetricsRegistry& metrics = session_->metrics();
  if (backend_->buffer_pool() != nullptr) {
    metrics.GetCounter("buffer_pool.hits")->Add(cost_.pool_hits);
    metrics.GetCounter("buffer_pool.misses")->Add(cost_.pool_misses);
  }
  metrics.GetCounter("disk.reads")->Add(cost_.reads);
  metrics.GetCounter("disk.bytes_read")->Add(cost_.bytes_read);
  metrics.GetCounter("disk.seeks")->Add(cost_.seeks);

  session_->Finish(cost_.cpu_seconds);
  return session_;
}

}  // namespace swan::core
