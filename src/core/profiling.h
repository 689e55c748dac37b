#ifndef SWANDB_CORE_PROFILING_H_
#define SWANDB_CORE_PROFILING_H_

#include <memory>
#include <string>

#include "core/backend.h"
#include "core/cost_meter.h"
#include "exec/exec_context.h"
#include "obs/trace.h"

namespace swan::core {

// Glue between a backend, an execution context and an obs::TraceSession,
// and the cost bracket of the profiled execution.
//
// Construction starts a session timed by the backend's virtual clock,
// sampling its byte/seek/lane totals and the context's scheduler
// counters, attaches it to `ectx` so every instrumented layer below
// records spans, and takes the opening CostMeter reading. Finish() (or
// the destructor) takes the closing reading, detaches, folds the delta's
// buffer-pool and disk totals into the session's metrics, and closes the
// root span with the delta's modeled CPU: RootRealSeconds() ==
// cost().real_seconds bit for bit.
class ScopedProfile {
 public:
  ScopedProfile(std::string root_name, const Backend& backend,
                const exec::ExecContext& ectx);
  ~ScopedProfile();

  ScopedProfile(const ScopedProfile&) = delete;
  ScopedProfile& operator=(const ScopedProfile&) = delete;

  // Closes the bracket and returns the finished session (idempotent).
  std::shared_ptr<obs::TraceSession> Finish();

  // The opening reading, and the execution's cost once Finish() ran.
  const CostMeter& start() const { return start_; }
  const CostDelta& cost() const { return cost_; }

 private:
  const Backend* backend_;
  const exec::ExecContext* ectx_;
  std::shared_ptr<obs::TraceSession> session_;
  CostMeter start_;
  CostDelta cost_;
  bool finished_ = false;
};

}  // namespace swan::core

#endif  // SWANDB_CORE_PROFILING_H_
