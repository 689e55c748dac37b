#include "bench_support/harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/macros.h"
#include "core/profiling.h"
#include "obs/telemetry.h"
#include "obs/trace.h"

namespace swan::bench_support {

namespace {

// Times one execution of `body` (which returns the row count) between
// two CostMeter readings, which cover every node of a sharded backend.
template <typename Body>
Measurement TimeOnce(core::Backend* backend, const exec::ExecContext& ectx,
                     const Body& body) {
  const core::CostMeter before = core::CostMeter::Take(*backend, ectx);
  const uint64_t rows = body();
  Measurement m;
  static_cast<core::CostDelta&>(m) =
      core::CostMeter::Take(*backend, ectx) - before;
  m.rows_returned = rows;
  return m;
}

// Executes one benchmark query under `ectx`. A profiled run is bracketed
// by a ScopedProfile instead of TimeOnce: the profile's own cost delta is
// the measurement, so profile->RootRealSeconds() equals real_seconds
// exactly.
Measurement RunOnce(core::Backend* backend, core::QueryId id,
                    const core::QueryContext& ctx,
                    const exec::ExecContext& ectx, bool profiled) {
  auto run = [&] { return backend->Run(id, ctx, ectx).row_count(); };
  if (!profiled) return TimeOnce(backend, ectx, run);
  core::ScopedProfile scoped(core::ToString(id), *backend, ectx);
  const uint64_t rows = run();
  Measurement m;
  m.profile = scoped.Finish();
  static_cast<core::CostDelta&>(m) = scoped.cost();
  m.rows_returned = rows;
  return m;
}

Measurement Average(const std::vector<Measurement>& runs) {
  Measurement avg;
  if (runs.empty()) return avg;
  using core::CostDelta;
  using Ops = exec::OpCounters::Snapshot;
  const double n = static_cast<double>(runs.size());
  for (double CostDelta::*f :
       {&CostDelta::real_seconds, &CostDelta::cpu_seconds,
        &CostDelta::user_seconds, &CostDelta::wall_seconds,
        &CostDelta::io_seconds, &CostDelta::net_seconds}) {
    double sum = 0.0;
    for (const Measurement& m : runs) sum += m.*f;
    avg.*f = sum / n;
  }
  // Counters are means too, truncated to whole units.
  for (uint64_t CostDelta::*f :
       {&CostDelta::bytes_read, &CostDelta::reads, &CostDelta::seeks,
        &CostDelta::net_bytes, &CostDelta::net_messages,
        &CostDelta::pool_hits, &CostDelta::pool_misses}) {
    uint64_t sum = 0;
    for (const Measurement& m : runs) sum += m.*f;
    avg.*f = sum / runs.size();
  }
  for (uint64_t Ops::*f :
       {&Ops::parallel_regions, &Ops::morsels, &Ops::merge_join_partitions,
        &Ops::match_calls, &Ops::bgp_batches, &Ops::star_gathers,
        &Ops::net_bytes, &Ops::net_messages}) {
    uint64_t sum = 0;
    for (const Measurement& m : runs) sum += m.ops.*f;
    avg.ops.*f = sum / runs.size();
  }
  avg.rows_returned = runs.back().rows_returned;
  avg.profile = runs.back().profile;
  double variance = 0.0;
  for (const Measurement& m : runs) {
    const double d = m.real_seconds - avg.real_seconds;
    variance += d * d;
  }
  avg.real_stddev = std::sqrt(variance / n);
  return avg;
}

// The cold protocol: every repetition starts with empty caches ("zapping
// the memory completely").
Measurement Cold(core::Backend* backend, core::QueryId id,
                 const core::QueryContext& ctx, const exec::ExecContext& ectx,
                 int repetitions, bool profiled) {
  std::vector<Measurement> runs;
  for (int i = 0; i < repetitions; ++i) {
    backend->DropCaches();
    runs.push_back(RunOnce(backend, id, ctx, ectx, profiled));
  }
  return Average(runs);
}

// The hot protocol: one unprofiled warm-up, then measured repetitions.
Measurement Hot(core::Backend* backend, core::QueryId id,
                const core::QueryContext& ctx, const exec::ExecContext& ectx,
                int repetitions, bool profiled) {
  RunOnce(backend, id, ctx, ectx, /*profiled=*/false);  // warm-up, ignored
  std::vector<Measurement> runs;
  for (int i = 0; i < repetitions; ++i) {
    runs.push_back(RunOnce(backend, id, ctx, ectx, profiled));
  }
  return Average(runs);
}

}  // namespace

Measurement MeasureCold(core::Backend* backend, core::QueryId id,
                        const core::QueryContext& ctx, int repetitions) {
  return Cold(backend, id, ctx, exec::ExecContext(), repetitions, false);
}

Measurement MeasureHot(core::Backend* backend, core::QueryId id,
                       const core::QueryContext& ctx, int repetitions) {
  return Hot(backend, id, ctx, exec::ExecContext(), repetitions, false);
}

Measurement MeasureCold(core::Backend* backend, core::QueryId id,
                        const core::QueryContext& ctx,
                        const exec::ExecContext& ectx, int repetitions) {
  return Cold(backend, id, ctx, ectx, repetitions, false);
}

Measurement MeasureHot(core::Backend* backend, core::QueryId id,
                       const core::QueryContext& ctx,
                       const exec::ExecContext& ectx, int repetitions) {
  return Hot(backend, id, ctx, ectx, repetitions, false);
}

Measurement MeasureColdProfiled(core::Backend* backend, core::QueryId id,
                                const core::QueryContext& ctx,
                                const exec::ExecContext& ectx,
                                int repetitions) {
  return Cold(backend, id, ctx, ectx, repetitions, true);
}

Measurement MeasureHotProfiled(core::Backend* backend, core::QueryId id,
                               const core::QueryContext& ctx,
                               const exec::ExecContext& ectx,
                               int repetitions) {
  return Hot(backend, id, ctx, ectx, repetitions, true);
}

Measurement MeasureBgpHot(core::Backend* backend,
                          const std::vector<core::BgpPattern>& patterns,
                          const exec::ExecContext& ectx, int repetitions) {
  return MeasureBgpHot(backend, patterns, ectx, plan::PlannerOptions{},
                       repetitions);
}

Measurement MeasureBgpHot(core::Backend* backend,
                          const std::vector<core::BgpPattern>& patterns,
                          const exec::ExecContext& ectx,
                          const plan::PlannerOptions& options,
                          int repetitions) {
  auto run = [&] {
    const Result<core::BgpResult> result =
        core::ExecuteBgp(*backend, patterns, ectx, options);
    SWAN_CHECK_MSG(result.ok(), "BGP evaluation failed during measurement");
    return static_cast<uint64_t>(result.value().rows.size());
  };
  run();  // warm-up, ignored
  std::vector<Measurement> runs;
  for (int i = 0; i < repetitions; ++i) {
    runs.push_back(TimeOnce(backend, ectx, run));
  }
  return Average(runs);
}

std::vector<uint64_t> VerifyBackendsAgree(
    const std::vector<core::Backend*>& backends,
    const std::vector<core::QueryId>& queries, const core::QueryContext& ctx) {
  std::vector<uint64_t> row_counts;
  for (core::QueryId id : queries) {
    core::Backend* reference = nullptr;
    core::QueryResult expected;
    for (core::Backend* backend : backends) {
      if (!backend->Supports(id)) continue;
      core::QueryResult got = backend->Run(id, ctx);
      if (reference == nullptr) {
        reference = backend;
        expected = std::move(got);
        continue;
      }
      if (!expected.SameRows(got)) {
        std::fprintf(stderr,
                     "result divergence on %s: %s returned %llu rows, "
                     "%s returned %llu rows\n",
                     core::ToString(id).c_str(), reference->name().c_str(),
                     static_cast<unsigned long long>(expected.row_count()),
                     backend->name().c_str(),
                     static_cast<unsigned long long>(got.row_count()));
        SWAN_CHECK_MSG(false, "backends disagree; benchmark aborted");
      }
    }
    row_counts.push_back(reference != nullptr ? expected.row_count() : 0);
  }
  return row_counts;
}

void RecordMeasurement(obs::Telemetry* telemetry, const std::string& workload,
                       const std::string& backend, const Measurement& m) {
  SWAN_CHECK(telemetry != nullptr);
  obs::QueryLogRecord record;
  record.seq = telemetry->records();
  record.session = "bench";
  record.kind = "bench";
  record.text = workload;
  record.text_hash = obs::Fnv1a64(workload);
  record.backend = backend;
  record.rows = m.rows_returned;
  m.FillRecord(&record);
  // Standalone benches have no serve epoch; the modeled real cost is both
  // the record's latency and its position on the window axis.
  record.latency_seconds = m.real_seconds;
  record.vt_finish = m.real_seconds;
  record.service_seconds = m.real_seconds;
  if (m.profile != nullptr && m.profile->finished()) {
    record.ops = obs::CollectEstimatedOps(m.profile->root());
  }
  telemetry->Record(std::move(record), m.profile.get());
}

uint64_t EnvU64(const char* name, uint64_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(value, &end, 10);
  if (end == value) return fallback;
  return static_cast<uint64_t>(parsed);
}

}  // namespace swan::bench_support
