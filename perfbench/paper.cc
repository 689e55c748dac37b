// paper_hot and paper_cold: the paper's Table 7 and Table 6 protocols,
// timed on the host. One client runs the 12 benchmark queries
// (RdfStore::Run) round-robin over seven stores at execution width 1;
// paper_cold drops every cache before each query, paper_hot warms up
// once and never drops them.

#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench_support/harness.h"
#include "core/reference_backend.h"
#include "exec/exec_context.h"
#include "workloads.h"

namespace swan::perfbench {

namespace {

using core::QueryId;

const std::vector<std::string>& PaperStores() {
  static const std::vector<std::string> labels = {
      "row_pso", "row_vert", "col_pso",    "col_vert",
      "col_vert_auto", "cstore", "col_vert_n2"};
  return labels;
}

// Metric-name spelling of a query id: q2* -> q2s.
std::string QueryLabel(QueryId id) {
  std::string name = core::ToString(id);
  if (!name.empty() && name.back() == '*') name.back() = 's';
  return name;
}

// Fresh subjects for the write probe that follows each set-up's timed
// rounds; they are interned before the stores open, like every new term.
constexpr int kProbeWrites = 4096;

// Single-triple write latencies of the write probe, by (store, insert?).
using WriteSamples = std::map<std::pair<std::string, bool>, std::vector<Sample>>;

std::string ProbeSubject(int i) {
  return "<perfbench_probe_" + std::to_string(i) + ">";
}

struct Cell {
  size_t store = 0;
  QueryId query = QueryId::kQ1;
  uint64_t expected_digest = 0;
  uint64_t expected_rows = 0;
  // Per timed Run: wall and thread CPU time (ms) and virtual I/O time.
  std::vector<Sample> wall_ms, cpu_ms;
  std::vector<double> io_ms;

  // Median wall time at reference host speed.
  double MedianWall(const HostSpeed& speed) const {
    return Median(AtReferenceSpeed(wall_ms, speed));
  }
  // Median modeled time: CPU at reference host speed plus virtual I/O.
  double MedianModeled(const HostSpeed& speed) const {
    std::vector<double> modeled = AtReferenceSpeed(cpu_ms, speed);
    for (size_t i = 0; i < modeled.size(); ++i) modeled[i] += io_ms[i];
    return Median(modeled);
  }
};

// Counters around one Run: deltas of the program's own accounting.
struct RunDelta {
  int64_t t_ns = 0;  // WallNanos() at the start of Run
  double wall_ns = 0, cpu_ns = 0, io_s = 0;
  uint64_t bytes = 0, seeks = 0, net_bytes = 0, net_messages = 0;
  double net_s = 0;
  uint64_t pool_hits = 0, pool_misses = 0;
};

class PaperRun {
 public:
  PaperRun(const RunConfig& config, bool hot, RunResult* result)
      : config_(config), hot_(hot), result_(result), ectx_(1) {}

  void Run() {
    if (config_.trace) {
      const std::unique_ptr<World> world =
          RepeatedSetup(config_, PaperStores(), &InternProbeTerms, result_);
      world_ = world.get();
      RecordFootprint(*world_, result_);
      BuildCellsAndCheck();
      if (hot_) WarmUp();
      RunTraced();
      return;
    }
    // Each set-up runs whole rounds for its third of --seconds (at least
    // one, so the tail always has its samples), then the write probe; the
    // samples pool across set-ups. A host that is slow for a stretch of the
    // run then skews fewer of them. Every set-up generates the same data
    // from the seed, so the first set-up's check and reference results
    // hold for all three, and every timed Run is checked against them.
    PhaseClock phase;
    int rounds = 0;
    WriteSamples writes;
    RepeatedSetup(config_, PaperStores(), &InternProbeTerms, result_,
                  [&](World* world, int i) {
                    world_ = world;
                    if (i == 0) {
                      RecordFootprint(*world_, result_);
                      BuildCellsAndCheck();
                    }
                    // peak_rss_mb covers the stores at work, not the
                    // reference backend of the check, gone by now.
                    result_->rss.Begin();
                    if (hot_) WarmUp();
                    const double until = config_.seconds * (i + 1) / kSetups;
                    do {
                      Round(&phase, /*record=*/true, off_, nullptr);
                      ++rounds;
                    } while (phase.seconds() < until);
                    WriteProbe(&writes);
                    result_->rss.End();
                  });
    world_ = nullptr;
    Summarize(phase, rounds);
    std::vector<double> groups;
    for (const auto& [group, us] : writes) {
      groups.push_back(GeoMean(AtReferenceSpeed(us, result_->speed)));
      std::printf("write probe on %s, %s: %zu, geomean %.3f us at reference "
                  "host speed\n",
                  group.first.c_str(), group.second ? "insert" : "delete",
                  us.size(), groups.back());
    }
    result_->values["write_geomean_us"] = GeoMean(groups);
  }

 private:
  static void InternProbeTerms(rdf::Dataset* dataset, int /*setup*/) {
    for (int i = 0; i < kProbeWrites; ++i) {
      dataset->dict().Intern(ProbeSubject(i));
    }
  }

  void WarmUp() {
    for (Cell& cell : cells_) RunOnce(cell, nullptr, 0, off_);
  }

  core::RdfStore& StoreOf(const Cell& cell) {
    return *world_->stores[cell.store];
  }

  // Output check before timing: every store agrees with the reference
  // backend on the 12 queries (VerifyBackendsAgree aborts on a mismatch
  // and prints the query). The reference results are then kept as the
  // expected digest of every timed execution.
  void BuildCellsAndCheck() {
    const core::QueryContext& ctx = *world_->ctx;
    core::ReferenceBackend reference(world_->barton.dataset);
    std::vector<core::Backend*> backends = {&reference};
    for (auto& store : world_->stores) backends.push_back(&store->backend());
    bench_support::VerifyBackendsAgree(backends, core::AllQueries(), ctx);
    std::printf("output check: all %zu stores agree with the reference "
                "backend on the 12 queries\n",
                world_->stores.size());
    for (size_t s = 0; s < world_->stores.size(); ++s) {
      for (QueryId id : core::AllQueries()) {
        if (!world_->stores[s]->backend().Supports(id)) continue;
        Cell cell;
        cell.store = s;
        cell.query = id;
        cells_.push_back(std::move(cell));
      }
    }
    for (QueryId id : core::AllQueries()) {
      const core::QueryResult expected = reference.Run(id, ctx, ectx_);
      for (Cell& cell : cells_) {
        if (cell.query != id) continue;
        cell.expected_digest = BagDigest(expected.rows);
        cell.expected_rows = expected.row_count();
      }
    }
  }

  // Runs one cell once: drops caches first under the cold protocol,
  // times RdfStore::Run, checks the rows against the reference digest.
  // `phase` (may be null) runs only around the Run call.
  RunDelta RunOnce(Cell& cell, PhaseClock* phase, uint64_t request,
                   SpanRecorder& spans) {
    core::RdfStore& store = StoreOf(cell);
    const uint64_t root = spans.Begin("bench.query", request);
    if (!hot_) {
      const uint64_t drop = spans.Begin("storage.drop_caches", request, root);
      store.DropCaches();
      spans.End(drop);
    }
    const BackendSnap before = BackendSnap::Of(store.backend());
    const exec::OpCounters::Snapshot ops_before = ectx_.counters().Snap();
    const uint64_t run_span = spans.Begin("core.run", request, root);
    if (phase != nullptr) phase->Start();
    const int64_t cpu0 = ThreadCpuNanos();
    const int64_t t0 = WallNanos();
    core::QueryResult out = store.Run(cell.query, *world_->ctx, ectx_);
    const int64_t t1 = WallNanos();
    const int64_t cpu1 = ThreadCpuNanos();
    if (phase != nullptr) phase->Stop();
    const BackendSnap after = BackendSnap::Of(store.backend());

    RunDelta d;
    d.t_ns = t0;
    d.wall_ns = static_cast<double>(t1 - t0);
    d.cpu_ns = static_cast<double>(cpu1 - cpu0);
    d.io_s = after.io_s - before.io_s;
    d.bytes = after.bytes - before.bytes;
    d.seeks = after.seeks - before.seeks;
    d.net_bytes = after.net_bytes - before.net_bytes;
    d.net_messages = after.net_messages - before.net_messages;
    d.net_s = after.net_s - before.net_s;
    d.pool_hits = after.pool_hits - before.pool_hits;
    d.pool_misses = after.pool_misses - before.pool_misses;
    if (spans.enabled()) {
      const exec::OpCounters::Snapshot ops_after = ectx_.counters().Snap();
      spans.End(run_span,
                {{"cpu_ns", d.cpu_ns},
                 {"bytes_read", static_cast<double>(d.bytes)},
                 {"seeks", static_cast<double>(d.seeks)},
                 {"io_ms", d.io_s * 1e3},
                 {"net_bytes", static_cast<double>(d.net_bytes)},
                 {"net_messages", static_cast<double>(d.net_messages)},
                 {"pool_hits", static_cast<double>(d.pool_hits)},
                 {"pool_misses", static_cast<double>(d.pool_misses)},
                 {"morsels", static_cast<double>(ops_after.morsels -
                                                 ops_before.morsels)},
                 {"parallel_regions",
                  static_cast<double>(ops_after.parallel_regions -
                                      ops_before.parallel_regions)}});
      spans.End(root);
    }

    ++result_->attempted;
    if (out.row_count() != cell.expected_rows ||
        BagDigest(out.rows) != cell.expected_digest) {
      ++result_->failed;
      result_->checks_passed = false;
      std::printf("WRONG ROWS: store %s query %s returned %llu rows, the "
                  "reference %llu\n",
                  world_->labels[cell.store].c_str(),
                  core::ToString(cell.query).c_str(),
                  static_cast<unsigned long long>(out.row_count()),
                  static_cast<unsigned long long>(cell.expected_rows));
    }
    return d;
  }

  // One round = every (store, query) cell once, store by store. The
  // host-speed kernel runs between cells, outside every clock.
  void Round(PhaseClock* phase, bool record, SpanRecorder& spans,
             std::vector<RunDelta>* deltas) {
    for (Cell& cell : cells_) {
      result_->speed.MaybeProbe();
      const RunDelta d = RunOnce(cell, phase, ++requests_, spans);
      if (record) {
        cell.wall_ms.push_back({d.wall_ns * 1e-6, d.t_ns});
        cell.cpu_ms.push_back({d.cpu_ns * 1e-6, d.t_ns});
        cell.io_ms.push_back(d.io_s * 1e3);
      }
      if (deltas != nullptr) deltas->push_back(d);
    }
  }

  // The end-to-end timings at reference host speed. throughput_ops is
  // queries over their summed Run time, which is the phase clock's time.
  void Summarize(const PhaseClock& phase, int rounds) {
    const HostSpeed& speed = result_->speed;
    std::vector<double> cell_wall, cell_raw, cell_modeled, all, all_raw;
    for (const Cell& cell : cells_) {
      cell_wall.push_back(cell.MedianWall(speed));
      cell_raw.push_back(Median(RawValues(cell.wall_ms)));
      cell_modeled.push_back(cell.MedianModeled(speed));
      const std::vector<double> wall = AtReferenceSpeed(cell.wall_ms, speed);
      all.insert(all.end(), wall.begin(), wall.end());
      const std::vector<double> raw = RawValues(cell.wall_ms);
      all_raw.insert(all_raw.end(), raw.begin(), raw.end());
    }
    double tail_pct = 0.0;
    const double tail = Tail(all, &tail_pct);
    double total_ms = 0.0;
    for (double ms : all) total_ms += ms;
    auto& v = result_->values;
    v["geomean_ms"] = GeoMean(cell_wall);
    v["modeled_geomean_ms"] = GeoMean(cell_modeled);
    v["latency_p50_ms"] = Median(all);
    v["latency_tail_ms"] = tail;
    v["throughput_ops"] = static_cast<double>(all.size()) / (total_ms * 1e-3);
    std::printf("timed phase: %d rounds x %zu cells = %zu queries in %.2f s "
                "of Run time; tail = p%g of n=%zu\n",
                rounds, cells_.size(), all.size(), phase.seconds(), tail_pct,
                all.size());
    std::printf("measured, before rescaling to reference host speed: "
                "geomean_ms %.4f, latency_p50_ms %.4f, throughput_ops %.3f\n",
                GeoMean(cell_raw), Median(all_raw),
                static_cast<double>(all.size()) / phase.seconds());
  }

  // Single-triple writes after a set-up's timed rounds, so
  // write_geomean_us is defined on the paper workloads too: inserts of new
  // subjects into every updatable store, a read-back, then deletes where
  // supported. Adds the latencies to `samples`.
  void WriteProbe(WriteSamples* samples) {
    const rdf::Dataset& data = world_->barton.dataset;
    const uint64_t type = *data.dict().Find("<type>");
    const uint64_t text = *data.dict().Find("<Text>");
    for (size_t s = 0; s < world_->stores.size(); ++s) {
      core::RdfStore& store = *world_->stores[s];
      const std::string& label = world_->labels[s];
      if (label == "cstore") continue;  // read-only engine
      // Only the column engines delete (the row B+trees have no delete).
      const bool deletes = label.rfind("col_", 0) == 0;
      for (const bool insert : {true, false}) {
        if (!insert && !deletes) continue;
        std::vector<Sample>& us = (*samples)[{label, insert}];
        for (int i = 0; i < kProbeWrites; ++i) {
          const rdf::Triple t{*data.dict().Find(ProbeSubject(i)), type, text};
          result_->speed.MaybeProbe();
          const int64_t t0 = WallNanos();
          const Status st = insert ? store.Insert(t) : store.Delete(t);
          us.push_back({static_cast<double>(WallNanos() - t0) * 1e-3, t0});
          ++result_->attempted;
          if (!st.ok()) {
            ++result_->failed;
            std::printf("FAILED %s on %s: %s\n", insert ? "insert" : "delete",
                        label.c_str(), st.ToString().c_str());
          }
        }
        if (!insert) continue;
        const rdf::TriplePattern probe{
            *data.dict().Find(ProbeSubject(0)), type, std::nullopt};
        ++result_->attempted;
        if (store.Match(probe, ectx_).size() != 1) {
          ++result_->failed;
          result_->checks_passed = false;
          std::printf("WRONG ROWS: store %s does not return an inserted "
                      "triple\n", label.c_str());
        }
      }
    }
  }

  // Traced run: an untraced pass of whole rounds for half the time, then
  // the same number of rounds with spans and counter snapshots. Counts
  // come from the first traced round (they repeat exactly per seed).
  void RunTraced() {
    PhaseClock untraced;
    int rounds = 0;
    while (rounds == 0 || untraced.seconds() < config_.seconds / 2) {
      // Both passes time whole rounds, checks included, so their
      // difference is what the spans and snapshots cost.
      untraced.Start();
      Round(nullptr, false, off_, nullptr);
      untraced.Stop();
      ++rounds;
    }
    result_->spans = std::make_unique<SpanRecorder>(true);
    std::vector<RunDelta> deltas;
    PhaseClock traced;
    const exec::OpCounters::Snapshot ops0 = ectx_.counters().Snap();
    for (int r = 0; r < rounds; ++r) {
      traced.Start();
      Round(nullptr, true, *result_->spans, &deltas);
      traced.Stop();
    }
    const exec::OpCounters::Snapshot ops1 = ectx_.counters().Snap();
    auto& v = result_->values;
    v["obs.trace_overhead_pct"] =
        100.0 * (traced.seconds() - untraced.seconds()) / untraced.seconds();
    v["exec.morsels"] = static_cast<double>(ops1.morsels - ops0.morsels);
    v["exec.parallel_regions"] =
        static_cast<double>(ops1.parallel_regions - ops0.parallel_regions);

    // Per store: first-round I/O counts, pool hit ratio over the phase,
    // geomean of per-query median Run wall time.
    const size_t per_round = cells_.size();
    double wall_sum = 0, cpu_sum = 0;
    for (size_t s = 0; s < world_->stores.size(); ++s) {
      const std::string& label = world_->labels[s];
      double bytes = 0, seeks = 0, io_ms = 0, nbytes = 0, nmsgs = 0, nio = 0;
      double hits = 0, misses = 0;
      std::vector<double> medians;
      for (size_t c = 0; c < per_round; ++c) {
        if (cells_[c].store != s) continue;
        const RunDelta& first = deltas[c];
        bytes += static_cast<double>(first.bytes);
        seeks += static_cast<double>(first.seeks);
        io_ms += first.io_s * 1e3;
        nbytes += static_cast<double>(first.net_bytes);
        nmsgs += static_cast<double>(first.net_messages);
        nio += first.net_s * 1e3;
        medians.push_back(cells_[c].MedianWall(result_->speed));
      }
      for (size_t i = 0; i < deltas.size(); ++i) {
        if (cells_[i % per_round].store != s) continue;
        hits += static_cast<double>(deltas[i].pool_hits);
        misses += static_cast<double>(deltas[i].pool_misses);
      }
      v["storage.bytes_read." + label] = bytes;
      v["storage.seeks." + label] = seeks;
      v["storage.io_ms." + label] = io_ms;
      v["storage.pool_hit_ratio." + label] =
          hits + misses > 0 ? hits / (hits + misses) : 1.0;
      v["core.run_ms." + label] = GeoMean(medians);
      if (label == "col_vert_n2") {
        v["net.bytes.col_vert_n2"] = nbytes;
        v["net.messages.col_vert_n2"] = nmsgs;
        v["net.io_ms.col_vert_n2"] = nio;
      }
    }
    for (const RunDelta& d : deltas) {
      wall_sum += d.wall_ns;
      cpu_sum += d.cpu_ns;
    }
    v["core.offcpu_pct"] =
        wall_sum > 0 ? 100.0 * (wall_sum - cpu_sum) / wall_sum : 0.0;
    for (QueryId id : core::AllQueries()) {
      std::vector<double> medians;
      for (const Cell& cell : cells_) {
        if (cell.query == id) medians.push_back(cell.MedianWall(result_->speed));
      }
      v["core.query_ms." + QueryLabel(id)] = GeoMean(medians);
    }
    char header[256];
    std::snprintf(header, sizeof(header),
                  "\"rounds\": %d, \"operations\": %zu, "
                  "\"untraced_wall_s\": %.9f, \"traced_wall_s\": %.9f",
                  rounds, deltas.size(), untraced.seconds(),
                  traced.seconds());
    result_->trace_header = header;
    std::printf("traced run: %d untraced + %d traced rounds of %zu queries\n",
                rounds, rounds, per_round);
  }

  const RunConfig& config_;
  const bool hot_;
  RunResult* result_;
  exec::ExecContext ectx_;
  World* world_ = nullptr;  // the set-up being measured
  std::vector<Cell> cells_;
  uint64_t requests_ = 0;
  SpanRecorder off_{false};  // the untraced passes
};

}  // namespace

RunResult RunPaper(const RunConfig& config, bool hot) {
  RunResult result;
  PaperRun run(config, hot, &result);
  run.Run();
  return result;
}

}  // namespace swan::perfbench
