// sparql_mixed: a seeded stream of SPARQL reads and single-triple writes
// served through serve::QueryService by one closed-loop client (Submit,
// then Drain), sessions round-robin, result cache on, over col_vert and
// row_pso_small. Every read is checked afterwards against sparql::Execute
// on a ReferenceBackend replica that receives the same writes.

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/bgp.h"
#include "core/reference_backend.h"
#include "exec/exec_context.h"
#include "plan/optimizer.h"
#include "requests.h"
#include "serve/service.h"
#include "sparql/sparql.h"
#include "workloads.h"

namespace swan::perfbench {

namespace {

const std::vector<std::string>& MixedStores() {
  static const std::vector<std::string> labels = {"col_vert",
                                                  "row_pso_small"};
  return labels;
}

// Requests generated per set-up.
constexpr size_t kStreamLength = 20000;
// Requests served per second of --seconds, spread evenly over the set-ups:
// about what the host the benchmark was tuned on serves in that time. A
// fixed count, not a deadline, so a run serves the same requests -- the
// same mix of cache hits, misses and writes -- however fast the host is.
constexpr double kRequestsPerSecond = 800.0;
// The traced run serves this fixed prefix once per set-up (see
// RunTraced), so its counts repeat exactly for one seed.
constexpr size_t kTracePrefix = 600;
static_assert(kSetups == 3, "RunTraced runs one pass kind per set-up");

// Forwards every call to the wrapped backend and times Match, the
// interpreter's only way into the storage engine.
class TimingBackend : public core::Backend {
 public:
  explicit TimingBackend(core::Backend& inner) : inner_(inner) {}

  std::string name() const override { return inner_.name(); }
  bool Supports(core::QueryId id) const override {
    return inner_.Supports(id);
  }
  using Backend::Match;
  using Backend::Run;
  core::QueryResult Run(core::QueryId id, const core::QueryContext& ctx,
                        const exec::ExecContext& ectx) override {
    return inner_.Run(id, ctx, ectx);
  }
  std::vector<rdf::Triple> Match(
      const rdf::TriplePattern& pattern,
      const exec::ExecContext& ectx) const override {
    const int64_t t0 = WallNanos();
    std::vector<rdf::Triple> out = inner_.Match(pattern, ectx);
    match_ns_ += WallNanos() - t0;
    match_rows_ += out.size();
    ++match_calls_;
    return out;
  }
  plan::AccessHints PlannerHints() const override {
    return inner_.PlannerHints();
  }
  void DropCaches() override { inner_.DropCaches(); }
  storage::SimulatedDisk* disk() override { return inner_.disk(); }
  const storage::SimulatedDisk* disk() const override {
    return static_cast<const core::Backend&>(inner_).disk();
  }
  core::DistRouting* dist() const override { return inner_.dist(); }
  double VirtualSeconds() const override { return inner_.VirtualSeconds(); }
  uint64_t TotalBytesRead() const override { return inner_.TotalBytesRead(); }
  uint64_t TotalReads() const override { return inner_.TotalReads(); }
  uint64_t TotalSeeks() const override { return inner_.TotalSeeks(); }
  const storage::BufferPool* buffer_pool() const override {
    return inner_.buffer_pool();
  }
  uint64_t disk_bytes() const override { return inner_.disk_bytes(); }

  int64_t match_ns() const { return match_ns_; }
  uint64_t match_rows() const { return match_rows_; }
  uint64_t match_calls() const { return match_calls_; }

 private:
  core::Backend& inner_;
  mutable int64_t match_ns_ = 0;
  mutable uint64_t match_rows_ = 0;
  mutable uint64_t match_calls_ = 0;
};

// The oracle replica: a ReferenceBackend, which holds the triple set and
// its write semantics, with Match answered from subject, object and
// property hash indexes over the same triples. The naive backend's
// full-scan Match would make every index-nested-loop plan cost one pass
// over all triples per binding row. Every 256th indexed Match is compared
// with the ReferenceBackend's own Match.
class IndexedReplica : public core::Backend {
 public:
  explicit IndexedReplica(const rdf::Dataset& dataset) : base_(dataset) {
    for (const rdf::Triple& t : dataset.triples()) Index(t);
  }

  std::string name() const override { return "reference replica"; }
  using Backend::Match;
  using Backend::Run;
  core::QueryResult Run(core::QueryId id, const core::QueryContext& ctx,
                        const exec::ExecContext& ectx) override {
    return base_.Run(id, ctx, ectx);
  }
  std::vector<rdf::Triple> Match(
      const rdf::TriplePattern& pattern,
      const exec::ExecContext& ectx) const override {
    const Buckets* index = pattern.subject    ? &by_subject_
                           : pattern.object   ? &by_object_
                           : pattern.property ? &by_property_
                                              : nullptr;
    if (index == nullptr) return base_.Match(pattern, ectx);
    const uint64_t key = pattern.subject    ? *pattern.subject
                         : pattern.object   ? *pattern.object
                                            : *pattern.property;
    std::vector<rdf::Triple> out;
    const auto it = index->find(key);
    if (it != index->end()) {
      for (const rdf::Triple& t : it->second) {
        if (pattern.Matches(t)) out.push_back(t);
      }
    }
    if (++calls_ % 256 == 0) {
      std::vector<rdf::Triple> full = base_.Match(pattern, ectx);
      std::vector<rdf::Triple> mine = out;
      std::sort(full.begin(), full.end());
      std::sort(mine.begin(), mine.end());
      if (full != mine) ++divergences_;
    }
    return out;
  }
  Status Insert(const rdf::Triple& triple) override {
    const Status st = base_.Insert(triple);
    if (st.ok()) Index(triple);
    return st;
  }
  Status Delete(const rdf::Triple& triple) override {
    const Status st = base_.Delete(triple);
    if (st.ok()) {
      Unindex(&by_subject_, triple.subject, triple);
      Unindex(&by_property_, triple.property, triple);
      Unindex(&by_object_, triple.object, triple);
    }
    return st;
  }
  void DropCaches() override {}
  storage::SimulatedDisk* disk() override { return base_.disk(); }
  const storage::SimulatedDisk* disk() const override {
    return static_cast<const core::Backend&>(base_).disk();
  }
  uint64_t disk_bytes() const override { return 0; }

  uint64_t divergences() const { return divergences_; }

 private:
  using Buckets = std::unordered_map<uint64_t, std::vector<rdf::Triple>>;

  void Index(const rdf::Triple& t) {
    by_subject_[t.subject].push_back(t);
    by_property_[t.property].push_back(t);
    by_object_[t.object].push_back(t);
  }
  static void Unindex(Buckets* index, uint64_t key, const rdf::Triple& t) {
    std::vector<rdf::Triple>& bucket = (*index)[key];
    bucket.erase(std::find(bucket.begin(), bucket.end(), t));
  }

  core::ReferenceBackend base_;
  Buckets by_subject_, by_property_, by_object_;
  mutable uint64_t calls_ = 0;
  mutable uint64_t divergences_ = 0;
};

// What the oracle pass needs to know about one served request.
struct LogEntry {
  size_t index = 0;  // position in the stream
  uint64_t rows = 0;
  uint64_t digest = 0;
  std::vector<std::vector<uint64_t>> limited_rows;  // LIMIT reads only
  bool ok = true;
};

// Per-store service state of one pass.
struct Served {
  core::RdfStore* store = nullptr;
  std::unique_ptr<serve::QueryService> service;
  std::vector<serve::Session*> sessions;
  bool wrote_since_read = false;
};

// Samples and counters of one pass over the stream.
struct PassStats {
  size_t served = 0;
  PhaseClock phase;  // serving time, summed over passes
  std::vector<Sample> all_ms, read_after_write_ms;
  std::map<std::pair<int, MixedRequest::Kind>, std::vector<Sample>> write_us;
  size_t writes = 0;
  // Executed reads (cache misses) by (store, template): wall time, and the
  // serve tier's modeled time split into its CPU part and virtual I/O.
  std::map<std::pair<int, std::string>, std::vector<Sample>> read_ms,
      modeled_cpu_ms;
  std::map<std::pair<int, std::string>, std::vector<double>> modeled_io_ms;
  uint64_t reads = 0, hits = 0;
  // Traced pass only.
  std::vector<double> parse_us, optimize_us, overhead_us;
  double bgp_self_ms = 0, match_ms = 0;
  uint64_t match_rows = 0, result_rows = 0;
  std::vector<double> pool_hits, pool_misses, bytes, seeks, io_ms;
  uint64_t match_calls = 0, morsels = 0, regions = 0, invalidations = 0;
  std::vector<uint64_t> digests;  // per served request, for pass equality
};

class MixedRun {
 public:
  MixedRun(const RunConfig& config, RunResult* result)
      : config_(config), result_(result) {}

  void Run() {
    if (config_.trace) {
      RunTraced();
      return;
    }
    // Each set-up serves its own stream for its share of --seconds; the
    // samples pool across set-ups.
    PassStats stats;
    RepeatedSetup(
        config_, MixedStores(), Generate(), result_,
        [&](World* world, int i) {
          if (i == 0) Describe(*world);
          SpanRecorder off(false);
          const size_t count = static_cast<size_t>(
              config_.seconds * kRequestsPerSecond / kSetups);
          Pass(world, std::max<size_t>(count, 1), false, &off, &stats);
        });
    Report(stats);
  }

 private:
  void Describe(const World& world) {
    std::printf("request mix: %s\n", shares_.Describe().c_str());
    RecordFootprint(world, result_);
    std::printf("output check: every read is compared with sparql::Execute "
                "on a ReferenceBackend replica (hash-indexed Match, every "
                "256th call cross-checked by full scan); this oracle shares "
                "the SPARQL parser and planner with the program (ROADMAP "
                "item 5)\n");
  }

  // Set-up i serves its own stream, drawn from the seed and i, so the
  // three set-ups add distinct requests to the sample. The traced run
  // serves one stream in every set-up.
  std::function<void(rdf::Dataset*, int)> Generate() {
    static_assert(kMixedStores == 2, "MixedStores() lists the stream's stores");
    return [this](rdf::Dataset* dataset, int setup) {
      const uint64_t stream = config_.trace ? 0 : static_cast<uint64_t>(setup);
      const uint64_t seed = config_.seed ^ (0x9e3779b97f4a7c15ULL * stream);
      requests_ = GenerateRequests(
          dataset, seed, config_.trace ? kTracePrefix : kStreamLength,
          &shares_);
    };
  }

  std::vector<Served> StartServices(const World& world) {
    std::vector<Served> served(world.labels.size());
    serve::ServiceOptions options;
    options.workers = std::max(1, std::min(4, config_.fingerprint.nproc));
    for (size_t s = 0; s < served.size(); ++s) {
      served[s].store = world.stores[s].get();
      served[s].service = std::make_unique<serve::QueryService>(
          served[s].store, std::nullopt, options);
      for (int i = 0; i < kSessionsPerStore; ++i) {
        Result<serve::Session*> session =
            served[s].service->OpenSession("client" + std::to_string(i));
        served[s].sessions.push_back(session.value());
      }
      served[s].service->Start();
    }
    return served;
  }

  static serve::Request ToRequest(const MixedRequest& r) {
    serve::Request request;
    switch (r.kind) {
      case MixedRequest::Kind::kRead:
        request.kind = serve::Request::Kind::kSparql;
        request.text = r.text;
        break;
      case MixedRequest::Kind::kInsert:
        request.kind = serve::Request::Kind::kInsert;
        request.triple = r.triple;
        break;
      case MixedRequest::Kind::kDelete:
        request.kind = serve::Request::Kind::kDelete;
        request.triple = r.triple;
        break;
    }
    return request;
  }

  // Serves the first `count` requests of the stream on fresh services,
  // then checks every completion against the oracle. The host-speed
  // kernel runs between requests, outside every clock. With `replay`,
  // each read is replayed through the decomposed public calls right after
  // it is served; with an enabled `spans`, counters are snapshotted around
  // each served request too. peak_rss_mb covers the services and the
  // serving, not the oracle.
  void Pass(World* world, size_t count, bool replay, SpanRecorder* spans,
            PassStats* out) {
    PassStats& stats = *out;
    PhaseClock& phase = stats.phase;
    const bool traced = spans->enabled();
    result_->rss.Begin();
    std::vector<Served> served = StartServices(*world);
    std::vector<LogEntry> log;
    std::vector<uint64_t> inval0;
    std::vector<exec::OpCounters::Snapshot> ops0;
    for (Served& s : served) {
      for (serve::Session* session : s.sessions) {
        ops0.push_back(session->ectx().counters().Snap());
      }
      inval0.push_back(Invalidations(s));
    }
    if (count > requests_.size()) {
      std::printf("note: the request stream holds %zu requests, fewer than "
                  "the %zu to serve\n",
                  requests_.size(), count);
      count = requests_.size();
    }
    for (size_t i = 0; i < count; ++i) {
      const MixedRequest& r = requests_[i];
      Served& s = served[r.store];
      const core::Backend& backend = s.store->backend();

      result_->speed.MaybeProbe();
      phase.Start();
      const uint64_t root = spans->Begin("bench.request", i + 1);
      const uint64_t serve_span = spans->Begin("serve.request", i + 1, root);
      const BackendSnap before = BackendSnap::Of(backend);
      const int64_t t0 = WallNanos();
      Result<uint64_t> ticket =
          s.service->Submit(s.sessions[r.session], ToRequest(r));
      std::vector<serve::Completion> done;
      if (ticket.ok()) {
        s.service->Drain();
        done = s.service->TakeCompletions();
      }
      const int64_t t1 = WallNanos();
      const BackendSnap after = BackendSnap::Of(backend);
      LogEntry entry;
      entry.index = i;
      entry.ok = ticket.ok() && done.size() == 1 && done[0].status.ok();
      const bool hit = entry.ok && done[0].cache_hit;
      if (traced) {
        const double hits = static_cast<double>(after.pool_hits -
                                                before.pool_hits);
        const double misses = static_cast<double>(after.pool_misses -
                                                  before.pool_misses);
        const double bytes = static_cast<double>(after.bytes - before.bytes);
        const double seeks = static_cast<double>(after.seeks - before.seeks);
        const double io_ms = (after.io_s - before.io_s) * 1e3;
        spans->End(serve_span, {{"cache_hit", hit ? 1.0 : 0.0},
                                {"pool_hits", hits},
                                {"pool_misses", misses},
                                {"bytes_read", bytes},
                                {"seeks", seeks},
                                {"io_ms", io_ms}});
        stats.pool_hits.push_back(hits);
        stats.pool_misses.push_back(misses);
        stats.bytes.push_back(bytes);
        stats.seeks.push_back(seeks);
        stats.io_ms.push_back(io_ms);
      }
      phase.Stop();

      const double ms = static_cast<double>(t1 - t0) * 1e-6;
      ++stats.served;
      stats.all_ms.push_back({ms, t0});
      if (!entry.ok) {
        std::printf("FAILED request %zu (%s): %s\n", i, r.text.c_str(),
                    ticket.ok() ? (done.empty() ? "no completion"
                                                : done[0].status.ToString())
                                        .c_str()
                                : ticket.status().ToString().c_str());
      }
      if (r.kind == MixedRequest::Kind::kRead) {
        ++stats.reads;
        if (hit) {
          ++stats.hits;
        } else {
          stats.read_ms[{r.store, r.shape}].push_back({ms, t0});
        }
        if (entry.ok) {
          if (!hit) {
            const double io_ms = (after.io_s - before.io_s) * 1e3;
            stats.modeled_cpu_ms[{r.store, r.shape}].push_back(
                {done[0].service_seconds * 1e3 - io_ms, t0});
            stats.modeled_io_ms[{r.store, r.shape}].push_back(io_ms);
          }
          entry.rows = done[0].result.rows.size();
          entry.digest = BagDigest(done[0].result.rows);
          if (r.limit) entry.limited_rows = done[0].result.rows;
        }
        if (s.wrote_since_read) {
          stats.read_after_write_ms.push_back({ms, t0});
        }
        s.wrote_since_read = false;
        if (replay) {
          Replay(r, *world, s, ms, hit, root, i + 1, spans, &stats);
        }
      } else {
        stats.write_us[{r.store, r.kind}].push_back({ms * 1e3, t0});
        ++stats.writes;
        s.wrote_since_read = true;
      }
      spans->End(root);
      stats.digests.push_back(entry.digest);
      log.push_back(std::move(entry));
    }
    result_->rss.End();

    size_t k = 0;
    for (size_t si = 0; si < served.size(); ++si) {
      for (serve::Session* session : served[si].sessions) {
        const exec::OpCounters::Snapshot now = session->ectx().counters().Snap();
        stats.match_calls += now.match_calls - ops0[k].match_calls;
        stats.morsels += now.morsels - ops0[k].morsels;
        stats.regions += now.parallel_regions - ops0[k].parallel_regions;
        ++k;
      }
      stats.invalidations += Invalidations(served[si]) - inval0[si];
    }
    for (Served& s : served) s.service->Stop();
    CheckAgainstOracle(*world, served, log);
  }

  static uint64_t Invalidations(Served& s) {
    return s.service->metrics()
        .GetCounter("serve.cache.invalidations")
        ->value();
  }

  // The traced replay of one served read at the same snapshot: Parse,
  // BuildLogicalPlan + Optimize, ExecutePlan over the timing backend.
  void Replay(const MixedRequest& r, const World& world, Served& s,
              double served_ms, bool hit, uint64_t root, uint64_t request,
              SpanRecorder* spans, PassStats* stats) {
    TimingBackend timing(s.store->backend());
    const exec::ExecContext ectx(1);
    const int64_t t0 = WallNanos();
    uint64_t span = spans->Begin("sparql.parse", request, root);
    Result<sparql::ParsedQuery> parsed = sparql::Parse(r.text);
    spans->End(span);
    const int64_t t1 = WallNanos();
    span = spans->Begin("sparql.build_plan", request, root);
    Result<plan::LogicalPlan> logical =
        parsed.ok() ? sparql::BuildLogicalPlan(parsed.value(),
                                               world.barton.dataset)
                    : Result<plan::LogicalPlan>(parsed.status());
    spans->End(span);
    if (!logical.ok()) {
      ReplayFailed(r, logical.status());
      return;
    }
    span = spans->Begin("plan.optimize", request, root);
    plan::PlannerOptions options = s.store->planner_options();
    options.hints = timing.PlannerHints();
    const plan::PhysicalPlan physical = plan::Optimize(logical.value(), options);
    spans->End(span);
    const int64_t t2 = WallNanos();
    span = spans->Begin("core.execute_plan", request, root);
    Result<core::BgpResult> bgp = core::ExecutePlan(timing, physical, ectx);
    const int64_t t3 = WallNanos();
    const double rows = bgp.ok() ? static_cast<double>(bgp.value().rows.size())
                                 : 0.0;
    spans->End(span, {{"match_ns", static_cast<double>(timing.match_ns())},
                      {"match_calls", static_cast<double>(timing.match_calls())},
                      {"match_rows", static_cast<double>(timing.match_rows())},
                      {"result_rows", rows}});
    if (!bgp.ok()) {
      ReplayFailed(r, bgp.status());
      return;
    }
    stats->parse_us.push_back(static_cast<double>(t1 - t0) * 1e-3);
    stats->optimize_us.push_back(static_cast<double>(t2 - t1) * 1e-3);
    const double exec_ms = static_cast<double>(t3 - t2) * 1e-6;
    const double match_ms = static_cast<double>(timing.match_ns()) * 1e-6;
    stats->match_ms += match_ms;
    stats->bgp_self_ms += exec_ms - match_ms;
    stats->match_rows += timing.match_rows();
    stats->result_rows += bgp.value().rows.size();
    if (!hit) {
      const double direct_ms = static_cast<double>(t3 - t0) * 1e-6;
      stats->overhead_us.push_back((served_ms - direct_ms) * 1e3);
    }
  }

  void ReplayFailed(const MixedRequest& r, const Status& status) {
    ++result_->failed;
    result_->checks_passed = false;
    std::printf("FAILED replay of '%s': %s\n", r.text.c_str(),
                status.ToString().c_str());
  }

  // Oracle pass over the log, in serve order: writes go to the store's
  // ReferenceBackend replica, built here from the generated data, reads
  // are evaluated there (memoized per store snapshot) and compared as
  // bags; LIMIT reads must return min(limit, full count) rows, each of
  // them in the full result.
  void CheckAgainstOracle(const World& world, std::vector<Served>& served,
                          const std::vector<LogEntry>& log) {
    using Bag = std::map<std::vector<uint64_t>, uint64_t>;
    std::vector<std::map<std::string, Bag>> memo(served.size());
    const int64_t t0 = WallNanos();
    std::vector<std::unique_ptr<IndexedReplica>> replicas;
    for (size_t s = 0; s < served.size(); ++s) {
      replicas.push_back(
          std::make_unique<IndexedReplica>(world.barton.dataset));
    }
    for (const LogEntry& entry : log) {
      const MixedRequest& r = requests_[entry.index];
      ++result_->attempted;
      if (!entry.ok) {
        ++result_->failed;
        continue;
      }
      IndexedReplica& replica = *replicas[r.store];
      if (r.kind != MixedRequest::Kind::kRead) {
        const Status st = r.kind == MixedRequest::Kind::kInsert
                              ? replica.Insert(r.triple)
                              : replica.Delete(r.triple);
        if (!st.ok()) Mismatch(r, "the replica rejected the write: " +
                                      st.ToString());
        memo[r.store].clear();
        continue;
      }
      auto it = memo[r.store].find(r.full_text);
      if (it == memo[r.store].end()) {
        Result<sparql::QueryOutput> out = sparql::Execute(
            replica, world.barton.dataset, r.full_text, exec::ExecContext(1),
            &served[r.store].store->stats());
        Bag bag;
        if (out.ok()) {
          for (const sparql::Row& row : out.value().rows) ++bag[row.ids];
        } else {
          Mismatch(r, "the oracle failed: " + out.status().ToString());
        }
        it = memo[r.store].emplace(r.full_text, std::move(bag)).first;
      }
      const Bag& full = it->second;
      uint64_t full_rows = 0;
      uint64_t full_digest = 0;
      for (const auto& [row, n] : full) {
        full_rows += n;
        full_digest += n * RowHash(row);
      }
      if (!r.limit) {
        if (entry.rows != full_rows || entry.digest != full_digest) {
          Mismatch(r, "served " + std::to_string(entry.rows) +
                          " rows, the oracle " + std::to_string(full_rows));
        }
        continue;
      }
      const uint64_t want = std::min<uint64_t>(*r.limit, full_rows);
      Bag left = full;
      bool contained = true;
      for (const auto& row : entry.limited_rows) {
        auto found = left.find(row);
        if (found == left.end() || found->second == 0) {
          contained = false;
          break;
        }
        --found->second;
      }
      if (entry.rows != want || !contained) {
        Mismatch(r, "LIMIT read served " + std::to_string(entry.rows) +
                        " rows (want " + std::to_string(want) + ")" +
                        (contained ? "" : ", some not in the full result"));
      }
    }
    for (const auto& replica : replicas) {
      if (replica->divergences() == 0) continue;
      ++result_->failed;
      result_->checks_passed = false;
      std::printf("WRONG ROWS: the oracle's index diverged from the "
                  "ReferenceBackend's Match %llu times\n",
                  static_cast<unsigned long long>(replica->divergences()));
    }
    std::printf("output check: %zu served requests checked against the "
                "oracle in %.2f s\n",
                log.size(), static_cast<double>(WallNanos() - t0) * 1e-9);
  }

  void Mismatch(const MixedRequest& r, const std::string& what) {
    ++result_->failed;
    result_->checks_passed = false;
    std::printf("WRONG ROWS: %s: %s\n", r.text.c_str(), what.c_str());
  }

  // The end-to-end timings at reference host speed. throughput_ops is
  // requests over their summed latency, which is the phase clock's time.
  void Report(const PassStats& stats) {
    // A cell holds one template's executed reads, with different constants
    // and anchors, so its cost is spread over several modes; the geometric
    // mean moves smoothly with their shares where a median would jump.
    // Cache hits show in latency_p50_ms and throughput_ops instead.
    const HostSpeed& speed = result_->speed;
    std::vector<double> cell_ms, cell_raw, cell_modeled, write_groups;
    for (const auto& [cell, samples] : stats.read_ms) {
      cell_ms.push_back(GeoMean(AtReferenceSpeed(samples, speed)));
      cell_raw.push_back(GeoMean(RawValues(samples)));
    }
    for (const auto& [cell, samples] : stats.modeled_cpu_ms) {
      std::vector<double> modeled = AtReferenceSpeed(samples, speed);
      const std::vector<double>& io = stats.modeled_io_ms.at(cell);
      for (size_t i = 0; i < modeled.size(); ++i) modeled[i] += io[i];
      cell_modeled.push_back(GeoMean(modeled));
    }
    for (const auto& [group, samples] : stats.write_us) {
      write_groups.push_back(GeoMean(AtReferenceSpeed(samples, speed)));
      std::printf("writes on %s, %s: %zu, geomean %.2f us at reference host "
                  "speed\n",
                  MixedStores()[group.first].c_str(),
                  group.second == MixedRequest::Kind::kInsert ? "insert"
                                                              : "delete",
                  samples.size(), write_groups.back());
    }
    const std::vector<double> all = AtReferenceSpeed(stats.all_ms, speed);
    double total_ms = 0.0;
    for (double ms : all) total_ms += ms;
    double tail_pct = 0.0;
    const double tail = Tail(all, &tail_pct);
    auto& v = result_->values;
    v["geomean_ms"] = GeoMean(cell_ms);
    v["modeled_geomean_ms"] = GeoMean(cell_modeled);
    v["latency_p50_ms"] = Median(all);
    v["latency_tail_ms"] = tail;
    v["throughput_ops"] = static_cast<double>(stats.served) / (total_ms * 1e-3);
    v["write_geomean_us"] = GeoMean(write_groups);
    std::printf("measured, before rescaling to reference host speed: "
                "geomean_ms %.4f, latency_p50_ms %.4f, throughput_ops %.3f\n",
                GeoMean(cell_raw), Median(RawValues(stats.all_ms)),
                static_cast<double>(stats.served) / stats.phase.seconds());
    std::printf("timed phase: %zu requests (%llu reads, %.1f%% cache hits, "
                "%zu writes) in %.2f s; tail = p%g of n=%zu\n",
                stats.served, static_cast<unsigned long long>(stats.reads),
                stats.reads > 0 ? 100.0 * stats.hits / stats.reads : 0.0,
                stats.writes, stats.phase.seconds(), tail_pct,
                stats.all_ms.size());
  }

  // Traced run: the fixed prefix once per set-up, each on a fresh world
  // built from the same seed with the same stream, so all passes start
  // from the same state and must serve the same rows.
  //   0  untraced: the baseline of obs.trace_overhead_pct.
  //   1  spans and counter snapshots around each served request: the
  //      trace overhead, the storage and serve counts.
  //   2  spans and the decomposed replay of every read right after it is
  //      served: the parse, plan, BGP and Match figures and the span file.
  // Replay re-executes each read on the store, so it warms the store's
  // buffer pool between served requests; pass 1 has no replay, so its
  // pool and I/O counts are those of the served workload alone.
  void RunTraced() {
    std::vector<PassStats> passes(kSetups);
    RepeatedSetup(config_, MixedStores(), Generate(), result_,
                  [&](World* world, int i) {
                    if (i == 0) Describe(*world);
                    SpanRecorder off(false);
                    SpanRecorder counted(true);
                    SpanRecorder* spans = &off;
                    if (i == 1) spans = &counted;
                    if (i == 2) {
                      result_->spans = std::make_unique<SpanRecorder>(true);
                      spans = result_->spans.get();
                    }
                    Pass(world, requests_.size(), /*replay=*/i == 2, spans,
                         &passes[i]);
                  });
    const PassStats& untraced = passes[0];
    const PassStats& counted = passes[1];
    const PassStats& replayed = passes[2];
    if (counted.digests != untraced.digests ||
        replayed.digests != untraced.digests) {
      ++result_->failed;
      result_->checks_passed = false;
      std::printf("WRONG ROWS: the traced passes served different rows than "
                  "the untraced pass\n");
    }

    auto& v = result_->values;
    v["obs.trace_overhead_pct"] =
        100.0 * (counted.phase.seconds() - untraced.phase.seconds()) /
        untraced.phase.seconds();
    v["core.match_calls"] = static_cast<double>(counted.match_calls);
    v["exec.morsels"] = static_cast<double>(counted.morsels);
    v["exec.parallel_regions"] = static_cast<double>(counted.regions);
    v["serve.invalidations"] = static_cast<double>(counted.invalidations);
    v["serve.cache_hit_ratio"] =
        counted.reads > 0 ? static_cast<double>(counted.hits) /
                                static_cast<double>(counted.reads)
                          : 0.0;
    v["core.read_after_write_ms"] =
        Median(AtReferenceSpeed(counted.read_after_write_ms, result_->speed));
    for (size_t s = 0; s < MixedStores().size(); ++s) {
      double hits = 0, misses = 0, bytes = 0, seeks = 0, io_ms = 0;
      for (size_t i = 0; i < counted.served; ++i) {
        if (requests_[i].store != static_cast<int>(s)) continue;
        hits += counted.pool_hits[i];
        misses += counted.pool_misses[i];
        bytes += counted.bytes[i];
        seeks += counted.seeks[i];
        io_ms += counted.io_ms[i];
      }
      const std::string& label = MixedStores()[s];
      v["storage.pool_hit_ratio." + label] =
          hits + misses > 0 ? hits / (hits + misses) : 1.0;
      v["storage.bytes_read." + label] = bytes;
      v["storage.seeks." + label] = seeks;
      v["storage.io_ms." + label] = io_ms;
    }
    v["sparql.parse_us"] = Median(replayed.parse_us);
    v["plan.optimize_us"] = Median(replayed.optimize_us);
    v["core.bgp_self_ms"] = replayed.bgp_self_ms;
    v["core.match_ms"] = replayed.match_ms;
    v["core.rows_examined_per_row"] =
        replayed.result_rows > 0
            ? static_cast<double>(replayed.match_rows) /
                  static_cast<double>(replayed.result_rows)
            : 0.0;
    v["serve.overhead_us"] = Median(replayed.overhead_us);
    char header[256];
    std::snprintf(header, sizeof(header),
                  "\"operations\": %zu, \"untraced_wall_s\": %.9f, "
                  "\"traced_wall_s\": %.9f",
                  replayed.served, untraced.phase.seconds(),
                  counted.phase.seconds());
    result_->trace_header = header;
    std::printf("traced run: %zu requests untraced, traced, then traced with "
                "the decomposed replay of every read (the span file)\n",
                replayed.served);
  }

  const RunConfig& config_;
  RunResult* result_;
  std::vector<MixedRequest> requests_;
  MixShares shares_;
};

}  // namespace

RunResult RunMixed(const RunConfig& config) {
  RunResult result;
  MixedRun run(config, &result);
  run.Run();
  return result;
}

}  // namespace swan::perfbench
