// Cost-record agreement: the bench harness's Measurement, the profile
// root of the same run, and the query-log record of a served request all
// come from core::CostMeter readings, so on one store state they must
// report identical bytes, seeks, network traffic and I/O seconds. Two
// stores with identical histories stand in for "one store state": the
// simulated disk's seek model remembers the last page read, so the harness
// runs on one and the service on its twin. A sharded store is the case
// that matters: reading the coordinator's disk alone would report one
// node's bytes and no network traffic.

#include <gtest/gtest.h>

#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "bench_support/barton_generator.h"
#include "bench_support/harness.h"
#include "core/profiling.h"
#include "core/store.h"
#include "obs/querylog.h"
#include "obs/telemetry.h"
#include "serve/service.h"
#include "sparql/sparql.h"

namespace swan {
namespace {

using core::QueryId;

// The cost fields the three reports share.
struct Cost {
  uint64_t bytes = 0;
  uint64_t seeks = 0;
  uint64_t net_bytes = 0;
  uint64_t net_messages = 0;
  double io_seconds = 0.0;

  bool operator==(const Cost&) const = default;
};

void PrintTo(const Cost& c, std::ostream* os) {
  *os << "{bytes " << c.bytes << ", seeks " << c.seeks << ", net "
      << c.net_bytes << "B/" << c.net_messages << "msg, io " << c.io_seconds
      << "s}";
}

Cost FromRoot(const obs::SpanNode& root) {
  return {root.bytes(), root.seeks(), root.net_bytes(), root.net_messages(),
          root.vt_seconds()};
}

Cost FromRecord(const obs::QueryLogRecord& r) {
  return {r.bytes_read, r.seeks, r.net_bytes, r.net_messages, r.io_seconds};
}

struct StoreCase {
  std::string name;
  core::StoreOptions options;
};

void PrintTo(const StoreCase& c, std::ostream* os) { *os << c.name; }

StoreCase ShardedVertical() {
  StoreCase c{"vert_n4", {}};
  c.options.scheme = core::StorageScheme::kVerticalPartitioned;
  c.options.engine = core::EngineKind::kColumnStore;
  c.options.nodes = 4;
  return c;
}

StoreCase RowTriplePso() {
  StoreCase c{"row_pso", {}};
  c.options.scheme = core::StorageScheme::kTripleStore;
  c.options.engine = core::EngineKind::kRowStore;
  c.options.clustering = rdf::TripleOrder::kPSO;
  return c;
}

class CostAgreementTest : public ::testing::TestWithParam<StoreCase> {
 protected:
  void SetUp() override {
    bench_support::BartonConfig config;
    config.target_triples = 12000;
    config.seed = 7;
    barton_ = bench_support::GenerateBarton(config);
    measured_ = core::RdfStore::Open(barton_.dataset, GetParam().options);
    served_ = core::RdfStore::Open(barton_.dataset, GetParam().options);
  }

  bench_support::BartonDataset barton_;
  std::unique_ptr<core::RdfStore> measured_;  // harness + shell bracket
  std::unique_ptr<core::RdfStore> served_;    // the service's twin
};

TEST_P(CostAgreementTest, HarnessProfileAndQueryLogAgree) {
  const core::QueryContext ctx =
      bench_support::MakeBartonContext(barton_.dataset, 28);
  serve::ServiceOptions options;
  options.workers = 1;
  options.cache_bytes = 0;
  serve::QueryService service(served_.get(), ctx, options);
  Result<serve::Session*> session = service.OpenSession("agree");
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  const exec::ExecContext ectx(1);

  // Cold runs on both twins, in the same order.
  std::vector<bench_support::Measurement> measured;
  for (QueryId id : core::AllQueries()) {
    measured.push_back(bench_support::MeasureColdProfiled(
        &measured_->backend(), id, ctx, ectx));
    served_->backend().DropCaches();
    serve::Request request;
    request.kind = serve::Request::Kind::kBench;
    request.bench_id = id;
    ASSERT_TRUE(service.Submit(session.value(), request).ok());
    service.Start();
    service.Drain();
    service.Pause();
  }
  const std::vector<obs::QueryLogRecord> log =
      service.telemetry().LogSnapshot();
  ASSERT_EQ(log.size(), measured.size());

  uint64_t net_bytes = 0;
  for (size_t i = 0; i < measured.size(); ++i) {
    const bench_support::Measurement& m = measured[i];
    SCOPED_TRACE(ToString(core::AllQueries()[i]));
    ASSERT_NE(m.profile, nullptr);
    const Cost harness{m.bytes_read, m.seeks, m.net_bytes, m.net_messages,
                       m.io_seconds};
    EXPECT_GT(harness.bytes, 0u);
    EXPECT_EQ(harness, FromRoot(m.profile->root()));
    EXPECT_EQ(harness, FromRecord(log[i]));
    EXPECT_EQ(m.profile->RootRealSeconds(), m.real_seconds);
    net_bytes += harness.net_bytes;
  }
  const int nodes = GetParam().options.nodes;
  EXPECT_EQ(net_bytes > 0, nodes > 1);
  EXPECT_EQ(log.front().nodes, nodes);
}

// The shell's bracket — a ScopedProfile, the record filled from its
// cost() by CostDelta::FillRecord — against the profile root, the
// profile's metrics fold, and a served SPARQL request on the twin store.
TEST_P(CostAgreementTest, SparqlRecordMatchesProfileRoot) {
  const std::string query =
      "SELECT ?s ?t WHERE { ?s <type> <Text> . ?s <language> ?t } LIMIT 3";
  const exec::ExecContext ectx(1);
  core::Backend& backend = measured_->backend();
  backend.DropCaches();
  core::ScopedProfile scoped("query", backend, ectx);
  auto result = sparql::Execute(backend, barton_.dataset, query, ectx,
                                &measured_->stats());
  const std::shared_ptr<obs::TraceSession> session = scoped.Finish();
  const core::CostDelta& cost = scoped.cost();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  obs::QueryLogRecord record;
  cost.FillRecord(&record);
  EXPECT_GT(record.bytes_read, 0u);
  EXPECT_EQ(FromRecord(record), FromRoot(session->root()));
  EXPECT_EQ(cost.real_seconds, session->RootRealSeconds());
  EXPECT_EQ(cost.real_seconds, cost.cpu_seconds + cost.io_seconds);
  const obs::MetricsRegistry::Snapshot folded = session->metrics().Snap();
  EXPECT_EQ(folded.counters.at("disk.bytes_read"), cost.bytes_read);
  EXPECT_EQ(folded.counters.at("disk.seeks"), cost.seeks);
  EXPECT_EQ(folded.counters.at("disk.reads"), cost.reads);

  serve::ServiceOptions options;
  options.workers = 1;
  options.cache_bytes = 0;
  serve::QueryService service(served_.get(), std::nullopt, options);
  Result<serve::Session*> served_session = service.OpenSession("agree");
  ASSERT_TRUE(served_session.ok());
  served_->backend().DropCaches();
  serve::Request request;
  request.kind = serve::Request::Kind::kSparql;
  request.text = query;
  ASSERT_TRUE(service.Submit(served_session.value(), request).ok());
  service.Start();
  service.Drain();
  const std::vector<obs::QueryLogRecord> log =
      service.telemetry().LogSnapshot();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_TRUE(log[0].ok) << log[0].error;
  EXPECT_EQ(FromRecord(log[0]), FromRecord(record));
}

INSTANTIATE_TEST_SUITE_P(Stores, CostAgreementTest,
                         ::testing::Values(ShardedVertical(), RowTriplePso()),
                         [](const ::testing::TestParamInfo<StoreCase>& info) {
                           return info.param.name;
                         });

}  // namespace
}  // namespace swan
