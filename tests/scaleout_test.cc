// Scale-out equivalence and model tests: the sharded backend must return
// the same row bags as the single-node reference for all 12 benchmark
// queries at every node count and thread width; placement must be a pure
// function of the data; network cost must be visible in the counters and
// obey the documented lock order (network above disk).

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "bench_support/barton_generator.h"
#include "bench_support/query_bgps.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "core/bgp.h"
#include "core/profiling.h"
#include "core/reference_backend.h"
#include "core/store.h"
#include "net/network_model.h"
#include "net/topology.h"
#include "shard/placement.h"
#include "shard/sharded_backend.h"
#include "sparql/sparql.h"

namespace swan {
namespace {

using bench_support::BartonConfig;
using bench_support::GenerateBarton;
using bench_support::MakeBartonContext;
using core::QueryId;

struct ScaleCombo {
  int nodes;
  bool vertical;
};

class ScaleoutEquivalenceTest : public ::testing::TestWithParam<ScaleCombo> {};

TEST_P(ScaleoutEquivalenceTest, AllQueriesMatchReferenceAtAllWidths) {
  BartonConfig config;
  config.target_triples = 12000;
  config.seed = 7;
  const auto barton = GenerateBarton(config);
  const core::QueryContext ctx = MakeBartonContext(barton.dataset, 28);

  core::ReferenceBackend reference(barton.dataset);
  shard::ShardOptions options;
  options.nodes = GetParam().nodes;
  options.vertical = GetParam().vertical;
  shard::ShardedBackend sharded(barton.dataset, options);

  for (QueryId id : core::AllQueries()) {
    core::QueryResult expected = reference.Run(id, ctx);
    for (int threads : {1, 8}) {
      exec::ExecContext ectx(threads);
      core::QueryResult got = sharded.Run(id, ctx, ectx);
      EXPECT_TRUE(expected.SameRows(got))
          << sharded.name() << " diverged on " << ToString(id) << " at "
          << threads << " thread(s)";
    }
    // Cold runs see the same rows.
    sharded.DropCaches();
    core::QueryResult cold = sharded.Run(id, ctx);
    EXPECT_TRUE(expected.SameRows(cold)) << "cold " << ToString(id);
  }
}

TEST_P(ScaleoutEquivalenceTest, MatchAgreesWithReference) {
  BartonConfig config;
  config.target_triples = 8000;
  const auto barton = GenerateBarton(config);
  const core::QueryContext ctx = MakeBartonContext(barton.dataset, 28);
  const core::Vocabulary& v = ctx.vocab();

  core::ReferenceBackend reference(barton.dataset);
  shard::ShardOptions options;
  options.nodes = GetParam().nodes;
  options.vertical = GetParam().vertical;
  shard::ShardedBackend sharded(barton.dataset, options);

  const uint64_t some_subject = barton.dataset.triples().front().subject;
  const std::vector<rdf::TriplePattern> patterns = {
      {{}, v.type, v.text},        // (?s, p, o)
      {{}, v.type, {}},            // (?s, p, ?o)
      {some_subject, {}, {}},      // (s, ?p, ?o)
      {some_subject, v.type, {}},  // (s, p, ?o)
      {{}, {}, v.text},            // (?s, ?p, o)
  };
  for (const rdf::TriplePattern& pattern : patterns) {
    std::vector<rdf::Triple> expected = reference.Match(pattern);
    std::vector<rdf::Triple> got = sharded.Match(pattern);
    std::sort(expected.begin(), expected.end());
    std::sort(got.begin(), got.end());
    EXPECT_EQ(expected, got) << pattern.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(
    NodesAndEngines, ScaleoutEquivalenceTest,
    ::testing::Values(ScaleCombo{1, true}, ScaleCombo{2, true},
                      ScaleCombo{4, true}, ScaleCombo{1, false},
                      ScaleCombo{2, false}, ScaleCombo{4, false}),
    [](const ::testing::TestParamInfo<ScaleCombo>& info) {
      return std::string(info.param.vertical ? "vert" : "triple") + "_n" +
             std::to_string(info.param.nodes);
    });

TEST(PlacementTest, DeterministicAndBalanced) {
  BartonConfig config;
  config.target_triples = 12000;
  const auto barton = GenerateBarton(config);

  shard::Placement a(barton.dataset.triples(), {4, 2.0});
  shard::Placement b(barton.dataset.triples(), {4, 2.0});
  EXPECT_EQ(a.node_loads(), b.node_loads());
  EXPECT_EQ(a.split_properties(), b.split_properties());

  // Every node carries a nontrivial share (greedy bin-pack + sub-split).
  uint64_t total = 0;
  for (uint64_t load : a.node_loads()) total += load;
  EXPECT_EQ(total, barton.dataset.triples().size());
  for (uint64_t load : a.node_loads()) {
    EXPECT_GT(load, total / 16) << "a node is nearly empty";
  }

  // Placement agrees with itself triple by triple.
  for (const rdf::Triple& t : barton.dataset.triples()) {
    const int home = a.HomeNode(t.property);
    if (home >= 0) {
      EXPECT_EQ(a.NodeOf(t), home);
    } else {
      EXPECT_EQ(a.NodeOf(t), a.SubjectNode(t.subject));
    }
  }
}

TEST(ScaleoutNetworkTest, CrossPartitionQueriesChargeTheNetwork) {
  BartonConfig config;
  config.target_triples = 8000;
  const auto barton = GenerateBarton(config);
  const core::QueryContext ctx = MakeBartonContext(barton.dataset, 28);

  shard::ShardOptions options;
  options.nodes = 4;
  shard::ShardedBackend sharded(barton.dataset, options);

  exec::ExecContext ectx(1);
  (void)sharded.Run(QueryId::kQ5, ctx, ectx);

  EXPECT_GT(sharded.TotalNetBytes(), 0u);
  EXPECT_GT(sharded.TotalNetMessages(), 0u);
  EXPECT_GT(sharded.NetSeconds(), 0.0);
  const auto snap = ectx.counters().Snap();
  EXPECT_GT(snap.net_bytes, 0u);
  EXPECT_GT(snap.net_messages, 0u);

  // The virtual clock folds network time on top of the slowest node.
  EXPECT_GE(sharded.VirtualSeconds(),
            sharded.topology().MaxNodeSeconds() + sharded.NetSeconds() - 1e-12);

  // Per-link stats are consistent with the totals.
  uint64_t link_bytes = 0;
  for (const net::LinkStats& link : sharded.topology().network().PerLink()) {
    EXPECT_NE(link.src, link.dst) << "local transfers must not be charged";
    link_bytes += link.bytes;
  }
  EXPECT_EQ(link_bytes, sharded.TotalNetBytes());
}

TEST(ScaleoutNetworkTest, SingleNodeTopologyShipsNothing) {
  BartonConfig config;
  config.target_triples = 6000;
  const auto barton = GenerateBarton(config);
  const core::QueryContext ctx = MakeBartonContext(barton.dataset, 28);

  shard::ShardOptions options;
  options.nodes = 1;
  shard::ShardedBackend sharded(barton.dataset, options);
  for (QueryId id : core::AllQueries()) (void)sharded.Run(id, ctx);
  EXPECT_EQ(sharded.TotalNetBytes(), 0u);
  EXPECT_EQ(sharded.TotalNetMessages(), 0u);
  EXPECT_EQ(sharded.NetSeconds(), 0.0);
}

TEST(ScaleoutNetworkTest, NetworkModelIsOrderIndependent) {
  exec::ExecContext ectx(1);
  net::NetworkConfig config;
  net::NetworkModel forward(4, config), reverse(4, config);
  forward.Ship(0, 1, 1000, 2, ectx);
  forward.Ship(2, 3, 500, 1, ectx);
  reverse.Ship(2, 3, 500, 1, ectx);
  reverse.Ship(0, 1, 1000, 2, ectx);
  EXPECT_DOUBLE_EQ(forward.seconds(), reverse.seconds());
  EXPECT_EQ(forward.total_bytes(), reverse.total_bytes());
  EXPECT_EQ(forward.total_messages(), reverse.total_messages());
}

TEST(ScaleoutStoreTest, StoreFacadeOpensShardedColumnStore) {
  BartonConfig config;
  config.target_triples = 8000;
  const auto barton = GenerateBarton(config);
  const core::QueryContext ctx = MakeBartonContext(barton.dataset, 28);

  core::StoreOptions single;
  auto reference_store = core::RdfStore::Open(barton.dataset, single);

  core::StoreOptions scaled = single;
  scaled.nodes = 2;
  auto sharded_store = core::RdfStore::Open(barton.dataset, scaled);
  EXPECT_NE(sharded_store->backend().dist(), nullptr);
  EXPECT_EQ(sharded_store->backend().dist()->nodes(), 2);

  // Fixed benchmark queries and ad-hoc BGPs agree across the node count.
  for (QueryId id : {QueryId::kQ1, QueryId::kQ2, QueryId::kQ5}) {
    core::QueryResult expected = reference_store->Run(id, ctx);
    core::QueryResult got = sharded_store->Run(id, ctx);
    EXPECT_TRUE(expected.SameRows(got)) << ToString(id);
  }
  for (const auto& bgp : bench_support::BenchmarkBgps(ctx.vocab())) {
    auto expected = reference_store->ExecuteBgp(bgp.patterns);
    auto got = sharded_store->ExecuteBgp(bgp.patterns);
    ASSERT_TRUE(expected.ok() && got.ok()) << bgp.name;
    core::QueryResult expected_rows{expected.value().vars,
                                    expected.value().rows};
    core::QueryResult got_rows{got.value().vars, got.value().rows};
    EXPECT_TRUE(expected_rows.SameRows(got_rows)) << bgp.name;
  }
}

// Set-at-a-time extension on a sharded store: each extension step sends
// one key batch per node per key chunk instead of one message per binding
// row. The full answer is the same bag of rows as one node's; the order
// follows the nodes, so LIMIT is checked against the 4-node answer's head.
TEST(ScaleoutStoreTest, BatchedExtensionSendsOneMessagePerNodePerChunk) {
  BartonConfig config;
  config.target_triples = 100000;
  const auto barton = GenerateBarton(config);
  const std::string all =
      "SELECT ?s ?t WHERE { ?s <type> <Text> . ?s <language> ?t }";
  const std::string query = all + " LIMIT 3";

  core::StoreOptions single;
  auto one_node = core::RdfStore::Open(barton.dataset, single);
  core::StoreOptions scaled = single;
  scaled.nodes = 4;
  auto four_nodes = core::RdfStore::Open(barton.dataset, scaled);

  const exec::ExecContext ectx(1);
  auto rows_of = [&](const core::RdfStore& store, const std::string& text) {
    auto out = sparql::Execute(store.backend(), barton.dataset, text, ectx,
                               &store.stats());
    EXPECT_TRUE(out.ok()) << out.status().ToString();
    std::vector<std::vector<uint64_t>> rows;
    for (const auto& row : out.value().rows) rows.push_back(row.ids);
    return rows;
  };
  // Node order decides which rows come first, so across node counts the
  // full answers agree as bags and LIMIT keeps the 4-node answer's head.
  auto expected = rows_of(*one_node, all);
  auto full = rows_of(*four_nodes, all);
  ASSERT_GE(full.size(), 3u);
  const std::vector<std::vector<uint64_t>> head(full.begin(),
                                                full.begin() + 3);
  std::sort(expected.begin(), expected.end());
  std::sort(full.begin(), full.end());
  EXPECT_EQ(full, expected);

  core::ScopedProfile profile("query", four_nodes->backend(), ectx);
  const auto limited = rows_of(*four_nodes, query);
  const std::shared_ptr<obs::TraceSession> session = profile.Finish();
  EXPECT_EQ(limited, head);

  // Every extension step: at most one message per node per key chunk
  // (the chunk count of rows_in keys bounds that of the distinct keys),
  // plus the step's one forward key batch.
  size_t steps = 0;
  std::vector<const obs::SpanNode*> stack = {&session->root()};
  while (!stack.empty()) {
    const obs::SpanNode* node = stack.back();
    stack.pop_back();
    for (const auto& child : node->children) stack.push_back(child.get());
    if (node->name.rfind("bgp.extend", 0) != 0) continue;
    ++steps;
    EXPECT_LE(node->net_messages(),
              scaled.nodes * core::KeyChunks(node->rows_in) + 1)
        << node->name << " rows_in " << node->rows_in;
  }
  EXPECT_GE(steps, 1u);
}

// A step that binds a second known variable groups its rows by that
// variable's values and makes one MatchBatch per key chunk of each group,
// so the nodes x chunks bound above holds per group, not per step. Here
// the cost-based plan extends (?s <type> <Text>), then (?s ?p ?t), then
// (?s <language> ?t) with ?s and ?t known: it keys on ?s and groups by ?t,
// whose values are nearly distinct per row, so the last step sends about
// one message per row, as probing row by row did.
TEST(ScaleoutStoreTest, GroupedExtensionStepSendsOneMessagePerGroupChunk) {
  BartonConfig config;
  config.target_triples = 20000;
  const auto barton = GenerateBarton(config);
  const std::string prefix =
      "SELECT ?s ?t WHERE { ?s <type> <Text> . ?s ?p ?t }";
  const std::string query =
      "SELECT ?s ?t WHERE { ?s <type> <Text> . ?s <language> ?t . "
      "?s ?p ?t }";

  core::StoreOptions single;
  auto one_node = core::RdfStore::Open(barton.dataset, single);
  core::StoreOptions scaled = single;
  scaled.nodes = 4;
  auto four_nodes = core::RdfStore::Open(barton.dataset, scaled);

  const exec::ExecContext ectx(1);
  auto rows_of = [&](const core::RdfStore& store, const std::string& text) {
    auto out = sparql::Execute(store.backend(), barton.dataset, text, ectx,
                               &store.stats());
    EXPECT_TRUE(out.ok()) << out.status().ToString();
    std::vector<std::vector<uint64_t>> rows;
    for (const auto& row : out.value().rows) rows.push_back(row.ids);
    return rows;
  };
  // The last step's binding rows, and its MatchBatch calls: the key
  // chunks of each ?t group's distinct ?s keys.
  const auto bindings = rows_of(*four_nodes, prefix);
  std::map<uint64_t, std::set<uint64_t>> subjects_of;
  for (const auto& row : bindings) subjects_of[row[1]].insert(row[0]);
  uint64_t calls = 0;
  for (const auto& [t, subjects] : subjects_of) {
    calls += core::KeyChunks(subjects.size());
  }
  ASSERT_GT(calls, core::KeyChunks(bindings.size()));
  ASSERT_LE(calls, bindings.size());

  auto expected = rows_of(*one_node, query);
  core::ScopedProfile profile("query", four_nodes->backend(), ectx);
  auto got = rows_of(*four_nodes, query);
  const std::shared_ptr<obs::TraceSession> session = profile.Finish();
  std::sort(expected.begin(), expected.end());
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, expected);

  const obs::SpanNode* last = nullptr;
  for (const auto& child : session->root().children) {
    if (child->name.rfind("bgp.extend", 0) == 0) last = child.get();
  }
  ASSERT_NE(last, nullptr);
  ASSERT_EQ(last->rows_in, bindings.size()) << "plan order changed";
  // At most one message per node per call, plus the forward key batch.
  EXPECT_LE(last->net_messages(), scaled.nodes * calls + 1)
      << "calls " << calls << " rows_in " << last->rows_in;
  EXPECT_GT(last->net_messages(), 0u);
}

TEST(ScaleoutStoreTest, WritesRouteToOwningNode) {
  BartonConfig config;
  config.target_triples = 6000;
  const auto barton = GenerateBarton(config);
  const core::QueryContext ctx = MakeBartonContext(barton.dataset, 28);

  core::StoreOptions scaled;
  scaled.nodes = 4;
  auto store = core::RdfStore::Open(barton.dataset, scaled);

  const rdf::Triple existing = barton.dataset.triples().front();
  EXPECT_FALSE(store->Insert(existing).ok()) << "duplicate must be rejected";

  const uint64_t v1 = 1, v2 = 2;  // small interned ids always exist
  rdf::Triple fresh{v1, ctx.vocab().type, v2};
  if (store->Match(rdf::TriplePattern{v1, ctx.vocab().type, v2}).empty()) {
    const uint64_t before = store->snapshot_version();
    ASSERT_TRUE(store->Insert(fresh).ok());
    EXPECT_EQ(store->snapshot_version(), before + 1);
    EXPECT_EQ(store->Match(rdf::TriplePattern{v1, ctx.vocab().type, v2}).size(),
              1u);
    ASSERT_TRUE(store->Delete(fresh).ok());
    EXPECT_TRUE(
        store->Match(rdf::TriplePattern{v1, ctx.vocab().type, v2}).empty());
  }
}

// The documented direction: network (350) above disk (300) — shipping
// may charge the network, then read the destination node's disk.
void AcquireDiskUnderNetwork() SWAN_NO_THREAD_SAFETY_ANALYSIS {
  Mutex network(LockRank::kNetwork, "test.network");
  Mutex disk(LockRank::kStorageDisk, "test.disk");
  MutexLock n(&network);
  MutexLock d(&disk);
}

void AcquireNetworkUnderDisk() SWAN_NO_THREAD_SAFETY_ANALYSIS {
  Mutex network(LockRank::kNetwork, "test.network");
  Mutex disk(LockRank::kStorageDisk, "test.disk");
  MutexLock d(&disk);
  MutexLock n(&network);
}

TEST(ScaleoutLockRankTest, DiskUnderNetworkIsTheLegalDirection) {
  AcquireDiskUnderNetwork();  // must not abort
  SUCCEED();
}

TEST(ScaleoutLockRankDeathTest, NetworkUnderDiskAborts) {
  if (!LockRankChecksEnabled()) GTEST_SKIP() << "rank checks compiled out";
  EXPECT_DEATH(AcquireNetworkUnderDisk(), "lock-rank violation");
}

TEST(ScaleoutCoordinatorTest, AffinityMovesTheGatherNode) {
  BartonConfig config;
  config.target_triples = 6000;
  const auto barton = GenerateBarton(config);
  const core::QueryContext ctx = MakeBartonContext(barton.dataset, 28);

  shard::ShardOptions options;
  options.nodes = 2;
  shard::ShardedBackend sharded(barton.dataset, options);
  core::ReferenceBackend reference(barton.dataset);

  EXPECT_EQ(sharded.dist()->Coordinator(), 0);
  sharded.dist()->SetCoordinator(1);
  EXPECT_EQ(sharded.dist()->Coordinator(), 1);
  EXPECT_EQ(sharded.coordinator(), 1);

  // Results are coordinator-independent; only link attribution moves.
  core::QueryResult expected = reference.Run(QueryId::kQ2, ctx);
  core::QueryResult got = sharded.Run(QueryId::kQ2, ctx);
  EXPECT_TRUE(expected.SameRows(got));
}

}  // namespace
}  // namespace swan
