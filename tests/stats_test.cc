// Differential tests for the load-time statistics: plan::StoreStats::Collect
// and rowstore::TripleStats::Compute are checked field by field against a
// naive nested-hash-map oracle, on edge-case graphs and generated data.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "bench_support/barton_generator.h"
#include "common/radix_sort.h"
#include "common/random.h"
#include "core/store.h"
#include "plan/stats.h"
#include "rdf/dataset.h"
#include "rowstore/stats.h"

namespace swan {
namespace {

using CountMap = std::unordered_map<uint64_t, uint64_t>;

// The straightforward one-pass collection: per-property frequency maps of
// subjects and objects, plus global distinct sets.
plan::StoreStats OracleStoreStats(const rdf::Dataset& dataset) {
  plan::StoreStats stats;
  std::unordered_map<uint64_t, CountMap> subj_freq;
  std::unordered_map<uint64_t, CountMap> obj_freq;
  std::unordered_set<uint64_t> subjects;
  std::unordered_set<uint64_t> objects;
  for (const rdf::Triple& t : dataset.triples()) {
    ++stats.total_triples;
    ++stats.by_property[t.property].count;
    ++subj_freq[t.property][t.subject];
    ++obj_freq[t.property][t.object];
    subjects.insert(t.subject);
    objects.insert(t.object);
  }
  stats.distinct_subjects = subjects.size();
  stats.distinct_objects = objects.size();
  for (auto& [property, ps] : stats.by_property) {
    ps.distinct_subjects = subj_freq[property].size();
    ps.distinct_objects = obj_freq[property].size();
    for (const auto& [key, n] : subj_freq[property]) {
      ps.max_subject_freq = std::max(ps.max_subject_freq, n);
    }
    for (const auto& [key, n] : obj_freq[property]) {
      ps.max_object_freq = std::max(ps.max_object_freq, n);
    }
  }
  return stats;
}

void ExpectSameStoreStats(const plan::StoreStats& got,
                          const plan::StoreStats& want) {
  EXPECT_EQ(got.total_triples, want.total_triples);
  EXPECT_EQ(got.distinct_subjects, want.distinct_subjects);
  EXPECT_EQ(got.distinct_objects, want.distinct_objects);
  ASSERT_EQ(got.by_property.size(), want.by_property.size());
  for (const auto& [property, w] : want.by_property) {
    SCOPED_TRACE(testing::Message() << "property " << property);
    const auto it = got.by_property.find(property);
    ASSERT_NE(it, got.by_property.end());
    const plan::PropertyStats& g = it->second;
    EXPECT_EQ(g.count, w.count);
    EXPECT_EQ(g.distinct_subjects, w.distinct_subjects);
    EXPECT_EQ(g.distinct_objects, w.distinct_objects);
    EXPECT_EQ(g.max_subject_freq, w.max_subject_freq);
    EXPECT_EQ(g.max_object_freq, w.max_object_freq);
  }
}

void ExpectSameTripleStats(const rowstore::TripleStats& got,
                           const std::vector<rdf::Triple>& triples) {
  CountMap subjects, properties, objects;
  for (const rdf::Triple& t : triples) {
    ++subjects[t.subject];
    ++properties[t.property];
    ++objects[t.object];
  }
  EXPECT_EQ(got.total_triples, triples.size());
  EXPECT_EQ(got.subject_count, subjects);
  EXPECT_EQ(got.property_count, properties);
  EXPECT_EQ(got.object_count, objects);
}

void ExpectMatchesOracles(const rdf::Dataset& dataset) {
  ExpectSameStoreStats(plan::StoreStats::Collect(dataset),
                       OracleStoreStats(dataset));
  ExpectSameTripleStats(rowstore::TripleStats::Compute(dataset.triples()),
                        dataset.triples());
}

rdf::Dataset DatasetOf(const std::vector<rdf::Triple>& triples) {
  rdf::Dataset dataset;
  for (const rdf::Triple& t : triples) dataset.Add(t);
  return dataset;
}

TEST(StatsDifferentialTest, EmptyDataset) {
  const rdf::Dataset dataset;
  ExpectMatchesOracles(dataset);
  const auto stats = plan::StoreStats::Collect(dataset);
  EXPECT_EQ(stats.total_triples, 0u);
  EXPECT_TRUE(stats.by_property.empty());
}

TEST(StatsDifferentialTest, SingleTriple) {
  const rdf::Dataset dataset = DatasetOf({{7, 3, 9}});
  ExpectMatchesOracles(dataset);
  const auto stats = plan::StoreStats::Collect(dataset);
  const plan::PropertyStats& ps = stats.by_property.at(3);
  EXPECT_EQ(ps.count, 1u);
  EXPECT_EQ(ps.distinct_subjects, 1u);
  EXPECT_EQ(ps.max_object_freq, 1u);
}

TEST(StatsDifferentialTest, SparseIdsNearTwoToTheForty) {
  // Ids that differ only in high bytes, and ids that share every low byte,
  // exercise each radix pass; 12345 is the usual out-of-dictionary id.
  constexpr uint64_t kBase = 1ull << 40;
  std::vector<rdf::Triple> triples;
  Rng rng(5);
  for (uint64_t i = 0; i < 3000; ++i) {
    const uint64_t s = kBase + (rng.Next() % 97) * (1ull << 32);
    const uint64_t p = i % 3 == 0 ? 12345 : kBase - 1 - (i % 5);
    const uint64_t o = i % 7 == 0 ? 12345 : kBase + rng.Next() % 4096;
    triples.push_back({s, p, o});
  }
  triples.push_back({~0ull, ~0ull, ~0ull});
  triples.push_back({0, 0, 0});
  ExpectMatchesOracles(DatasetOf(triples));
}

TEST(StatsDifferentialTest, HeavilySkewedProperty) {
  // One property holds almost every triple, one subject 90% of those and
  // one object most of the rest; a tail of singleton properties.
  std::vector<rdf::Triple> triples;
  for (uint64_t i = 0; i < 20000; ++i) {
    const bool hub = i % 10 != 0;
    triples.push_back({hub ? 1 : i, 100, hub ? i : 5});
  }
  for (uint64_t p = 0; p < 50; ++p) triples.push_back({p, 1000 + p, p});
  const rdf::Dataset dataset = DatasetOf(triples);
  ExpectMatchesOracles(dataset);
  const auto stats = plan::StoreStats::Collect(dataset);
  EXPECT_EQ(stats.by_property.at(100).max_subject_freq, 18000u);
}

class StatsBartonTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StatsBartonTest, MatchesOracleAndAuditsClean) {
  bench_support::BartonConfig config;
  config.target_triples = 12000;
  config.seed = GetParam();
  const auto barton = bench_support::GenerateBarton(config);
  ExpectMatchesOracles(barton.dataset);

  for (const core::EngineKind engine :
       {core::EngineKind::kRowStore, core::EngineKind::kColumnStore}) {
    core::StoreOptions options;
    options.engine = engine;
    options.scheme = core::StorageScheme::kTripleStore;
    auto store = core::RdfStore::Open(barton.dataset, options);
    ExpectSameStoreStats(store->stats(), OracleStoreStats(barton.dataset));
    const auto report = store->Audit(audit::AuditLevel::kFull);
    EXPECT_TRUE(report.ok()) << report.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StatsBartonTest,
                         ::testing::Values(1u, 42u, 2026u));

TEST(RadixSortTest, MatchesStableSortOnWideKeys) {
  // Pairs of (key, original position): equal keys must keep their order.
  Rng rng(11);
  std::vector<std::pair<uint64_t, uint64_t>> v;
  for (uint64_t i = 0; i < 5000; ++i) {
    const uint64_t k = rng.Next();
    v.push_back({i % 4 == 0 ? (k & 0xff00ff) : (k % 64) << (8 * (i % 8)), i});
  }
  auto want = v;
  std::stable_sort(want.begin(), want.end(), [](const auto& a, const auto& b) {
    return a.first < b.first;
  });
  RadixSortBy(&v, [](const auto& e) { return e.first; });
  EXPECT_EQ(v, want);
}

}  // namespace
}  // namespace swan
