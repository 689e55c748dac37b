// Differential test of Backend::MatchBatch: for every backend, a batched
// probe must equal the concatenation of per-key Match calls, run for run
// and in order, with unmerged column inserts and tombstones present and at
// widths 1 and 8. A second check holds the BGP interpreter to a naive
// per-row Match extension over the same stores.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench_support/barton_generator.h"
#include "common/random.h"
#include "core/bgp.h"
#include "core/col_backends.h"
#include "core/cstore_backend.h"
#include "core/property_table_backend.h"
#include "core/reference_backend.h"
#include "core/row_backends.h"
#include "exec/thread_pool.h"
#include "shard/sharded_backend.h"

namespace swan::core {
namespace {

using rdf::TripleComponent;

struct BackendCase {
  std::string name;
  std::function<std::unique_ptr<Backend>(const rdf::Dataset&)> make;
};

std::vector<BackendCase> AllBackends() {
  auto sharded = [](int nodes) {
    return [nodes](const rdf::Dataset& d) -> std::unique_ptr<Backend> {
      shard::ShardOptions options;
      options.nodes = nodes;
      return std::make_unique<shard::ShardedBackend>(d, options);
    };
  };
  return {
      {"col_triple_pso",
       [](const rdf::Dataset& d) -> std::unique_ptr<Backend> {
         return std::make_unique<ColTripleBackend>(d, rdf::TripleOrder::kPSO);
       }},
      {"col_triple_spo",
       [](const rdf::Dataset& d) -> std::unique_ptr<Backend> {
         return std::make_unique<ColTripleBackend>(d, rdf::TripleOrder::kSPO);
       }},
      {"col_vert_raw",
       [](const rdf::Dataset& d) -> std::unique_ptr<Backend> {
         return std::make_unique<ColVerticalBackend>(d);
       }},
      {"col_vert_auto",
       [](const rdf::Dataset& d) -> std::unique_ptr<Backend> {
         return std::make_unique<ColVerticalBackend>(
             d, storage::DiskConfig{}, 4096, colstore::ColumnCodec::kAuto);
       }},
      {"row_triple",
       [](const rdf::Dataset& d) -> std::unique_ptr<Backend> {
         return std::make_unique<RowTripleBackend>(
             d, rowstore::TripleRelation::PsoConfig());
       }},
      {"row_vert",
       [](const rdf::Dataset& d) -> std::unique_ptr<Backend> {
         return std::make_unique<RowVerticalBackend>(d);
       }},
      {"property_table",
       [](const rdf::Dataset& d) -> std::unique_ptr<Backend> {
         return std::make_unique<PropertyTableBackend>(d);
       }},
      {"cstore",
       [](const rdf::Dataset& d) -> std::unique_ptr<Backend> {
         std::vector<uint64_t> properties;
         for (const rdf::Triple& t : d.triples()) {
           properties.push_back(t.property);
         }
         std::sort(properties.begin(), properties.end());
         properties.erase(std::unique(properties.begin(), properties.end()),
                          properties.end());
         return std::make_unique<CStoreBackend>(d, properties);
       }},
      {"reference",
       [](const rdf::Dataset& d) -> std::unique_ptr<Backend> {
         return std::make_unique<ReferenceBackend>(d);
       }},
      {"sharded_n2", sharded(2)},
      {"sharded_n4", sharded(4)},
  };
}

class MatchBatchTest : public ::testing::TestWithParam<BackendCase> {
 protected:
  void SetUp() override {
    bench_support::BartonConfig config;
    config.target_triples = 4000;
    config.seed = 11;
    barton_ = bench_support::GenerateBarton(config);
    backend_ = GetParam().make(barton_.dataset);
    exec::SetThreads(8);

    // Unmerged writes: fresh (subject, property, object) combinations of
    // existing ids go to the write store, and existing triples are
    // tombstoned. Engines without writes refuse them, which is fine.
    const auto& triples = barton_.dataset.triples();
    Rng rng(17);
    for (int i = 0; i < 40; ++i) {
      const rdf::Triple& a = triples[rng.Uniform(triples.size())];
      const rdf::Triple& b = triples[rng.Uniform(triples.size())];
      const Status inserted =
          backend_->Insert({a.subject, b.property, b.object});
      EXPECT_TRUE(inserted.ok() ||
                  inserted.code() == StatusCode::kAlreadyExists ||
                  inserted.code() == StatusCode::kUnimplemented)
          << inserted.ToString();
      const Status deleted =
          backend_->Delete(triples[rng.Uniform(triples.size())]);
      EXPECT_TRUE(deleted.ok() || deleted.code() == StatusCode::kNotFound ||
                  deleted.code() == StatusCode::kUnimplemented)
          << deleted.ToString();
    }
  }

  void TearDown() override { exec::SetThreads(1); }

  // A seeded key set for `slot`: present values of the slot, values that
  // never occur there (ids of other slots and ids past the dictionary),
  // repeats, and — when `padded` — the kUnbound key an OPTIONAL-padded
  // binding row contributes. Sorted and deduplicated, as the interpreter
  // hands keys to MatchBatch.
  std::vector<uint64_t> Keys(Rng* rng, TripleComponent slot, bool padded) {
    const auto& triples = barton_.dataset.triples();
    std::vector<uint64_t> keys;
    const int count = 1 + static_cast<int>(rng->Uniform(60));
    for (int i = 0; i < count; ++i) {
      const rdf::Triple& t = triples[rng->Uniform(triples.size())];
      const uint64_t roll = rng->Uniform(10);
      if (roll < 6) {
        keys.push_back(SlotValue(t, slot));
      } else if (roll < 8) {
        keys.push_back(SlotValue(t, static_cast<TripleComponent>(
                                        (static_cast<int>(slot) + 1) % 3)));
      } else {
        keys.push_back(barton_.dataset.dict().size() + rng->Uniform(100));
      }
      if (rng->Chance(0.2)) keys.push_back(keys.back());  // a repeat
    }
    if (padded) keys.push_back(plan::kUnbound);
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
    return keys;
  }

  void ExpectBatchEqualsMatches(const rdf::TriplePattern& pattern,
                                TripleComponent slot,
                                const std::vector<uint64_t>& keys, int width) {
    const exec::ExecContext ectx(width);
    const MatchRuns runs = backend_->MatchBatch(pattern, slot, keys, ectx);
    ASSERT_EQ(runs.keys(), keys.size());
    ASSERT_EQ(runs.offsets.back(), runs.triples.size());
    for (size_t i = 0; i < keys.size(); ++i) {
      const std::vector<rdf::Triple> expected =
          backend_->Match(WithSlot(pattern, slot, keys[i]), ectx);
      const auto run = runs.Run(i);
      ASSERT_EQ(std::vector<rdf::Triple>(run.begin(), run.end()), expected)
          << GetParam().name << " slot " << static_cast<int>(slot) << " key "
          << keys[i] << " pattern " << pattern.ToString() << " width "
          << width;
    }
  }

  bench_support::BartonDataset barton_;
  std::unique_ptr<Backend> backend_;
};

TEST_P(MatchBatchTest, BatchEqualsConcatenatedMatches) {
  const auto& triples = barton_.dataset.triples();
  Rng rng(2024);
  for (int trial = 0; trial < 24; ++trial) {
    const rdf::Triple& t = triples[rng.Uniform(triples.size())];
    const bool padded = trial % 3 == 0;
    // Subject keys under a bound and an unbound property, with and
    // without a bound object.
    for (bool property : {true, false}) {
      rdf::TriplePattern pattern;
      if (property) pattern.property = t.property;
      if (property && trial % 2 == 1) pattern.object = t.object;
      const auto keys = Keys(&rng, TripleComponent::kSubject, padded);
      for (int width : {1, 8}) {
        ExpectBatchEqualsMatches(pattern, TripleComponent::kSubject, keys,
                                 width);
      }
    }
    // Object keys, alone and under a bound subject.
    for (bool subject : {false, true}) {
      rdf::TriplePattern pattern;
      if (trial % 2 == 0) pattern.property = t.property;
      if (subject) pattern.subject = t.subject;
      const auto keys = Keys(&rng, TripleComponent::kObject, padded);
      for (int width : {1, 8}) {
        ExpectBatchEqualsMatches(pattern, TripleComponent::kObject, keys,
                                 width);
      }
    }
    // Property keys under a bound subject or object.
    rdf::TriplePattern pattern;
    if (trial % 2 == 0) {
      pattern.subject = t.subject;
    } else {
      pattern.object = t.object;
    }
    const auto keys = Keys(&rng, TripleComponent::kProperty, padded);
    for (int width : {1, 8}) {
      ExpectBatchEqualsMatches(pattern, TripleComponent::kProperty, keys,
                               width);
    }
  }
}

// The interpreter against a naive oracle: patterns in textual order, each
// binding row extended by its own Match call.
std::vector<std::vector<uint64_t>> NaiveExtension(
    const Backend& backend, const std::vector<BgpPattern>& patterns,
    std::vector<std::string>* vars) {
  std::vector<std::vector<uint64_t>> rows = {{}};
  for (const BgpPattern& p : patterns) {
    std::vector<int> col(3, -1);
    const Term* terms[3] = {&p.subject, &p.property, &p.object};
    const size_t known = vars->size();
    for (int s = 0; s < 3; ++s) {
      if (!terms[s]->is_var) continue;
      const auto it = std::find(vars->begin(), vars->end(), terms[s]->var);
      col[s] = static_cast<int>(it - vars->begin());
      if (it == vars->end()) vars->push_back(terms[s]->var);
    }
    std::vector<std::vector<uint64_t>> next;
    for (const auto& row : rows) {
      rdf::TriplePattern tp;
      std::optional<uint64_t>* slots[3] = {&tp.subject, &tp.property,
                                           &tp.object};
      for (int s = 0; s < 3; ++s) {
        if (col[s] < 0) {
          *slots[s] = terms[s]->id;
        } else if (static_cast<size_t>(col[s]) < known) {
          *slots[s] = row[static_cast<size_t>(col[s])];
        }
      }
      for (const rdf::Triple& t : backend.Match(tp)) {
        std::vector<uint64_t> out = row;
        out.resize(vars->size(), plan::kUnbound);
        const uint64_t values[3] = {t.subject, t.property, t.object};
        bool consistent = true;
        for (int s = 0; s < 3; ++s) {
          if (col[s] < 0) continue;
          uint64_t& cell = out[static_cast<size_t>(col[s])];
          if (cell != plan::kUnbound && cell != values[s]) consistent = false;
          cell = values[s];
        }
        if (consistent) next.push_back(std::move(out));
      }
    }
    rows = std::move(next);
  }
  return rows;
}

TEST_P(MatchBatchTest, InterpreterEqualsPerRowProbing) {
  const auto& triples = barton_.dataset.triples();
  Rng rng(99);
  auto var = [](const char* name) { return Term::Var(name); };
  for (int trial = 0; trial < 6; ++trial) {
    const rdf::Triple& a = triples[rng.Uniform(triples.size())];
    const rdf::Triple& b = triples[rng.Uniform(triples.size())];
    const std::vector<std::vector<BgpPattern>> queries = {
        // Subject join, then an unbound-property subject join.
        {{var("s"), Term::Const(a.property), var("o")},
         {var("s"), var("p"), var("x")}},
        // Object-object join.
        {{Term::Const(a.subject), Term::Const(a.property), var("o")},
         {var("s2"), var("p2"), var("o")}},
        // Property join.
        {{Term::Const(b.subject), var("p"), var("o")},
         {var("s"), var("p"), var("o2")}},
        // Two known variables in one step, and a repeated variable.
        {{var("s"), Term::Const(a.property), var("o")},
         {var("o"), Term::Const(b.property), var("t")},
         {var("s"), var("q"), var("t")}},
        {{var("x"), var("p"), var("x")}},
    };
    for (const auto& query : queries) {
      std::vector<std::string> vars;
      const auto expected = NaiveExtension(*backend_, query, &vars);
      plan::PlannerOptions as_written;
      as_written.mode = plan::PlanMode::kAsWritten;
      for (int width : {1, 8}) {
        auto got = ExecuteBgp(*backend_, query, exec::ExecContext(width),
                              as_written);
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        // The result is in textual variable order, which the naive
        // extension also follows.
        ASSERT_EQ(got.value().vars, vars);
        EXPECT_EQ(got.value().rows, expected)
            << GetParam().name << " width " << width;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Backends, MatchBatchTest, ::testing::ValuesIn(AllBackends()),
    [](const ::testing::TestParamInfo<BackendCase>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace swan::core
