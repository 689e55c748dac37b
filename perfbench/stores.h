#ifndef SWANDB_PERFBENCH_STORES_H_
#define SWANDB_PERFBENCH_STORES_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench_support/barton_generator.h"
#include "core/query.h"
#include "common.h"
#include "core/store.h"

namespace swan::perfbench {

// The benchmark's store labels, used in metric names:
//   row_pso        DBX triple store, PSO clustering
//   row_vert       DBX vertical partitioning (SO)
//   col_pso        MonetDB triple store, PSO, raw codec
//   col_vert       MonetDB vertical, raw codec
//   col_vert_auto  MonetDB vertical, codec auto
//   cstore         C-Store (q1-q7 only)
//   col_vert_n2    MonetDB vertical on 2 simulated nodes
//   row_pso_small  row_pso with a buffer pool smaller than the store
const std::vector<std::string>& AllStoreLabels();

// Buffer-pool capacity of row_pso_small, in 8 KiB pages. Smaller than
// that store's on-disk image at the default scale (the run prints both).
constexpr size_t kSmallPoolPages = 512;

// Triples generated per set-up: the repository's 1/100-Barton default.
constexpr uint64_t kTriples = 400'000;

// One set-up: the generated dataset, its benchmark query context and the
// opened stores, plus how long each step took.
struct World {
  bench_support::BartonDataset barton;
  std::optional<core::QueryContext> ctx;
  std::vector<std::string> labels;
  std::vector<std::unique_ptr<core::RdfStore>> stores;  // aligned with labels
  double generate_seconds = 0.0;
  std::vector<double> open_seconds;  // aligned with labels
  // WallNanos() when the set-up started and ended.
  int64_t started_ns = 0, ended_ns = 0;

  double setup_seconds() const;
};

// Generates the Barton-like dataset (GenerateBarton, timed), builds the
// benchmark query context, runs `before_open` on the dataset (untimed:
// the request generator interns its new terms there), then opens every
// labelled store (RdfStore::Open, timed per store). With `speed`, the
// host-speed kernel runs twice before, between and after the timed steps,
// outside their clocks.
std::unique_ptr<World> BuildWorld(
    uint64_t seed, const std::vector<std::string>& labels,
    const std::function<void(rdf::Dataset*)>& before_open = nullptr,
    HostSpeed* speed = nullptr);

}  // namespace swan::perfbench

#endif  // SWANDB_PERFBENCH_STORES_H_
