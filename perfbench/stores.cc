#include "stores.h"

#include <cstdio>
#include <cstdlib>

#include "common.h"
#include "workloads.h"

namespace swan::perfbench {

namespace {

core::StoreOptions OptionsFor(const std::string& label,
                              const core::QueryContext& ctx) {
  using core::EngineKind;
  using core::StorageScheme;
  core::StoreOptions o;
  o.clustering = rdf::TripleOrder::kPSO;
  o.codec = colstore::ColumnCodec::kRaw;
  if (label == "row_pso" || label == "row_pso_small") {
    o.scheme = StorageScheme::kTripleStore;
    o.engine = EngineKind::kRowStore;
    if (label == "row_pso_small") o.pool_pages = kSmallPoolPages;
  } else if (label == "row_vert") {
    o.scheme = StorageScheme::kVerticalPartitioned;
    o.engine = EngineKind::kRowStore;
  } else if (label == "col_pso") {
    o.scheme = StorageScheme::kTripleStore;
    o.engine = EngineKind::kColumnStore;
  } else if (label == "col_vert" || label == "col_vert_auto" ||
             label == "col_vert_n2") {
    o.scheme = StorageScheme::kVerticalPartitioned;
    o.engine = EngineKind::kColumnStore;
    if (label == "col_vert_auto") o.codec = colstore::ColumnCodec::kAuto;
    if (label == "col_vert_n2") o.nodes = 2;
  } else if (label == "cstore") {
    // As in the paper's grid: C-Store loads the interesting properties.
    o.scheme = StorageScheme::kVerticalPartitioned;
    o.engine = EngineKind::kCStore;
    o.cstore_properties = ctx.interesting_properties();
  } else {
    std::fprintf(stderr, "perfbench: unknown store label '%s'\n",
                 label.c_str());
    std::exit(2);
  }
  return o;
}

}  // namespace

const std::vector<std::string>& AllStoreLabels() {
  static const std::vector<std::string> labels = {
      "row_pso", "row_vert",    "col_pso",     "col_vert",
      "col_vert_auto", "cstore", "col_vert_n2", "row_pso_small"};
  return labels;
}

double World::setup_seconds() const {
  double total = generate_seconds;
  for (double s : open_seconds) total += s;
  return total;
}

std::unique_ptr<World> BuildWorld(
    uint64_t seed, const std::vector<std::string>& labels,
    const std::function<void(rdf::Dataset*)>& before_open,
    HostSpeed* speed) {
  const auto probe = [speed] {
    if (speed != nullptr) speed->Probe(2);
  };
  auto world = std::make_unique<World>();
  bench_support::BartonConfig config;
  config.target_triples = kTriples;
  config.seed = seed;

  world->started_ns = WallNanos();
  probe();
  const int64_t gen_start = WallNanos();
  world->barton = bench_support::GenerateBarton(config);
  world->generate_seconds = static_cast<double>(WallNanos() - gen_start) * 1e-9;

  if (before_open) before_open(&world->barton.dataset);
  world->ctx.emplace(
      bench_support::MakeBartonContext(world->barton.dataset, 28));

  world->labels = labels;
  for (const std::string& label : labels) {
    const core::StoreOptions options = OptionsFor(label, *world->ctx);
    probe();
    const int64_t start = WallNanos();
    world->stores.push_back(
        core::RdfStore::Open(world->barton.dataset, options));
    world->open_seconds.push_back(
        static_cast<double>(WallNanos() - start) * 1e-9);
  }
  probe();
  world->ended_ns = WallNanos();
  return world;
}

std::unique_ptr<World> RepeatedSetup(
    const RunConfig& config, const std::vector<std::string>& labels,
    const std::function<void(rdf::Dataset*, int)>& before_open,
    RunResult* result, const std::function<void(World*, int)>& measure) {
  std::vector<double> setup, raw_setup, generate;
  std::vector<std::vector<double>> open(labels.size());
  std::unique_ptr<World> world;
  for (int i = 0; i < kSetups; ++i) {
    world.reset();  // one world alive at a time
    world = BuildWorld(config.seed, labels,
                       [&](rdf::Dataset* dataset) { before_open(dataset, i); },
                       &result->speed);
    // Set-up times at reference host speed, from the probes taken
    // during this set-up.
    const double factor =
        result->speed.FactorOver(world->started_ns, world->ended_ns);
    raw_setup.push_back(world->setup_seconds());
    setup.push_back(world->setup_seconds() * factor);
    generate.push_back(world->generate_seconds * factor);
    for (size_t s = 0; s < labels.size(); ++s) {
      open[s].push_back(world->open_seconds[s] * factor);
    }
    if (measure) measure(world.get(), i);
  }
  result->values["setup_s"] = Median(setup);
  result->values["bench_support.generate_s"] = Median(generate);
  for (size_t s = 0; s < labels.size(); ++s) {
    result->values["core.open_s." + labels[s]] = Median(open[s]);
  }
  std::printf("setup: %d x (generate %llu triples + open %zu stores), "
              "median %.3f s measured, %.3f s at reference host speed\n",
              kSetups,
              static_cast<unsigned long long>(world->barton.dataset.size()),
              labels.size(), Median(raw_setup), result->values["setup_s"]);
  return world;
}

void RecordFootprint(const World& world, RunResult* result) {
  uint64_t total = 0;
  for (size_t s = 0; s < world.labels.size(); ++s) {
    const core::RdfStore& store = *world.stores[s];
    const uint64_t bytes = store.disk_bytes();
    total += bytes;
    result->values["storage.disk_bytes." + world.labels[s]] =
        static_cast<double>(bytes);
    const storage::BufferPool* pool = store.backend().buffer_pool();
    const double pool_bytes =
        pool != nullptr
            ? static_cast<double>(pool->capacity_pages()) * storage::kPageSize
            : 0.0;
    std::printf("  store %-14s %-28s disk %9.2f MB, buffer pool %9.2f MB "
                "(%s)\n",
                world.labels[s].c_str(), store.name().c_str(), bytes / 1e6,
                pool_bytes / 1e6,
                pool == nullptr                ? "no pool"
                : pool_bytes >= static_cast<double>(bytes) ? "store fits"
                                               : "store does NOT fit");
  }
  result->values["bytes_per_triple"] =
      static_cast<double>(total) /
      static_cast<double>(world.barton.dataset.size());
}

}  // namespace swan::perfbench
