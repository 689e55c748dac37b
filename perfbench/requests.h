#ifndef SWANDB_PERFBENCH_REQUESTS_H_
#define SWANDB_PERFBENCH_REQUESTS_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "rdf/dataset.h"
#include "rdf/triple.h"

namespace swan::perfbench {

// One request of the sparql_mixed stream. Reads are SPARQL texts over the
// benchmark vocabulary in the paper's join shapes; writes are single-triple
// inserts and deletes.
struct MixedRequest {
  enum class Kind { kRead, kInsert, kDelete };
  Kind kind = Kind::kRead;
  int store = 0;    // index into the workload's store list
  int session = 0;  // session index within that store's service
  // Reads: the served text, the template it came from ("A.star2", ...),
  // and whether it repeats an earlier read of the same store.
  std::string text;
  std::string shape;
  bool repeat = false;
  // Reads under LIMIT: the limit and the same query without it, which is
  // what the oracle evaluates (LIMIT without ORDER BY picks any rows).
  std::optional<uint64_t> limit;
  std::string full_text;
  // Writes.
  rdf::Triple triple{0, 0, 0};
};

// The stream spreads over the two sparql_mixed stores, request i going to
// store i % kMixedStores: store 0 is col_vert, store 1 row_pso_small.
// Each store is served by kSessionsPerStore sessions, round-robin.
constexpr int kMixedStores = 2;
constexpr int kSessionsPerStore = 4;

// The mix actually drawn, by kind, shape and store.
struct MixShares {
  uint64_t reads = 0;
  uint64_t repeats = 0;
  uint64_t inserts = 0;
  uint64_t deletes = 0;
  uint64_t limited = 0;
  std::map<std::string, uint64_t> by_shape;
  std::vector<uint64_t> by_store;

  std::string Describe() const;
};

// Generates a seeded stream of `count` requests over `dataset`. New subject terms for
// inserts are interned into the dataset's dictionary here, so this must
// run before any store is opened over the dataset. Queries are drawn from
// fixed templates with constants sampled from the data; nothing is
// screened by how it performs. The same seed and dataset give a
// byte-identical stream (see Serialize).
std::vector<MixedRequest> GenerateRequests(rdf::Dataset* dataset,
                                           uint64_t seed, size_t count,
                                           MixShares* shares);

// One line per request; used to compare streams byte for byte.
std::string Serialize(const std::vector<MixedRequest>& requests);

}  // namespace swan::perfbench

#endif  // SWANDB_PERFBENCH_REQUESTS_H_
