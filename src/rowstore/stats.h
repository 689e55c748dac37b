#ifndef SWANDB_ROWSTORE_STATS_H_
#define SWANDB_ROWSTORE_STATS_H_

#include <cstdint>
#include <span>
#include <unordered_map>

#include "rdf/pattern.h"
#include "rdf/triple.h"

namespace swan::rowstore {

// Optimizer statistics over a triple relation: the histograms a
// commercial row store ("DBX") keeps to pick between a clustered-index
// scan, a secondary-index range scan with row fetches, and a full scan.
struct TripleStats {
  uint64_t total_triples = 0;
  std::unordered_map<uint64_t, uint64_t> subject_count;
  std::unordered_map<uint64_t, uint64_t> property_count;
  std::unordered_map<uint64_t, uint64_t> object_count;

  // Each count map is filled from one radix sort of that component's
  // values: a distinct key is inserted once, with its run length, into a
  // map reserved to the exact number of distinct keys.
  static TripleStats Compute(std::span<const rdf::Triple> triples);

  // Estimated number of triples matching `pattern`, using per-component
  // frequencies and an attribute-independence assumption — the textbook
  // System-R style estimate.
  double EstimateMatches(const rdf::TriplePattern& pattern) const;

  uint64_t CountOf(const std::unordered_map<uint64_t, uint64_t>& map,
                   uint64_t key) const {
    auto it = map.find(key);
    return it == map.end() ? 0 : it->second;
  }
};

}  // namespace swan::rowstore

#endif  // SWANDB_ROWSTORE_STATS_H_
