#include "rowstore/stats.h"

#include <utility>
#include <vector>

#include "common/radix_sort.h"

namespace swan::rowstore {

namespace {

// Sorts `keys` and stores each distinct key's multiplicity in `counts`.
void CountRuns(std::vector<uint64_t>* keys,
               std::unordered_map<uint64_t, uint64_t>* counts) {
  RadixSortBy(keys, [](uint64_t k) { return k; });
  const std::vector<uint64_t>& sorted = *keys;
  size_t distinct = 0;
  for (size_t i = 0; i < sorted.size(); ++i) {
    if (i == 0 || sorted[i] != sorted[i - 1]) ++distinct;
  }
  counts->reserve(distinct);
  for (size_t begin = 0; begin < sorted.size();) {
    size_t end = begin + 1;
    while (end < sorted.size() && sorted[end] == sorted[begin]) ++end;
    counts->emplace(sorted[begin], end - begin);
    begin = end;
  }
}

}  // namespace

TripleStats TripleStats::Compute(std::span<const rdf::Triple> triples) {
  TripleStats stats;
  stats.total_triples = triples.size();
  std::vector<uint64_t> keys(triples.size());
  for (auto [component, counts] :
       {std::pair{&rdf::Triple::subject, &stats.subject_count},
        std::pair{&rdf::Triple::property, &stats.property_count},
        std::pair{&rdf::Triple::object, &stats.object_count}}) {
    for (size_t i = 0; i < triples.size(); ++i) {
      keys[i] = triples[i].*component;
    }
    CountRuns(&keys, counts);
  }
  return stats;
}

double TripleStats::EstimateMatches(const rdf::TriplePattern& pattern) const {
  if (total_triples == 0) return 0.0;
  const double total = static_cast<double>(total_triples);
  double estimate = total;
  if (pattern.subject) {
    estimate *= static_cast<double>(CountOf(subject_count, *pattern.subject)) /
                total;
  }
  if (pattern.property) {
    estimate *=
        static_cast<double>(CountOf(property_count, *pattern.property)) /
        total;
  }
  if (pattern.object) {
    estimate *= static_cast<double>(CountOf(object_count, *pattern.object)) /
                total;
  }
  return estimate;
}

}  // namespace swan::rowstore
