#include "plan/stats.h"

#include <algorithm>
#include <string>
#include <vector>

#include "common/radix_sort.h"

namespace swan::plan {

namespace {

// One triple's subject or object, tagged with the triple's property.
struct KeyedProperty {
  uint64_t key;
  uint64_t property;
};

// Summarizes one side (subjects or objects) of the triples in `pairs`:
// returns the number of distinct keys overall and records, per property,
// the triple count, the distinct keys (`distinct`) and the length of the
// longest same-key run (`heaviest`). Two stable radix sorts order the
// pairs by key and then by (property, key), so every quantity is a run
// length read off a linear scan.
uint64_t SummarizeSide(std::vector<KeyedProperty>* pairs,
                       uint64_t PropertyStats::*distinct,
                       uint64_t PropertyStats::*heaviest, StoreStats* stats) {
  const std::vector<KeyedProperty>& sorted = *pairs;
  const size_t n = sorted.size();
  RadixSortBy(pairs, [](const KeyedProperty& e) { return e.key; });
  uint64_t distinct_keys = 0;
  for (size_t i = 0; i < n; ++i) {
    if (i == 0 || sorted[i].key != sorted[i - 1].key) ++distinct_keys;
  }
  RadixSortBy(pairs, [](const KeyedProperty& e) { return e.property; });
  for (size_t begin = 0; begin < n;) {
    const uint64_t property = sorted[begin].property;
    PropertyStats& ps = stats->by_property[property];
    size_t end = begin;
    while (end < n && sorted[end].property == property) {
      size_t run = end + 1;
      while (run < n && sorted[run].property == property &&
             sorted[run].key == sorted[end].key) {
        ++run;
      }
      ++(ps.*distinct);
      ps.*heaviest = std::max<uint64_t>(ps.*heaviest, run - end);
      end = run;
    }
    ps.count = end - begin;
    begin = end;
  }
  return distinct_keys;
}

}  // namespace

StoreStats StoreStats::Collect(const rdf::Dataset& dataset) {
  StoreStats stats;
  const std::vector<rdf::Triple>& triples = dataset.triples();
  stats.total_triples = triples.size();
  std::vector<KeyedProperty> pairs(triples.size());
  for (size_t i = 0; i < triples.size(); ++i) {
    pairs[i] = {triples[i].subject, triples[i].property};
  }
  stats.distinct_subjects =
      SummarizeSide(&pairs, &PropertyStats::distinct_subjects,
                    &PropertyStats::max_subject_freq, &stats);
  for (size_t i = 0; i < triples.size(); ++i) {
    pairs[i] = {triples[i].object, triples[i].property};
  }
  stats.distinct_objects =
      SummarizeSide(&pairs, &PropertyStats::distinct_objects,
                    &PropertyStats::max_object_freq, &stats);
  return stats;
}

double StoreStats::EstimateMatches(std::optional<uint64_t> subject,
                                   std::optional<uint64_t> property,
                                   std::optional<uint64_t> object) const {
  if (total_triples == 0) return 0.0;
  double est;
  if (property) {
    const auto it = by_property.find(*property);
    if (it == by_property.end()) return 0.0;  // property never occurs
    const PropertyStats& ps = it->second;
    est = static_cast<double>(ps.count);
    if (subject && ps.distinct_subjects > 0) {
      est /= static_cast<double>(ps.distinct_subjects);
    }
    if (object && ps.distinct_objects > 0) {
      est /= static_cast<double>(ps.distinct_objects);
    }
  } else {
    est = static_cast<double>(total_triples);
    if (subject && distinct_subjects > 0) {
      est /= static_cast<double>(distinct_subjects);
    }
    if (object && distinct_objects > 0) {
      est /= static_cast<double>(distinct_objects);
    }
  }
  return est;
}

void StoreStats::AuditInto(audit::AuditLevel level, audit::AuditReport* report,
                           const rdf::Dataset& dataset) const {
  uint64_t sum = 0;
  for (const auto& [property, ps] : by_property) {
    sum += ps.count;
    if (ps.count == 0) {
      report->Add(audit::FindingClass::kStructure, "plan.stats",
                  "property " + std::to_string(property) +
                      " recorded with zero triples");
    }
    if (ps.distinct_subjects > ps.count || ps.distinct_objects > ps.count) {
      report->Add(audit::FindingClass::kStructure, "plan.stats",
                  "property " + std::to_string(property) +
                      " has more distinct keys than triples");
    }
    if (ps.max_subject_freq > ps.count || ps.max_object_freq > ps.count) {
      report->Add(audit::FindingClass::kStructure, "plan.stats",
                  "property " + std::to_string(property) +
                      " skew maximum exceeds its cardinality");
    }
  }
  if (sum != total_triples) {
    report->Add(audit::FindingClass::kStructure, "plan.stats",
                "per-property counts sum to " + std::to_string(sum) +
                    ", total records " + std::to_string(total_triples));
  }
  if (level == audit::AuditLevel::kQuick) return;

  // Full audit: the statistics must equal a fresh collection — load-time
  // stats never drift from the dataset they were computed over (the store
  // holds a const reference; mutations go through the backend deltas and
  // are folded into a new dataset on reload).
  const StoreStats fresh = Collect(dataset);
  if (fresh.total_triples != total_triples ||
      fresh.distinct_subjects != distinct_subjects ||
      fresh.distinct_objects != distinct_objects ||
      fresh.by_property.size() != by_property.size()) {
    report->Add(audit::FindingClass::kStructure, "plan.stats",
                "stored statistics disagree with a fresh collection pass");
    return;
  }
  for (const auto& [property, ps] : fresh.by_property) {
    const auto it = by_property.find(property);
    if (it == by_property.end() || it->second.count != ps.count ||
        it->second.distinct_subjects != ps.distinct_subjects ||
        it->second.distinct_objects != ps.distinct_objects ||
        it->second.max_subject_freq != ps.max_subject_freq ||
        it->second.max_object_freq != ps.max_object_freq) {
      report->Add(audit::FindingClass::kStructure, "plan.stats",
                  "stale statistics for property " + std::to_string(property));
      return;
    }
  }
}

}  // namespace swan::plan
