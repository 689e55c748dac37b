#include "core/backend.h"

#include "plan/algebra.h"

namespace swan::core {

rdf::TriplePattern WithSlot(rdf::TriplePattern pattern,
                            rdf::TripleComponent slot, uint64_t key) {
  std::optional<uint64_t> value;
  if (key != plan::kUnbound) value = key;
  switch (slot) {
    case rdf::TripleComponent::kSubject:
      pattern.subject = value;
      break;
    case rdf::TripleComponent::kProperty:
      pattern.property = value;
      break;
    case rdf::TripleComponent::kObject:
      pattern.object = value;
      break;
  }
  return pattern;
}

uint64_t SlotValue(const rdf::Triple& t, rdf::TripleComponent slot) {
  switch (slot) {
    case rdf::TripleComponent::kSubject:
      return t.subject;
    case rdf::TripleComponent::kProperty:
      return t.property;
    case rdf::TripleComponent::kObject:
      break;
  }
  return t.object;
}

MatchRuns Backend::MatchBatch(const rdf::TriplePattern& pattern,
                              rdf::TripleComponent slot,
                              std::span<const uint64_t> keys,
                              const exec::ExecContext& ectx) const {
  MatchRuns runs;
  for (uint64_t key : keys) {
    const std::vector<rdf::Triple> part =
        Match(WithSlot(pattern, slot, key), ectx);
    runs.triples.insert(runs.triples.end(), part.begin(), part.end());
    runs.EndRun();
  }
  return runs;
}

}  // namespace swan::core
