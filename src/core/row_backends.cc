#include "core/row_backends.h"

#include <algorithm>
#include <array>
#include <functional>
#include <unordered_map>

#include "common/macros.h"
#include "obs/trace.h"

namespace swan::core {

namespace {

rdf::TriplePattern PatternPO(std::optional<uint64_t> p,
                             std::optional<uint64_t> o) {
  rdf::TriplePattern pattern;
  pattern.property = p;
  pattern.object = o;
  return pattern;
}

uint64_t PackPair(uint64_t a, uint64_t b) {
  SWAN_CHECK_MSG(a < (1ull << 32) && b < (1ull << 32),
                 "group keys must be 32-bit dictionary ids");
  return (a << 32) | b;
}

void EmitCounts(const std::unordered_map<uint64_t, uint64_t>& counts,
                QueryResult* result) {
  for (const auto& [key, count] : counts) {
    result->rows.push_back({key, count});
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// RowTripleBackend
// ---------------------------------------------------------------------------

RowTripleBackend::RowTripleBackend(const rdf::Dataset& dataset,
                                   rowstore::TripleRelation::Config config,
                                   storage::DiskConfig disk_config,
                                   size_t pool_pages)
    : BackendBase(disk_config, pool_pages) {
  relation_ = std::make_unique<rowstore::TripleRelation>(
      pool_, disk_, std::move(config));
  relation_->Load(dataset.triples());
}

std::string RowTripleBackend::name() const {
  return std::string("DBX triple ") +
         rdf::ToString(relation_->config().clustered);
}

std::unordered_set<uint64_t> RowTripleBackend::SubjectSet(
    uint64_t property, uint64_t object, const exec::ExecContext& ectx) const {
  obs::Span span(ectx.trace(), "row_triple.index_scan");
  std::unordered_set<uint64_t> out;
  for (auto scan = relation_->Open(PatternPO(property, object)); scan.Valid();
       scan.Next()) {
    out.insert(scan.value().subject);
  }
  span.set_rows_out(out.size());
  return out;
}

QueryResult RowTripleBackend::RunQ1(const QueryContext& ctx,
                                    const exec::ExecContext& ectx) const {
  obs::Span span(ectx.trace(), "row_triple.q1");
  std::unordered_map<uint64_t, uint64_t> counts;
  for (auto scan = relation_->Open(PatternPO(ctx.vocab().type, std::nullopt));
       scan.Valid(); scan.Next()) {
    ++counts[scan.value().object];
  }
  QueryResult result;
  result.column_names = {"obj", "count"};
  EmitCounts(counts, &result);
  return result;
}

QueryResult RowTripleBackend::RunQ2Family(QueryId id, const QueryContext& ctx,
                                          const exec::ExecContext& ectx) const {
  obs::Span span(ectx.trace(), "row_triple.q2_family");
  const auto& v = ctx.vocab();
  const std::unordered_set<uint64_t> a = SubjectSet(v.type, v.text, ectx);
  const bool filter = AppliesPropertyFilter(id, ctx);

  std::unordered_map<uint64_t, uint64_t> counts;
  {
    obs::Span scan_span(ectx.trace(), "row_triple.full_scan");
    const uint64_t chunks = relation_->FullScanChunks(ectx);
    if (chunks <= 1) {
      for (auto scan = relation_->Open(rdf::TriplePattern{}); scan.Valid();
           scan.Next()) {
        const rdf::Triple& t = scan.value();
        if (a.count(t.subject) == 0) continue;
        if (filter && !ctx.IsInteresting(t.property)) continue;
        ++counts[t.property];
      }
    } else {
      // Chunked leaf-chain scan with one hash accumulator per chunk; the
      // partial counts are additive, so the merge order is immaterial.
      relation_->ChargeFullScanDescent();
      std::vector<std::unordered_map<uint64_t, uint64_t>> partial(chunks);
      ectx.ParallelFor(chunks, 1, [&](uint64_t b, uint64_t e, uint64_t) {
        for (uint64_t c = b; c < e; ++c) {
          relation_->FullScanChunk(c, chunks, [&](const rdf::Triple& t) {
            if (a.count(t.subject) == 0) return;
            if (filter && !ctx.IsInteresting(t.property)) return;
            ++partial[c][t.property];
          });
        }
      });
      for (const auto& part : partial) {
        for (const auto& [prop, n] : part) counts[prop] += n;
      }
    }
    scan_span.set_rows_out(counts.size());
  }
  QueryResult result;
  result.column_names = {"prop", "count"};
  EmitCounts(counts, &result);
  span.set_rows_out(result.rows.size());
  return result;
}

QueryResult RowTripleBackend::RunQ3Family(QueryId id, const QueryContext& ctx,
                                          const exec::ExecContext& ectx) const {
  obs::Span span(ectx.trace(), "row_triple.q3_family");
  const auto& v = ctx.vocab();
  const std::unordered_set<uint64_t> a = SubjectSet(v.type, v.text, ectx);
  const bool with_language = BaseOf(id) == QueryId::kQ4;
  std::unordered_set<uint64_t> c;
  if (with_language) c = SubjectSet(v.language, v.french, ectx);
  const bool filter = AppliesPropertyFilter(id, ctx);

  auto accept = [&](const rdf::Triple& t) {
    if (a.count(t.subject) == 0) return false;
    if (with_language && c.count(t.subject) == 0) return false;
    return !(filter && !ctx.IsInteresting(t.property));
  };

  std::unordered_map<uint64_t, uint64_t> counts;
  {
    obs::Span scan_span(ectx.trace(), "row_triple.full_scan");
    const uint64_t chunks = relation_->FullScanChunks(ectx);
    if (chunks <= 1) {
      for (auto scan = relation_->Open(rdf::TriplePattern{}); scan.Valid();
           scan.Next()) {
        const rdf::Triple& t = scan.value();
        if (accept(t)) ++counts[PackPair(t.property, t.object)];
      }
    } else {
      relation_->ChargeFullScanDescent();
      std::vector<std::unordered_map<uint64_t, uint64_t>> partial(chunks);
      ectx.ParallelFor(chunks, 1, [&](uint64_t b, uint64_t e, uint64_t) {
        for (uint64_t k = b; k < e; ++k) {
          relation_->FullScanChunk(k, chunks, [&](const rdf::Triple& t) {
            if (accept(t)) ++partial[k][PackPair(t.property, t.object)];
          });
        }
      });
      for (const auto& part : partial) {
        for (const auto& [packed, n] : part) counts[packed] += n;
      }
    }
    scan_span.set_rows_out(counts.size());
  }
  QueryResult result;
  result.column_names = {"prop", "obj", "count"};
  for (const auto& [packed, count] : counts) {
    if (count > 1) {
      result.rows.push_back({packed >> 32, packed & 0xFFFFFFFFull, count});
    }
  }
  span.set_rows_out(result.rows.size());
  return result;
}

QueryResult RowTripleBackend::RunQ5(const QueryContext& ctx,
                                    const exec::ExecContext& ectx) const {
  obs::Span span(ectx.trace(), "row_triple.q5");
  const auto& v = ctx.vocab();
  const std::unordered_set<uint64_t> a = SubjectSet(v.origin, v.dlc, ectx);

  // Hash join: build on B's object (the records target)...
  std::unordered_map<uint64_t, std::vector<uint64_t>> b_by_object;
  {
    obs::Span build_span(ectx.trace(), "row_triple.hash_build");
    for (auto scan = relation_->Open(PatternPO(v.records, std::nullopt));
         scan.Valid(); scan.Next()) {
      const rdf::Triple& t = scan.value();
      if (a.count(t.subject) != 0) b_by_object[t.object].push_back(t.subject);
    }
    build_span.set_rows_out(b_by_object.size());
  }
  // ... probe with C's subject.
  QueryResult result;
  result.column_names = {"subj", "obj"};
  {
    obs::Span probe_span(ectx.trace(), "row_triple.hash_probe");
    for (auto scan = relation_->Open(PatternPO(v.type, std::nullopt));
         scan.Valid(); scan.Next()) {
      const rdf::Triple& t = scan.value();
      if (t.object == v.text) continue;
      auto it = b_by_object.find(t.subject);
      if (it == b_by_object.end()) continue;
      for (uint64_t b_subject : it->second) {
        result.rows.push_back({b_subject, t.object});
      }
    }
    probe_span.set_rows_out(result.rows.size());
  }
  span.set_rows_out(result.rows.size());
  return result;
}

QueryResult RowTripleBackend::RunQ6Family(QueryId id, const QueryContext& ctx,
                                          const exec::ExecContext& ectx) const {
  obs::Span span(ectx.trace(), "row_triple.q6_family");
  const auto& v = ctx.vocab();
  std::unordered_set<uint64_t> united = SubjectSet(v.type, v.text, ectx);
  {
    const std::unordered_set<uint64_t>& text_typed = united;
    std::vector<uint64_t> extra;
    for (auto scan = relation_->Open(PatternPO(v.records, std::nullopt));
         scan.Valid(); scan.Next()) {
      const rdf::Triple& t = scan.value();
      if (text_typed.count(t.object) != 0) extra.push_back(t.subject);
    }
    united.insert(extra.begin(), extra.end());
  }
  const bool filter = AppliesPropertyFilter(id, ctx);

  std::unordered_map<uint64_t, uint64_t> counts;
  {
    obs::Span scan_span(ectx.trace(), "row_triple.full_scan");
    const uint64_t chunks = relation_->FullScanChunks(ectx);
    if (chunks <= 1) {
      for (auto scan = relation_->Open(rdf::TriplePattern{}); scan.Valid();
           scan.Next()) {
        const rdf::Triple& t = scan.value();
        if (united.count(t.subject) == 0) continue;
        if (filter && !ctx.IsInteresting(t.property)) continue;
        ++counts[t.property];
      }
    } else {
      relation_->ChargeFullScanDescent();
      std::vector<std::unordered_map<uint64_t, uint64_t>> partial(chunks);
      ectx.ParallelFor(chunks, 1, [&](uint64_t b, uint64_t e, uint64_t) {
        for (uint64_t k = b; k < e; ++k) {
          relation_->FullScanChunk(k, chunks, [&](const rdf::Triple& t) {
            if (united.count(t.subject) == 0) return;
            if (filter && !ctx.IsInteresting(t.property)) return;
            ++partial[k][t.property];
          });
        }
      });
      for (const auto& part : partial) {
        for (const auto& [prop, n] : part) counts[prop] += n;
      }
    }
    scan_span.set_rows_out(counts.size());
  }
  QueryResult result;
  result.column_names = {"prop", "count"};
  EmitCounts(counts, &result);
  span.set_rows_out(result.rows.size());
  return result;
}

QueryResult RowTripleBackend::RunQ7(const QueryContext& ctx,
                                    const exec::ExecContext& ectx) const {
  obs::Span span(ectx.trace(), "row_triple.q7");
  const auto& v = ctx.vocab();
  const std::unordered_set<uint64_t> a = SubjectSet(v.point, v.end, ectx);

  std::unordered_map<uint64_t, std::vector<uint64_t>> encodings;
  {
    obs::Span build_span(ectx.trace(), "row_triple.hash_build");
    for (auto scan = relation_->Open(PatternPO(v.encoding, std::nullopt));
         scan.Valid(); scan.Next()) {
      const rdf::Triple& t = scan.value();
      if (a.count(t.subject) != 0) encodings[t.subject].push_back(t.object);
    }
    build_span.set_rows_out(encodings.size());
  }

  QueryResult result;
  result.column_names = {"subj", "encoding", "type"};
  {
    obs::Span probe_span(ectx.trace(), "row_triple.hash_probe");
    for (auto scan = relation_->Open(PatternPO(v.type, std::nullopt));
         scan.Valid(); scan.Next()) {
      const rdf::Triple& t = scan.value();
      auto it = encodings.find(t.subject);
      if (it == encodings.end()) continue;
      for (uint64_t encoding : it->second) {
        result.rows.push_back({t.subject, encoding, t.object});
      }
    }
    probe_span.set_rows_out(result.rows.size());
  }
  span.set_rows_out(result.rows.size());
  return result;
}

QueryResult RowTripleBackend::RunQ8(const QueryContext& ctx,
                                    const exec::ExecContext& ectx) const {
  obs::Span span(ectx.trace(), "row_triple.q8");
  const auto& v = ctx.vocab();
  std::unordered_set<uint64_t> t_objects;
  {
    obs::Span scan_span(ectx.trace(), "row_triple.index_scan");
    rdf::TriplePattern pattern;
    pattern.subject = v.conferences;
    for (auto scan = relation_->Open(pattern); scan.Valid(); scan.Next()) {
      t_objects.insert(scan.value().object);
    }
    scan_span.set_rows_out(t_objects.size());
  }
  std::unordered_set<uint64_t> subjects;
  {
    obs::Span scan_span(ectx.trace(), "row_triple.full_scan");
    const uint64_t chunks = relation_->FullScanChunks(ectx);
    if (chunks <= 1) {
      for (auto scan = relation_->Open(rdf::TriplePattern{}); scan.Valid();
           scan.Next()) {
        const rdf::Triple& t = scan.value();
        if (t.subject != v.conferences && t_objects.count(t.object) != 0) {
          subjects.insert(t.subject);
        }
      }
    } else {
      relation_->ChargeFullScanDescent();
      std::vector<std::vector<uint64_t>> partial(chunks);
      ectx.ParallelFor(chunks, 1, [&](uint64_t b, uint64_t e, uint64_t) {
        for (uint64_t k = b; k < e; ++k) {
          relation_->FullScanChunk(k, chunks, [&](const rdf::Triple& t) {
            if (t.subject != v.conferences && t_objects.count(t.object) != 0) {
              partial[k].push_back(t.subject);
            }
          });
        }
      });
      // Insert in chunk (= key) order: the same insertion sequence the
      // serial scan produces, so even the set's iteration order matches.
      for (const auto& part : partial) {
        subjects.insert(part.begin(), part.end());
      }
    }
    scan_span.set_rows_out(subjects.size());
  }
  QueryResult result;
  result.column_names = {"subj"};
  for (uint64_t s : subjects) result.rows.push_back({s});
  return result;
}

QueryResult RowTripleBackend::Run(QueryId id, const QueryContext& ctx,
                                  const exec::ExecContext& ectx) {
  switch (BaseOf(id)) {
    case QueryId::kQ1:
      return RunQ1(ctx, ectx);
    case QueryId::kQ2:
      return RunQ2Family(id, ctx, ectx);
    case QueryId::kQ3:
    case QueryId::kQ4:
      return RunQ3Family(id, ctx, ectx);
    case QueryId::kQ5:
      return RunQ5(ctx, ectx);
    case QueryId::kQ6:
      return RunQ6Family(id, ctx, ectx);
    case QueryId::kQ7:
      return RunQ7(ctx, ectx);
    case QueryId::kQ8:
      return RunQ8(ctx, ectx);
    default:
      SWAN_CHECK(false);
      return {};
  }
}

std::vector<rdf::Triple> RowTripleBackend::Match(
    const rdf::TriplePattern& pattern, const exec::ExecContext& ectx) const {
  // Pattern lookups are index descents or short range scans; canonical
  // key order must be preserved, so they stay serial. The span is
  // suppressed automatically when Match runs inside a BGP worker lane.
  obs::Span span(ectx.trace(), "row_triple.match");
  std::vector<rdf::Triple> out;
  for (auto scan = relation_->Open(pattern); scan.Valid(); scan.Next()) {
    out.push_back(scan.value());
  }
  span.set_rows_out(out.size());
  return out;
}

// ---------------------------------------------------------------------------
// RowVerticalBackend
// ---------------------------------------------------------------------------

RowVerticalBackend::RowVerticalBackend(const rdf::Dataset& dataset,
                                       storage::DiskConfig disk_config,
                                       size_t pool_pages)
    : BackendBase(disk_config, pool_pages) {
  relation_ = std::make_unique<rowstore::VerticalRelation>(pool_,
                                                           disk_);
  relation_->Load(dataset.triples());
}

std::string RowVerticalBackend::name() const { return "DBX vert. SO"; }

std::unordered_set<uint64_t> RowVerticalBackend::SubjectSet(
    uint64_t property, uint64_t object, const exec::ExecContext& ectx) const {
  obs::Span span(ectx.trace(), "row_vert.index_scan");
  std::unordered_set<uint64_t> out;
  for (auto scan = relation_->OpenPartition(property, std::nullopt, object);
       scan.Valid(); scan.Next()) {
    out.insert(scan.value().subject);
  }
  span.set_rows_out(out.size());
  return out;
}

std::vector<uint64_t> RowVerticalBackend::SubjectTempTable(
    uint64_t property, uint64_t object, const exec::ExecContext& ectx) const {
  obs::Span span(ectx.trace(), "row_vert.temp_table");
  std::vector<uint64_t> out;
  for (auto scan = relation_->OpenPartition(property, std::nullopt, object);
       scan.Valid(); scan.Next()) {
    out.push_back(scan.value().subject);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  span.set_rows_out(out.size());
  return out;
}

void RowVerticalBackend::JoinPartitionWithTempTable(
    uint64_t property, const std::vector<uint64_t>& temp_table,
    const std::function<void(const rdf::Triple&)>& fn) const {
  // One hash-join operator per union branch, as the generated SQL
  // dictates: each branch builds its own hash table, on the smaller join
  // side (partition rows vs the temporary table) — there is no sub-plan
  // sharing across the hundreds of branches, which is the §4.2
  // "proliferation of unions and joins" cost.
  const uint64_t partition_rows = relation_->PartitionSize(property);
  if (partition_rows == 0) return;
  if (partition_rows < temp_table.size()) {
    // Build on the partition side, probe with the temp table.
    std::unordered_multimap<uint64_t, uint64_t> build;
    build.reserve(partition_rows);
    for (auto scan = relation_->OpenPartition(property, std::nullopt,
                                              std::nullopt);
         scan.Valid(); scan.Next()) {
      build.emplace(scan.value().subject, scan.value().object);
    }
    for (uint64_t key : temp_table) {
      auto [lo, hi] = build.equal_range(key);
      for (auto it = lo; it != hi; ++it) {
        fn(rdf::Triple{key, property, it->second});
      }
    }
  } else {
    // Build on the temp-table side, probe with the partition scan.
    const std::unordered_set<uint64_t> build(temp_table.begin(),
                                             temp_table.end());
    for (auto scan = relation_->OpenPartition(property, std::nullopt,
                                              std::nullopt);
         scan.Valid(); scan.Next()) {
      if (build.count(scan.value().subject) != 0) fn(scan.value());
    }
  }
}

std::vector<uint64_t> RowVerticalBackend::PropertyList(
    QueryId id, const QueryContext& ctx) const {
  if (IsStar(id) || ctx.FilterCoversAll()) return relation_->properties();
  return ctx.interesting_properties();
}

QueryResult RowVerticalBackend::RunQ1(const QueryContext& ctx,
                                      const exec::ExecContext& ectx) const {
  obs::Span span(ectx.trace(), "row_vert.q1");
  std::unordered_map<uint64_t, uint64_t> counts;
  for (auto scan = relation_->OpenPartition(ctx.vocab().type, std::nullopt,
                                            std::nullopt);
       scan.Valid(); scan.Next()) {
    ++counts[scan.value().object];
  }
  QueryResult result;
  result.column_names = {"obj", "count"};
  EmitCounts(counts, &result);
  return result;
}

QueryResult RowVerticalBackend::RunQ2Family(
    QueryId id, const QueryContext& ctx, const exec::ExecContext& ectx) const {
  obs::Span span(ectx.trace(), "row_vert.q2_family");
  const auto& v = ctx.vocab();
  // A is materialized once as a temporary table, but the generated SQL
  // contains one join *per property table*, and the row engine's executor
  // runs each union branch as an independent hash-join operator that
  // builds its own hash table from A — there is no sub-plan sharing
  // across the hundreds of branches. This per-branch build cost is
  // exactly the "proliferation of unions and joins" overhead of §4.2.
  const std::vector<uint64_t> a = SubjectTempTable(v.type, v.text, ectx);

  QueryResult result;
  result.column_names = {"prop", "count"};
  // One union branch per property; branches are independent (each builds
  // its own hash table), so they fan out across the context's lanes and
  // the per-branch counts are stitched back in property order.
  const std::vector<uint64_t> props = PropertyList(id, ctx);
  std::vector<uint64_t> branch_count(props.size(), 0);
  {
    obs::Span join_span(ectx.trace(), "row_vert.union_join");
    join_span.set_rows_in(props.size());
    ectx.ParallelFor(props.size(), 1, [&](uint64_t b, uint64_t e, uint64_t) {
      for (uint64_t k = b; k < e; ++k) {
        JoinPartitionWithTempTable(
            props[k], a, [&](const rdf::Triple&) { ++branch_count[k]; });
      }
    });
  }
  for (size_t k = 0; k < props.size(); ++k) {
    if (branch_count[k] > 0) result.rows.push_back({props[k], branch_count[k]});
  }
  span.set_rows_out(result.rows.size());
  return result;
}

QueryResult RowVerticalBackend::RunQ3Family(
    QueryId id, const QueryContext& ctx, const exec::ExecContext& ectx) const {
  obs::Span span(ectx.trace(), "row_vert.q3_family");
  const auto& v = ctx.vocab();
  // Per-branch hash builds, as in RunQ2Family: every union branch of the
  // generated SQL is its own join operator.
  const std::vector<uint64_t> a = SubjectTempTable(v.type, v.text, ectx);
  const bool with_language = BaseOf(id) == QueryId::kQ4;
  std::vector<uint64_t> c;
  if (with_language) c = SubjectTempTable(v.language, v.french, ectx);

  // For q4 the two temp tables are intersected up front (as the SQL's
  // extra join would be folded by the optimizer before the union fan-out).
  std::vector<uint64_t> keys = a;
  if (with_language) {
    std::vector<uint64_t> both;
    std::set_intersection(a.begin(), a.end(), c.begin(), c.end(),
                          std::back_inserter(both));
    keys = std::move(both);
  }

  QueryResult result;
  result.column_names = {"prop", "obj", "count"};
  // Branch-per-property fan-out; each branch keeps its own per-object
  // accumulator and the emitted rows concatenate in property order —
  // exactly the serial branch sequence.
  const std::vector<uint64_t> props = PropertyList(id, ctx);
  std::vector<std::vector<std::array<uint64_t, 3>>> branch_rows(props.size());
  {
    obs::Span join_span(ectx.trace(), "row_vert.union_join");
    join_span.set_rows_in(props.size());
    ectx.ParallelFor(props.size(), 1, [&](uint64_t b, uint64_t e, uint64_t) {
      for (uint64_t k = b; k < e; ++k) {
        std::unordered_map<uint64_t, uint64_t> counts;
        JoinPartitionWithTempTable(
            props[k], keys, [&](const rdf::Triple& t) { ++counts[t.object]; });
        for (const auto& [obj, count] : counts) {
          if (count > 1) branch_rows[k].push_back({props[k], obj, count});
        }
      }
    });
  }
  for (const auto& rows : branch_rows) {
    for (const auto& r : rows) result.rows.push_back({r[0], r[1], r[2]});
  }
  span.set_rows_out(result.rows.size());
  return result;
}

QueryResult RowVerticalBackend::RunQ5(const QueryContext& ctx,
                                      const exec::ExecContext& ectx) const {
  obs::Span span(ectx.trace(), "row_vert.q5");
  const auto& v = ctx.vocab();
  const std::unordered_set<uint64_t> a = SubjectSet(v.origin, v.dlc, ectx);

  std::unordered_map<uint64_t, std::vector<uint64_t>> b_by_object;
  {
    obs::Span build_span(ectx.trace(), "row_vert.hash_build");
    for (auto scan = relation_->OpenPartition(v.records, std::nullopt,
                                              std::nullopt);
         scan.Valid(); scan.Next()) {
      const rdf::Triple& t = scan.value();
      if (a.count(t.subject) != 0) b_by_object[t.object].push_back(t.subject);
    }
    build_span.set_rows_out(b_by_object.size());
  }

  QueryResult result;
  result.column_names = {"subj", "obj"};
  {
    obs::Span probe_span(ectx.trace(), "row_vert.hash_probe");
    for (auto scan =
             relation_->OpenPartition(v.type, std::nullopt, std::nullopt);
         scan.Valid(); scan.Next()) {
      const rdf::Triple& t = scan.value();
      if (t.object == v.text) continue;
      auto it = b_by_object.find(t.subject);
      if (it == b_by_object.end()) continue;
      for (uint64_t b_subject : it->second) {
        result.rows.push_back({b_subject, t.object});
      }
    }
    probe_span.set_rows_out(result.rows.size());
  }
  span.set_rows_out(result.rows.size());
  return result;
}

QueryResult RowVerticalBackend::RunQ6Family(
    QueryId id, const QueryContext& ctx, const exec::ExecContext& ectx) const {
  obs::Span span(ectx.trace(), "row_vert.q6_family");
  const auto& v = ctx.vocab();
  std::unordered_set<uint64_t> united = SubjectSet(v.type, v.text, ectx);
  {
    std::vector<uint64_t> extra;
    for (auto scan = relation_->OpenPartition(v.records, std::nullopt,
                                              std::nullopt);
         scan.Valid(); scan.Next()) {
      const rdf::Triple& t = scan.value();
      if (united.count(t.object) != 0) extra.push_back(t.subject);
    }
    united.insert(extra.begin(), extra.end());
  }

  // The union-ed subjects become a temporary table that every branch
  // joins against independently.
  std::vector<uint64_t> united_table(united.begin(), united.end());
  std::sort(united_table.begin(), united_table.end());

  QueryResult result;
  result.column_names = {"prop", "count"};
  const std::vector<uint64_t> props = PropertyList(id, ctx);
  std::vector<uint64_t> branch_count(props.size(), 0);
  {
    obs::Span join_span(ectx.trace(), "row_vert.union_join");
    join_span.set_rows_in(props.size());
    ectx.ParallelFor(props.size(), 1, [&](uint64_t b, uint64_t e, uint64_t) {
      for (uint64_t k = b; k < e; ++k) {
        JoinPartitionWithTempTable(
            props[k], united_table,
            [&](const rdf::Triple&) { ++branch_count[k]; });
      }
    });
  }
  for (size_t k = 0; k < props.size(); ++k) {
    if (branch_count[k] > 0) result.rows.push_back({props[k], branch_count[k]});
  }
  span.set_rows_out(result.rows.size());
  return result;
}

QueryResult RowVerticalBackend::RunQ7(const QueryContext& ctx,
                                      const exec::ExecContext& ectx) const {
  obs::Span span(ectx.trace(), "row_vert.q7");
  const auto& v = ctx.vocab();
  const std::unordered_set<uint64_t> a = SubjectSet(v.point, v.end, ectx);

  std::unordered_map<uint64_t, std::vector<uint64_t>> encodings;
  {
    obs::Span build_span(ectx.trace(), "row_vert.hash_build");
    for (auto scan = relation_->OpenPartition(v.encoding, std::nullopt,
                                              std::nullopt);
         scan.Valid(); scan.Next()) {
      const rdf::Triple& t = scan.value();
      if (a.count(t.subject) != 0) encodings[t.subject].push_back(t.object);
    }
    build_span.set_rows_out(encodings.size());
  }

  QueryResult result;
  result.column_names = {"subj", "encoding", "type"};
  {
    obs::Span probe_span(ectx.trace(), "row_vert.hash_probe");
    for (auto scan =
             relation_->OpenPartition(v.type, std::nullopt, std::nullopt);
         scan.Valid(); scan.Next()) {
      const rdf::Triple& t = scan.value();
      auto it = encodings.find(t.subject);
      if (it == encodings.end()) continue;
      for (uint64_t encoding : it->second) {
        result.rows.push_back({t.subject, encoding, t.object});
      }
    }
    probe_span.set_rows_out(result.rows.size());
  }
  span.set_rows_out(result.rows.size());
  return result;
}

QueryResult RowVerticalBackend::RunQ8(const QueryContext& ctx,
                                      const exec::ExecContext& ectx) const {
  obs::Span span(ectx.trace(), "row_vert.q8");
  const auto& v = ctx.vocab();
  const std::vector<uint64_t>& props = relation_->properties();

  // Phase 1: probe every partition's clustered tree for the subject
  // "conferences" — one B+tree descent per property table. The descents
  // are independent; merging the per-partition hits in property order
  // reproduces the serial insertion sequence exactly.
  std::unordered_set<uint64_t> t_objects;
  {
    obs::Span descents_span(ectx.trace(), "row_vert.probe_descents");
    descents_span.set_rows_in(props.size());
    std::vector<std::vector<uint64_t>> hits(props.size());
    ectx.ParallelFor(props.size(), 1, [&](uint64_t b, uint64_t e, uint64_t) {
      for (uint64_t k = b; k < e; ++k) {
        for (auto scan =
                 relation_->OpenPartition(props[k], v.conferences,
                                          std::nullopt);
             scan.Valid(); scan.Next()) {
          hits[k].push_back(scan.value().object);
        }
      }
    });
    for (const auto& part : hits) t_objects.insert(part.begin(), part.end());
    descents_span.set_rows_out(t_objects.size());
  }

  // Phase 2: hash-join t back against every partition, one branch per
  // property table (t_objects is read-only from here on).
  std::unordered_set<uint64_t> subjects;
  {
    obs::Span join_span(ectx.trace(), "row_vert.union_join");
    join_span.set_rows_in(props.size());
    std::vector<std::vector<uint64_t>> hits(props.size());
    ectx.ParallelFor(props.size(), 1, [&](uint64_t b, uint64_t e, uint64_t) {
      for (uint64_t k = b; k < e; ++k) {
        for (auto scan =
                 relation_->OpenPartition(props[k], std::nullopt,
                                          std::nullopt);
             scan.Valid(); scan.Next()) {
          const rdf::Triple& t = scan.value();
          if (t.subject != v.conferences && t_objects.count(t.object) != 0) {
            hits[k].push_back(t.subject);
          }
        }
      }
    });
    for (const auto& part : hits) subjects.insert(part.begin(), part.end());
    join_span.set_rows_out(subjects.size());
  }
  QueryResult result;
  result.column_names = {"subj"};
  for (uint64_t s : subjects) result.rows.push_back({s});
  span.set_rows_out(result.rows.size());
  return result;
}

QueryResult RowVerticalBackend::Run(QueryId id, const QueryContext& ctx,
                                    const exec::ExecContext& ectx) {
  switch (BaseOf(id)) {
    case QueryId::kQ1:
      return RunQ1(ctx, ectx);
    case QueryId::kQ2:
      return RunQ2Family(id, ctx, ectx);
    case QueryId::kQ3:
    case QueryId::kQ4:
      return RunQ3Family(id, ctx, ectx);
    case QueryId::kQ5:
      return RunQ5(ctx, ectx);
    case QueryId::kQ6:
      return RunQ6Family(id, ctx, ectx);
    case QueryId::kQ7:
      return RunQ7(ctx, ectx);
    case QueryId::kQ8:
      return RunQ8(ctx, ectx);
    default:
      SWAN_CHECK(false);
      return {};
  }
}

std::vector<rdf::Triple> RowVerticalBackend::Match(
    const rdf::TriplePattern& pattern, const exec::ExecContext& ectx) const {
  // Partition scans stay serial to keep canonical order; the span is
  // suppressed automatically when Match runs inside a BGP worker lane.
  obs::Span span(ectx.trace(), "row_vert.match");
  std::vector<uint64_t> props;
  if (pattern.property) {
    props.push_back(*pattern.property);
  } else {
    props = relation_->properties();
  }
  std::vector<rdf::Triple> out;
  for (uint64_t p : props) {
    for (auto scan =
             relation_->OpenPartition(p, pattern.subject, pattern.object);
         scan.Valid(); scan.Next()) {
      out.push_back(scan.value());
    }
  }
  span.set_rows_out(out.size());
  return out;
}

}  // namespace swan::core
