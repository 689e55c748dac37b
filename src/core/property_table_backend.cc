#include "core/property_table_backend.h"

#include <algorithm>
#include <map>

#include "common/macros.h"
#include "obs/trace.h"

namespace swan::core {

namespace {

uint64_t PackPair(uint64_t a, uint64_t b) {
  SWAN_CHECK_MSG(a < (1ull << 32) && b < (1ull << 32),
                 "group keys must be 32-bit dictionary ids");
  return (a << 32) | b;
}

}  // namespace

PropertyTableBackend::PropertyTableBackend(const rdf::Dataset& dataset,
                                           uint32_t width,
                                           storage::DiskConfig disk_config,
                                           size_t pool_pages)
    : BackendBase(disk_config, pool_pages) {
  SWAN_CHECK(width >= 1);

  // The "design wizard": materialize the most frequent properties.
  const auto freqs = dataset.PropertyFrequencies();
  for (const auto& [prop, count] : freqs) {
    if (wide_props_.size() >= width) break;
    column_of_.emplace(prop, static_cast<uint32_t>(wide_props_.size()));
    wide_props_.push_back(prop);
  }

  // Split triples: first value per (subject, wide property) goes into the
  // wide table; the rest overflow.
  std::map<uint64_t, std::vector<uint64_t>> rows;  // subject -> columns
  std::vector<rdf::Triple> overflow;
  for (const rdf::Triple& t : dataset.triples()) {
    auto it = column_of_.find(t.property);
    if (it == column_of_.end()) {
      overflow.push_back(t);
      continue;
    }
    auto [row_it, inserted] = rows.try_emplace(t.subject);
    if (inserted) {
      row_it->second.assign(wide_props_.size(), kNull);
    }
    uint64_t& cell = row_it->second[it->second];
    if (cell == kNull) {
      cell = t.object;
    } else {
      overflow.push_back(t);  // multi-valued attribute
    }
  }

  const uint32_t row_width = static_cast<uint32_t>(wide_props_.size()) + 1;
  std::vector<uint64_t> flat;
  flat.reserve(rows.size() * row_width);
  for (const auto& [subject, cells] : rows) {
    flat.push_back(subject);
    flat.insert(flat.end(), cells.begin(), cells.end());
  }
  wide_ = std::make_unique<rowstore::SortedTable>(pool_, disk_,
                                                  row_width);
  wide_->BulkLoad(flat, rows.size());

  overflow_ = std::make_unique<rowstore::TripleRelation>(
      pool_, disk_, rowstore::TripleRelation::PsoConfig());
  overflow_->Load(overflow);
}

void PropertyTableBackend::ScanPattern(
    const rdf::TriplePattern& pattern,
    const std::function<void(const rdf::Triple&)>& fn) const {
  // Wide-table part.
  const bool property_is_wide =
      pattern.property && column_of_.count(*pattern.property) != 0;
  const bool property_in_overflow_only =
      pattern.property && !property_is_wide;

  if (!property_in_overflow_only) {
    auto emit_row = [&](std::span<const uint64_t> row) {
      const uint64_t subject = row[0];
      if (property_is_wide) {
        const uint32_t col = column_of_.at(*pattern.property);
        const uint64_t value = row[1 + col];
        if (value != kNull && (!pattern.object || *pattern.object == value)) {
          fn({subject, *pattern.property, value});
        }
        return;
      }
      for (uint32_t col = 0; col < wide_props_.size(); ++col) {
        const uint64_t value = row[1 + col];
        if (value == kNull) continue;
        if (pattern.object && *pattern.object != value) continue;
        fn({subject, wide_props_[col], value});
      }
    };
    if (pattern.subject) {
      // Clustered point access by subject.
      if (auto index = wide_->FindRow(*pattern.subject)) {
        auto cursor = wide_->SeekRow(*index);
        emit_row(cursor.row());
      }
    } else {
      for (auto cursor = wide_->Begin(); cursor.Valid(); cursor.Next()) {
        emit_row(cursor.row());
      }
    }
  }

  // Overflow part (always consulted: it holds rare properties and the
  // spill-over of multi-valued wide properties).
  for (auto scan = overflow_->Open(pattern); scan.Valid(); scan.Next()) {
    fn(scan.value());
  }
}

std::unordered_set<uint64_t> PropertyTableBackend::SubjectSet(
    uint64_t property, uint64_t object) const {
  std::unordered_set<uint64_t> out;
  rdf::TriplePattern pattern;
  pattern.property = property;
  pattern.object = object;
  ScanPattern(pattern, [&](const rdf::Triple& t) { out.insert(t.subject); });
  return out;
}

QueryResult PropertyTableBackend::RunQ1(const QueryContext& ctx) const {
  std::unordered_map<uint64_t, uint64_t> counts;
  rdf::TriplePattern pattern;
  pattern.property = ctx.vocab().type;
  ScanPattern(pattern, [&](const rdf::Triple& t) { ++counts[t.object]; });
  QueryResult result;
  result.column_names = {"obj", "count"};
  for (const auto& [obj, count] : counts) result.rows.push_back({obj, count});
  return result;
}

QueryResult PropertyTableBackend::RunQ2Family(QueryId id,
                                              const QueryContext& ctx) const {
  const auto& v = ctx.vocab();
  const auto a = SubjectSet(v.type, v.text);
  const bool filter = AppliesPropertyFilter(id, ctx);
  std::unordered_map<uint64_t, uint64_t> counts;
  ScanPattern({}, [&](const rdf::Triple& t) {
    if (a.count(t.subject) == 0) return;
    if (filter && !ctx.IsInteresting(t.property)) return;
    ++counts[t.property];
  });
  QueryResult result;
  result.column_names = {"prop", "count"};
  for (const auto& [p, count] : counts) result.rows.push_back({p, count});
  return result;
}

QueryResult PropertyTableBackend::RunQ3Family(QueryId id,
                                              const QueryContext& ctx) const {
  const auto& v = ctx.vocab();
  const auto a = SubjectSet(v.type, v.text);
  const bool q4 = BaseOf(id) == QueryId::kQ4;
  std::unordered_set<uint64_t> c;
  if (q4) c = SubjectSet(v.language, v.french);
  const bool filter = AppliesPropertyFilter(id, ctx);

  std::unordered_map<uint64_t, uint64_t> counts;
  ScanPattern({}, [&](const rdf::Triple& t) {
    if (a.count(t.subject) == 0) return;
    if (q4 && c.count(t.subject) == 0) return;
    if (filter && !ctx.IsInteresting(t.property)) return;
    ++counts[PackPair(t.property, t.object)];
  });
  QueryResult result;
  result.column_names = {"prop", "obj", "count"};
  for (const auto& [packed, count] : counts) {
    if (count > 1) {
      result.rows.push_back({packed >> 32, packed & 0xFFFFFFFFull, count});
    }
  }
  return result;
}

QueryResult PropertyTableBackend::RunQ5(const QueryContext& ctx) const {
  const auto& v = ctx.vocab();
  const auto a = SubjectSet(v.origin, v.dlc);

  std::unordered_map<uint64_t, std::vector<uint64_t>> b_by_object;
  rdf::TriplePattern records;
  records.property = v.records;
  ScanPattern(records, [&](const rdf::Triple& t) {
    if (a.count(t.subject) != 0) b_by_object[t.object].push_back(t.subject);
  });

  QueryResult result;
  result.column_names = {"subj", "obj"};
  rdf::TriplePattern types;
  types.property = v.type;
  ScanPattern(types, [&](const rdf::Triple& t) {
    if (t.object == v.text) return;
    auto it = b_by_object.find(t.subject);
    if (it == b_by_object.end()) return;
    for (uint64_t b_subject : it->second) {
      result.rows.push_back({b_subject, t.object});
    }
  });
  return result;
}

QueryResult PropertyTableBackend::RunQ6Family(QueryId id,
                                              const QueryContext& ctx) const {
  const auto& v = ctx.vocab();
  std::unordered_set<uint64_t> united = SubjectSet(v.type, v.text);
  {
    const auto text_typed = united;
    rdf::TriplePattern records;
    records.property = v.records;
    std::vector<uint64_t> extra;
    ScanPattern(records, [&](const rdf::Triple& t) {
      if (text_typed.count(t.object) != 0) extra.push_back(t.subject);
    });
    united.insert(extra.begin(), extra.end());
  }
  const bool filter = AppliesPropertyFilter(id, ctx);
  std::unordered_map<uint64_t, uint64_t> counts;
  ScanPattern({}, [&](const rdf::Triple& t) {
    if (united.count(t.subject) == 0) return;
    if (filter && !ctx.IsInteresting(t.property)) return;
    ++counts[t.property];
  });
  QueryResult result;
  result.column_names = {"prop", "count"};
  for (const auto& [p, count] : counts) result.rows.push_back({p, count});
  return result;
}

QueryResult PropertyTableBackend::RunQ7(const QueryContext& ctx) const {
  const auto& v = ctx.vocab();
  const auto a = SubjectSet(v.point, v.end);

  std::unordered_map<uint64_t, std::vector<uint64_t>> encodings;
  rdf::TriplePattern enc;
  enc.property = v.encoding;
  ScanPattern(enc, [&](const rdf::Triple& t) {
    if (a.count(t.subject) != 0) encodings[t.subject].push_back(t.object);
  });

  QueryResult result;
  result.column_names = {"subj", "encoding", "type"};
  rdf::TriplePattern types;
  types.property = v.type;
  ScanPattern(types, [&](const rdf::Triple& t) {
    auto it = encodings.find(t.subject);
    if (it == encodings.end()) return;
    for (uint64_t encoding : it->second) {
      result.rows.push_back({t.subject, encoding, t.object});
    }
  });
  return result;
}

QueryResult PropertyTableBackend::RunQ8(const QueryContext& ctx) const {
  const auto& v = ctx.vocab();
  std::unordered_set<uint64_t> t_objects;
  {
    rdf::TriplePattern pattern;
    pattern.subject = v.conferences;
    ScanPattern(pattern,
                [&](const rdf::Triple& t) { t_objects.insert(t.object); });
  }
  std::unordered_set<uint64_t> subjects;
  ScanPattern({}, [&](const rdf::Triple& t) {
    if (t.subject != v.conferences && t_objects.count(t.object) != 0) {
      subjects.insert(t.subject);
    }
  });
  QueryResult result;
  result.column_names = {"subj"};
  for (uint64_t s : subjects) result.rows.push_back({s});
  return result;
}

QueryResult PropertyTableBackend::Run(QueryId id, const QueryContext& ctx,
                                      const exec::ExecContext& ectx) {
  // The wide-table scans are row-at-a-time over a single clustered tree;
  // they stay serial (the scheme is the paper's excluded extension, not a
  // scalability subject), so the context only carries the trace session.
  obs::Span span(ectx.trace(), "prop_table.query");
  switch (BaseOf(id)) {
    case QueryId::kQ1:
      return RunQ1(ctx);
    case QueryId::kQ2:
      return RunQ2Family(id, ctx);
    case QueryId::kQ3:
    case QueryId::kQ4:
      return RunQ3Family(id, ctx);
    case QueryId::kQ5:
      return RunQ5(ctx);
    case QueryId::kQ6:
      return RunQ6Family(id, ctx);
    case QueryId::kQ7:
      return RunQ7(ctx);
    case QueryId::kQ8:
      return RunQ8(ctx);
    default:
      SWAN_CHECK(false);
      return {};
  }
}

Status PropertyTableBackend::Insert(const rdf::Triple& triple) {
  // Duplicate check must consult the wide table too.
  rdf::TriplePattern exact;
  exact.subject = triple.subject;
  exact.property = triple.property;
  exact.object = triple.object;
  bool present = false;
  ScanPattern(exact, [&](const rdf::Triple&) { present = true; });
  if (present) return Status::AlreadyExists("triple already present");
  const bool inserted = overflow_->Insert(triple);
  SWAN_CHECK(inserted);
  return Status::OK();
}

std::vector<rdf::Triple> PropertyTableBackend::Match(
    const rdf::TriplePattern& pattern, const exec::ExecContext& ectx) const {
  // Pattern scans stay serial; the span is suppressed automatically
  // inside BGP worker lanes.
  obs::Span span(ectx.trace(), "prop_table.match");
  std::vector<rdf::Triple> out;
  ScanPattern(pattern, [&](const rdf::Triple& t) {
    if (pattern.Matches(t)) out.push_back(t);
  });
  span.set_rows_out(out.size());
  return out;
}

}  // namespace swan::core
