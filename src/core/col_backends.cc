#include "core/col_backends.h"

#include <algorithm>
#include <numeric>
#include <span>

#include "common/macros.h"
#include "obs/trace.h"
#include "plan/algebra.h"

namespace swan::core {

namespace {

using colstore::CountByKeyDense;
using colstore::CountByPair;
using colstore::EncodedColumn;
using colstore::EqRangeSorted;
using colstore::ForEachDecodedBatch;
using colstore::Gather;
using colstore::kDecodeBatch;
using colstore::MarkSet;
using colstore::MergeCountMatches;
using colstore::MergeJoin;
using colstore::MergeSelectPositions;
using colstore::PositionVector;
using colstore::SelectEq;
using colstore::SortDistinct;
using colstore::SortedIntersect;
using colstore::UnionDistinct;

// Index of `value` in the sorted `keys`, or keys.size() when absent.
size_t KeyIndex(std::span<const uint64_t> keys, uint64_t value) {
  const auto it = std::lower_bound(keys.begin(), keys.end(), value);
  return it != keys.end() && *it == value
             ? static_cast<size_t>(it - keys.begin())
             : keys.size();
}

// Regroups (key index, triple) hits, collected in scan order, into runs
// for `keys` keys: a stable counting sort, so each run keeps scan order.
MatchRuns GroupByKey(
    size_t keys, const std::vector<std::pair<size_t, rdf::Triple>>& hits) {
  MatchRuns runs;
  runs.offsets.assign(keys + 1, 0);
  for (const auto& hit : hits) ++runs.offsets[hit.first + 1];
  for (size_t k = 0; k < keys; ++k) runs.offsets[k + 1] += runs.offsets[k];
  std::vector<size_t> next(runs.offsets.begin(), runs.offsets.end() - 1);
  runs.triples.resize(hits.size());
  for (const auto& [key, triple] : hits) runs.triples[next[key]++] = triple;
  return runs;
}

// Morsel size for the triple store's fused column scans (matches the ops
// kernels' chunking).
constexpr uint64_t kScanMorsel = 1ull << 16;

// Fused scan-and-count: counts occurrences of prop[i] over rows whose
// subject is in `subjects`. Sharded into per-chunk dense partials that are
// summed afterwards, so the totals are identical at any thread count.
// Operates on the encoded views: an RLE property column (the PSO case)
// contributes one counter target per run and only the subject column is
// decoded, batch by batch.
std::vector<uint64_t> CountPropsOfMarkedSubjects(
    const EncodedColumn& subj, const EncodedColumn& prop, uint64_t dict_size,
    const MarkSet& subjects, const exec::ExecContext& ectx) {
  obs::Span span(ectx.trace(), "col.count_props");
  span.set_rows_in(subj.size());
  const uint64_t n = subj.size();
  const auto accumulate = [&](uint64_t b, uint64_t e,
                              std::vector<uint64_t>* counts) {
    if (b >= e) return;
    if (prop.rep() == EncodedColumn::Rep::kRle) {
      for (size_t r = prop.RunIndexOf(b);; ++r) {
        const colstore::RleRun& run = prop.runs()[r];
        const uint64_t lo = std::max<uint64_t>(run.start, b);
        const uint64_t hi = std::min<uint64_t>(run.start + run.length, e);
        uint64_t hits = 0;
        ForEachDecodedBatch(
            subj, lo, hi, [&](uint64_t, const uint64_t* vals, uint64_t cnt) {
              for (uint64_t i = 0; i < cnt; ++i) {
                if (subjects.Test(vals[i])) ++hits;
              }
            });
        (*counts)[run.value] += hits;
        if (hi >= e) break;
      }
      return;
    }
    // Sized per batch: the flat fast path hands the whole range over as
    // one batch, which can exceed kDecodeBatch.
    std::vector<uint64_t> pbuf;
    ForEachDecodedBatch(
        subj, b, e, [&](uint64_t base, const uint64_t* vals, uint64_t cnt) {
          if (pbuf.size() < cnt) pbuf.resize(cnt);
          prop.MaterializeInto(base, base + cnt, pbuf.data());
          for (uint64_t i = 0; i < cnt; ++i) {
            if (subjects.Test(vals[i])) ++(*counts)[pbuf[i]];
          }
        });
  };
  const uint64_t shards = ectx.ShardsFor(n, kScanMorsel);
  std::vector<uint64_t> counts;
  if (shards <= 1) {
    counts.assign(dict_size, 0);
    accumulate(0, n, &counts);
    return counts;
  }
  const uint64_t grain = (n + shards - 1) / shards;
  std::vector<std::vector<uint64_t>> partials(shards);
  ectx.ParallelFor(n, grain, [&](uint64_t b, uint64_t e, uint64_t c) {
    partials[c].assign(dict_size, 0);
    accumulate(b, e, &partials[c]);
  });
  counts = std::move(partials[0]);
  for (uint64_t s = 1; s < shards; ++s) {
    const auto& p = partials[s];
    for (uint64_t k = 0; k < dict_size; ++k) counts[k] += p[k];
  }
  return counts;
}

// Chunked positional scan over two aligned encoded columns: decodes
// kDecodeBatch values of each at a time and collects positions i where
// pred(a[i], b[i]), morsel by morsel, concatenated in chunk order — the
// serial scan's output. Neither column is ever fully materialized.
template <typename Pred>
PositionVector ScanPairPositions(const exec::ExecContext& ectx,
                                 const EncodedColumn& a,
                                 const EncodedColumn& b, const Pred& pred) {
  obs::Span span(ectx.trace(), "col.scan_positions");
  const uint64_t n = a.size();
  span.set_rows_in(n);
  const auto fill = [&](uint64_t lo, uint64_t hi, PositionVector* out) {
    if (lo >= hi) return;
    std::vector<uint64_t> bbuf;
    ForEachDecodedBatch(
        a, lo, hi, [&](uint64_t base, const uint64_t* av, uint64_t cnt) {
          if (bbuf.size() < cnt) bbuf.resize(cnt);
          b.MaterializeInto(base, base + cnt, bbuf.data());
          for (uint64_t i = 0; i < cnt; ++i) {
            if (pred(av[i], bbuf[i])) {
              out->push_back(static_cast<uint32_t>(base + i));
            }
          }
        });
  };
  if (!ectx.parallel() || n < 2 * kScanMorsel) {
    PositionVector out;
    fill(0, n, &out);
    span.set_rows_out(out.size());
    return out;
  }
  const uint64_t chunks = (n + kScanMorsel - 1) / kScanMorsel;
  std::vector<PositionVector> parts(chunks);
  ectx.ParallelFor(n, kScanMorsel, [&](uint64_t b2, uint64_t e2, uint64_t c) {
    fill(b2, e2, &parts[c]);
  });
  size_t total = 0;
  for (const auto& p : parts) total += p.size();
  PositionVector out;
  out.reserve(total);
  for (const auto& p : parts) out.insert(out.end(), p.begin(), p.end());
  span.set_rows_out(out.size());
  return out;
}

// One (property, row-range) work unit of a flattened per-property fan-out.
struct PropMorsel {
  uint32_t prop_idx;
  uint32_t lo;
  uint32_t hi;
};

// Splits every property's partition rows into ~kScanMorsel-row morsels,
// in (property, range) order. Fanning out over these instead of whole
// properties lets one giant partition (the q4*-family skew case, where a
// handful of properties hold most of the data) load-balance across lanes
// instead of serializing on a single one.
template <typename RowCountFn>
std::vector<PropMorsel> FlattenPropMorsels(uint64_t props,
                                           const RowCountFn& rows_of) {
  std::vector<PropMorsel> morsels;
  for (uint64_t k = 0; k < props; ++k) {
    const uint64_t n = rows_of(k);
    for (uint64_t lo = 0; lo < n; lo += kScanMorsel) {
      morsels.push_back({static_cast<uint32_t>(k), static_cast<uint32_t>(lo),
                         static_cast<uint32_t>(std::min(lo + kScanMorsel, n))});
    }
  }
  return morsels;
}

}  // namespace

// ---------------------------------------------------------------------------
// ColTripleBackend
// ---------------------------------------------------------------------------

ColTripleBackend::ColTripleBackend(const rdf::Dataset& dataset,
                                   rdf::TripleOrder order,
                                   storage::DiskConfig disk_config,
                                   size_t pool_pages,
                                   colstore::ColumnCodec codec)
    : BackendBase(disk_config, pool_pages) {
  SWAN_CHECK_MSG(
      order == rdf::TripleOrder::kSPO || order == rdf::TripleOrder::kPSO,
      "column triple-store supports SPO or PSO sort order");
  pso_ = order == rdf::TripleOrder::kPSO;
  codec_ = codec;
  dataset_ = &dataset;
  table_ = std::make_unique<colstore::TripleTable>(pool_, disk_,
                                                   order, codec);
  table_->Load(dataset.triples());
}

ColTripleBackend::ColTripleBackend(const rdf::Dataset& dataset,
                                   rdf::TripleOrder order,
                                   storage::SimulatedDisk* disk,
                                   storage::BufferPool* pool,
                                   std::vector<rdf::Triple> subset,
                                   colstore::ColumnCodec codec)
    : BackendBase(disk, pool) {
  SWAN_CHECK_MSG(
      order == rdf::TripleOrder::kSPO || order == rdf::TripleOrder::kPSO,
      "column triple-store supports SPO or PSO sort order");
  pso_ = order == rdf::TripleOrder::kPSO;
  codec_ = codec;
  dataset_ = &dataset;
  table_ = std::make_unique<colstore::TripleTable>(pool_, disk_, order, codec);
  table_->Load(std::move(subset));
}

audit::AuditReport ColTripleBackend::Audit(audit::AuditLevel level) const {
  audit::AuditReport report;
  table_->AuditInto(level, dataset_->dict().size(), &report);
  report.Merge(BackendBase::Audit(level));
  return report;
}

std::string ColTripleBackend::name() const {
  return std::string("MonetDB triple ") + ToString(table_->order());
}

void ColTripleBackend::DropCaches() {
  table_->DropCaches();
  pool_->Clear();
}

PositionVector ColTripleBackend::PropPositions(
    uint64_t property, const exec::ExecContext& ectx) const {
  if (pso_) {
    const auto [lo, hi] = table_->PrimaryRange(property);
    PositionVector out(hi - lo);
    std::iota(out.begin(), out.end(), lo);
    return out;
  }
  return SelectEq(table_->encoded_properties(), property, ectx);
}

std::vector<uint64_t> ColTripleBackend::SubjectsWithPropObj(
    uint64_t property, uint64_t object, const exec::ExecContext& ectx) const {
  const PositionVector props = PropPositions(property, ectx);
  const PositionVector sel =
      SelectEq(table_->encoded_objects(), props, object, ectx);
  // Subjects come out ascending in both sort orders: SPO is globally
  // subject-sorted, PSO is subject-sorted within one property.
  return Gather(table_->encoded_subjects(), sel, ectx);
}

QueryResult ColTripleBackend::RunQ1(const QueryContext& ctx,
                                    const exec::ExecContext& ectx) const {
  obs::Span span(ectx.trace(), "col_triple.q1");
  const PositionVector sel = PropPositions(ctx.vocab().type, ectx);
  QueryResult result;
  result.column_names = {"obj", "count"};
  for (const auto& [obj, count] :
       CountByKeyDense(table_->encoded_objects(), sel, ctx.dict_size(),
                       ectx)) {
    result.rows.push_back({obj, count});
  }
  return result;
}

QueryResult ColTripleBackend::RunQ2Family(QueryId id, const QueryContext& ctx,
                                          const exec::ExecContext& ectx) const {
  obs::Span span(ectx.trace(), "col_triple.q2_family");
  const auto& v = ctx.vocab();
  MarkSet a_subjects(ctx.dict_size());
  a_subjects.MarkAll(SubjectsWithPropObj(v.type, v.text, ectx));

  const bool filter = AppliesPropertyFilter(id, ctx);
  MarkSet interesting(filter ? ctx.dict_size() : 1);
  if (filter) interesting.MarkAll(ctx.interesting_properties());

  // Count every property of the marked subjects (morsel-parallel), then
  // apply the property filter when emitting — non-interesting properties
  // simply never produce a row, so the rows match the fused filter scan.
  const std::vector<uint64_t> counts = CountPropsOfMarkedSubjects(
      table_->encoded_subjects(), table_->encoded_properties(),
      ctx.dict_size(), a_subjects, ectx);

  QueryResult result;
  result.column_names = {"prop", "count"};
  for (uint64_t p = 0; p < counts.size(); ++p) {
    if (counts[p] == 0) continue;
    if (filter && !interesting.Test(p)) continue;
    result.rows.push_back({p, counts[p]});
  }
  return result;
}

QueryResult ColTripleBackend::RunQ3Family(QueryId id, const QueryContext& ctx,
                                          const exec::ExecContext& ectx) const {
  obs::Span span(ectx.trace(), "col_triple.q3_family");
  const auto& v = ctx.vocab();
  MarkSet a_subjects(ctx.dict_size());
  a_subjects.MarkAll(SubjectsWithPropObj(v.type, v.text, ectx));

  // q4/q4*: B's subject must also carry (language, fre).
  const bool with_language =
      BaseOf(id) == QueryId::kQ4;
  MarkSet c_subjects(with_language ? ctx.dict_size() : 1);
  if (with_language) {
    c_subjects.MarkAll(SubjectsWithPropObj(v.language, v.french, ectx));
  }

  const bool filter = AppliesPropertyFilter(id, ctx);
  MarkSet interesting(filter ? ctx.dict_size() : 1);
  if (filter) interesting.MarkAll(ctx.interesting_properties());

  const PositionVector sel = ScanPairPositions(
      ectx, table_->encoded_subjects(), table_->encoded_properties(),
      [&](uint64_t s, uint64_t p) {
        if (!a_subjects.Test(s)) return false;
        if (with_language && !c_subjects.Test(s)) return false;
        if (filter && !interesting.Test(p)) return false;
        return true;
      });

  const std::vector<uint64_t> props =
      Gather(table_->encoded_properties(), sel, ectx);
  const std::vector<uint64_t> objs =
      Gather(table_->encoded_objects(), sel, ectx);

  QueryResult result;
  result.column_names = {"prop", "obj", "count"};
  for (const auto& group : CountByPair(props, objs, ectx)) {
    if (group.count > 1) {
      result.rows.push_back({group.a, group.b, group.count});
    }
  }
  return result;
}

QueryResult ColTripleBackend::RunQ5(const QueryContext& ctx,
                                    const exec::ExecContext& ectx) const {
  obs::Span span(ectx.trace(), "col_triple.q5");
  const auto& v = ctx.vocab();
  MarkSet a_subjects(ctx.dict_size());
  a_subjects.MarkAll(SubjectsWithPropObj(v.origin, v.dlc, ectx));

  // B: records-triples of DLC-origin subjects, as (object, subject) pairs
  // sorted by object for the C-join. Only the selected rows are decoded.
  const PositionVector rec_positions = PropPositions(v.records, ectx);
  std::vector<std::pair<uint64_t, uint64_t>> b_pairs;
  {
    const std::vector<uint64_t> rec_subj =
        Gather(table_->encoded_subjects(), rec_positions, ectx);
    const std::vector<uint64_t> rec_obj =
        Gather(table_->encoded_objects(), rec_positions, ectx);
    for (size_t i = 0; i < rec_positions.size(); ++i) {
      if (a_subjects.Test(rec_subj[i])) {
        b_pairs.emplace_back(rec_obj[i], rec_subj[i]);
      }
    }
  }
  std::sort(b_pairs.begin(), b_pairs.end());
  std::vector<uint64_t> b_objects(b_pairs.size());
  for (size_t i = 0; i < b_pairs.size(); ++i) b_objects[i] = b_pairs[i].first;

  QueryResult result;
  result.column_names = {"subj", "obj"};
  if (pso_) {
    // C is one contiguous PSO row range: merge-join directly against the
    // encoded subject column, run-by-run; objects decode only at
    // projection.
    const auto [lo, hi] = table_->PrimaryRange(v.type);
    std::vector<uint64_t> c_objects(hi - lo);
    table_->encoded_objects().MaterializeInto(lo, hi, c_objects.data());
    for (const auto& [bi, ci] :
         MergeJoin(b_objects, table_->encoded_subjects(), lo, hi, ectx)) {
      if (c_objects[ci] != v.text) {
        result.rows.push_back({b_pairs[bi].second, c_objects[ci]});
      }
    }
    return result;
  }
  // SPO: type rows are scattered; gather both C columns (subject-sorted
  // because the whole table is).
  const PositionVector type_positions = PropPositions(v.type, ectx);
  const std::vector<uint64_t> c_subjects =
      Gather(table_->encoded_subjects(), type_positions, ectx);
  const std::vector<uint64_t> c_objects =
      Gather(table_->encoded_objects(), type_positions, ectx);
  for (const auto& [bi, ci] : MergeJoin(b_objects, c_subjects, ectx)) {
    if (c_objects[ci] != v.text) {
      result.rows.push_back({b_pairs[bi].second, c_objects[ci]});
    }
  }
  return result;
}

QueryResult ColTripleBackend::RunQ6Family(QueryId id, const QueryContext& ctx,
                                          const exec::ExecContext& ectx) const {
  obs::Span span(ectx.trace(), "col_triple.q6_family");
  const auto& v = ctx.vocab();
  const std::vector<uint64_t> a1 = SubjectsWithPropObj(v.type, v.text, ectx);
  MarkSet text_typed(ctx.dict_size());
  text_typed.MarkAll(a1);

  // Union: Text-typed subjects plus subjects whose records-object is
  // Text-typed.
  MarkSet united(ctx.dict_size());
  united.MarkAll(a1);
  {
    const PositionVector recs = PropPositions(v.records, ectx);
    const std::vector<uint64_t> rec_subj =
        Gather(table_->encoded_subjects(), recs, ectx);
    const std::vector<uint64_t> rec_obj =
        Gather(table_->encoded_objects(), recs, ectx);
    for (size_t i = 0; i < recs.size(); ++i) {
      if (text_typed.Test(rec_obj[i])) united.Mark(rec_subj[i]);
    }
  }

  const bool filter = AppliesPropertyFilter(id, ctx);
  MarkSet interesting(filter ? ctx.dict_size() : 1);
  if (filter) interesting.MarkAll(ctx.interesting_properties());

  const std::vector<uint64_t> counts = CountPropsOfMarkedSubjects(
      table_->encoded_subjects(), table_->encoded_properties(),
      ctx.dict_size(), united, ectx);

  QueryResult result;
  result.column_names = {"prop", "count"};
  for (uint64_t p = 0; p < counts.size(); ++p) {
    if (counts[p] == 0) continue;
    if (filter && !interesting.Test(p)) continue;
    result.rows.push_back({p, counts[p]});
  }
  return result;
}

QueryResult ColTripleBackend::RunQ7(const QueryContext& ctx,
                                    const exec::ExecContext& ectx) const {
  obs::Span span(ectx.trace(), "col_triple.q7");
  const auto& v = ctx.vocab();
  MarkSet a_subjects(ctx.dict_size());
  a_subjects.MarkAll(SubjectsWithPropObj(v.point, v.end, ectx));

  auto collect = [&](uint64_t property, std::vector<uint64_t>* subjects,
                     std::vector<uint64_t>* objects) {
    const PositionVector positions = PropPositions(property, ectx);
    const std::vector<uint64_t> ps =
        Gather(table_->encoded_subjects(), positions, ectx);
    const std::vector<uint64_t> po =
        Gather(table_->encoded_objects(), positions, ectx);
    for (size_t i = 0; i < positions.size(); ++i) {
      if (a_subjects.Test(ps[i])) {
        subjects->push_back(ps[i]);
        objects->push_back(po[i]);
      }
    }
  };

  std::vector<uint64_t> b_subj, b_obj, c_subj, c_obj;
  collect(v.encoding, &b_subj, &b_obj);
  collect(v.type, &c_subj, &c_obj);

  QueryResult result;
  result.column_names = {"subj", "encoding", "type"};
  for (const auto& [bi, ci] : MergeJoin(b_subj, c_subj, ectx)) {
    result.rows.push_back({b_subj[bi], b_obj[bi], c_obj[ci]});
  }
  return result;
}

QueryResult ColTripleBackend::RunQ8(const QueryContext& ctx,
                                    const exec::ExecContext& ectx) const {
  obs::Span span(ectx.trace(), "col_triple.q8");
  const auto& v = ctx.vocab();
  std::vector<uint64_t> t;
  if (pso_) {
    const PositionVector sel =
        SelectEq(table_->encoded_subjects(), v.conferences, ectx);
    t = SortDistinct(Gather(table_->encoded_objects(), sel, ectx));
  } else {
    const auto [lo, hi] = table_->PrimaryRange(v.conferences);
    std::vector<uint64_t> range_objs(hi - lo);
    table_->encoded_objects().MaterializeInto(lo, hi, range_objs.data());
    t = SortDistinct(std::move(range_objs));
  }
  MarkSet shared(ctx.dict_size());
  shared.MarkAll(t);

  const PositionVector hits = ScanPairPositions(
      ectx, table_->encoded_subjects(), table_->encoded_objects(),
      [&](uint64_t s, uint64_t o) {
        return s != v.conferences && shared.Test(o);
      });
  std::vector<uint64_t> out =
      SortDistinct(Gather(table_->encoded_subjects(), hits, ectx));

  QueryResult result;
  result.column_names = {"subj"};
  for (uint64_t s : out) result.rows.push_back({s});
  return result;
}

bool ColTripleBackend::BaseContains(const rdf::Triple& t) const {
  const auto [lo, hi] =
      pso_ ? table_->PrimarySecondaryRange(t.property, t.subject)
           : table_->PrimarySecondaryRange(t.subject, t.property);
  // Point probes decode only the rows of the (usually tiny) range.
  const EncodedColumn& obj = table_->encoded_objects();
  for (uint32_t i = lo; i < hi; ++i) {
    if (obj.ValueAt(i) == t.object) return true;
  }
  return false;
}

Status ColTripleBackend::Insert(const rdf::Triple& triple) {
  if (tombstones_.erase(triple) != 0) {
    // Re-inserting a tombstoned base row just cancels the pending delete;
    // the base columns still hold it physically.
    return Status::OK();
  }
  if (delta_set_.count(triple) != 0 || BaseContains(triple)) {
    return Status::AlreadyExists("triple already present");
  }
  delta_.push_back(triple);
  delta_set_.insert(triple);
  return Status::OK();
}

Status ColTripleBackend::Delete(const rdf::Triple& triple) {
  if (delta_set_.erase(triple) != 0) {
    // Deleting an unmerged insert cancels the delta entry directly.
    const auto it = std::find(delta_.begin(), delta_.end(), triple);
    SWAN_CHECK(it != delta_.end());
    delta_.erase(it);
    return Status::OK();
  }
  if (tombstones_.count(triple) != 0 || !BaseContains(triple)) {
    return Status::NotFound("triple not present");
  }
  tombstones_.insert(triple);
  return Status::OK();
}

void ColTripleBackend::EnsureMerged() {
  if (delta_.empty() && tombstones_.empty()) return;
  // Merge the write store into the read-optimized columns: read the base
  // columns back, drop tombstoned rows, append the delta, and rebuild —
  // the full cost a sorted-column store pays for updates.
  std::vector<rdf::Triple> all;
  all.reserve(table_->size() + delta_.size());
  const auto& subj = table_->subjects();
  const auto& prop = table_->properties();
  const auto& obj = table_->objects();
  for (size_t i = 0; i < subj.size(); ++i) {
    const rdf::Triple t{subj[i], prop[i], obj[i]};
    if (!tombstones_.empty() && tombstones_.count(t) != 0) continue;
    all.push_back(t);
  }
  all.insert(all.end(), delta_.begin(), delta_.end());
  table_ = std::make_unique<colstore::TripleTable>(pool_, disk_,
                                                   table_->order(), codec_);
  table_->Load(std::move(all));
  delta_.clear();
  delta_set_.clear();
  tombstones_.clear();
  ++merge_count_;
}

QueryResult ColTripleBackend::Run(QueryId id, const QueryContext& ctx,
                                  const exec::ExecContext& ectx) {
  if (!delta_.empty() || !tombstones_.empty()) {
    obs::Span span(ectx.trace(), "col_triple.merge_delta");
    span.set_rows_in(delta_.size() + tombstones_.size());
    EnsureMerged();
  }
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

std::vector<rdf::Triple> ColTripleBackend::Match(
    const rdf::TriplePattern& pattern, const exec::ExecContext& ectx) const {
  // Suppressed automatically when Match runs inside a BGP worker lane.
  obs::Span span(ectx.trace(), "col_triple.match");
  PositionVector sel;
  bool have_sel = false;

  // Exploit the physical sort order for the leading bound component.
  rdf::TriplePattern residual = pattern;
  if (pso_ && pattern.property) {
    uint32_t lo = 0, hi = 0;
    if (pattern.subject) {
      std::tie(lo, hi) = table_->PrimarySecondaryRange(*pattern.property,
                                                       *pattern.subject);
      residual.subject.reset();
    } else {
      std::tie(lo, hi) = table_->PrimaryRange(*pattern.property);
    }
    residual.property.reset();
    sel.resize(hi - lo);
    std::iota(sel.begin(), sel.end(), lo);
    have_sel = true;
  } else if (!pso_ && pattern.subject) {
    uint32_t lo = 0, hi = 0;
    if (pattern.property) {
      std::tie(lo, hi) = table_->PrimarySecondaryRange(*pattern.subject,
                                                       *pattern.property);
      residual.property.reset();
    } else {
      std::tie(lo, hi) = table_->PrimaryRange(*pattern.subject);
    }
    residual.subject.reset();
    sel.resize(hi - lo);
    std::iota(sel.begin(), sel.end(), lo);
    have_sel = true;
  }

  if (!have_sel) {
    sel.resize(table_->size());
    std::iota(sel.begin(), sel.end(), 0);
  }
  if (residual.subject) {
    sel = SelectEq(table_->subjects(), sel, *residual.subject, ectx);
  }
  if (residual.property) {
    sel = SelectEq(table_->properties(), sel, *residual.property, ectx);
  }
  if (residual.object) {
    sel = SelectEq(table_->objects(), sel, *residual.object, ectx);
  }

  std::vector<rdf::Triple> out;
  out.reserve(sel.size());
  const auto& subj = table_->subjects();
  const auto& prop = table_->properties();
  const auto& obj = table_->objects();
  for (uint32_t i : sel) {
    const rdf::Triple t{subj[i], prop[i], obj[i]};
    if (!tombstones_.empty() && tombstones_.count(t) != 0) continue;
    out.push_back(t);
  }
  // Unmerged inserts are visible to pattern lookups via a delta scan.
  for (const rdf::Triple& t : delta_) {
    if (pattern.Matches(t)) out.push_back(t);
  }
  span.set_rows_out(out.size());
  return out;
}

// ---------------------------------------------------------------------------
// ColVerticalBackend
// ---------------------------------------------------------------------------

ColVerticalBackend::ColVerticalBackend(const rdf::Dataset& dataset,
                                       storage::DiskConfig disk_config,
                                       size_t pool_pages,
                                       colstore::ColumnCodec codec)
    : BackendBase(disk_config, pool_pages) {
  codec_ = codec;
  dataset_ = &dataset;
  table_ = std::make_unique<colstore::VerticalTable>(pool_, disk_,
                                                     codec);
  table_->Load(dataset.triples());
}

ColVerticalBackend::ColVerticalBackend(const rdf::Dataset& dataset,
                                       storage::SimulatedDisk* disk,
                                       storage::BufferPool* pool,
                                       std::vector<rdf::Triple> subset,
                                       colstore::ColumnCodec codec)
    : BackendBase(disk, pool) {
  codec_ = codec;
  dataset_ = &dataset;
  table_ = std::make_unique<colstore::VerticalTable>(pool_, disk_, codec);
  table_->Load(subset);
}

audit::AuditReport ColVerticalBackend::Audit(audit::AuditLevel level) const {
  audit::AuditReport report;
  table_->AuditInto(level, dataset_->dict().size(), &report);
  report.Merge(BackendBase::Audit(level));
  return report;
}

bool ColVerticalBackend::BaseContains(const rdf::Triple& t) const {
  if (!table_->HasPartition(t.property)) return false;
  const auto [lo, hi] = table_->SubjectRange(t.property, t.subject);
  const EncodedColumn& obj = table_->EncodedObjects(t.property);
  for (uint32_t i = lo; i < hi; ++i) {
    if (obj.ValueAt(i) == t.object) return true;
  }
  return false;
}

Status ColVerticalBackend::Insert(const rdf::Triple& triple) {
  if (tombstones_.erase(triple) != 0) {
    // Cancels a pending delete; the base partition still holds the row.
    return Status::OK();
  }
  if (delta_set_.count(triple) != 0 || BaseContains(triple)) {
    return Status::AlreadyExists("triple already present");
  }
  if (!table_->HasPartition(triple.property) &&
      delta_.count(triple.property) == 0) {
    // The data-driven schema grows: a new property means a new table.
    ++partitions_created_;
  }
  delta_[triple.property].emplace_back(triple.subject, triple.object);
  delta_set_.insert(triple);
  return Status::OK();
}

Status ColVerticalBackend::Delete(const rdf::Triple& triple) {
  if (delta_set_.erase(triple) != 0) {
    // Deleting an unmerged insert cancels the delta entry directly.
    auto it = delta_.find(triple.property);
    SWAN_CHECK(it != delta_.end());
    const std::pair<uint64_t, uint64_t> row{triple.subject, triple.object};
    const auto pos = std::find(it->second.begin(), it->second.end(), row);
    SWAN_CHECK(pos != it->second.end());
    it->second.erase(pos);
    if (it->second.empty()) delta_.erase(it);
    return Status::OK();
  }
  if (tombstones_.count(triple) != 0 || !BaseContains(triple)) {
    return Status::NotFound("triple not present");
  }
  tombstones_.insert(triple);
  return Status::OK();
}

void ColVerticalBackend::EnsureMerged() {
  if (delta_.empty() && tombstones_.empty()) return;
  // Every partition touched by an insert or a delete is rebuilt in full —
  // the data-driven vertical schema's update cost the paper warns about.
  std::unordered_set<uint64_t> touched;
  for (const auto& [property, fresh] : delta_) touched.insert(property);
  for (const rdf::Triple& t : tombstones_) touched.insert(t.property);
  for (uint64_t property : touched) {
    std::vector<std::pair<uint64_t, uint64_t>> rows;
    if (table_->HasPartition(property)) {
      const auto& subj = table_->Subjects(property);
      const auto& obj = table_->Objects(property);
      rows.reserve(subj.size());
      for (size_t i = 0; i < subj.size(); ++i) {
        if (!tombstones_.empty() &&
            tombstones_.count({subj[i], property, obj[i]}) != 0) {
          continue;
        }
        rows.emplace_back(subj[i], obj[i]);
      }
    }
    const auto it = delta_.find(property);
    if (it != delta_.end()) {
      rows.insert(rows.end(), it->second.begin(), it->second.end());
    }
    std::sort(rows.begin(), rows.end());
    rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
    table_->ReplacePartition(property, rows);
  }
  delta_.clear();
  delta_set_.clear();
  tombstones_.clear();
  ++merge_count_;
}

std::string ColVerticalBackend::name() const { return "MonetDB vert. SO"; }

void ColVerticalBackend::DropCaches() {
  table_->DropCaches();
  pool_->Clear();
}

std::vector<uint64_t> ColVerticalBackend::SubjectsWhereObjEq(
    uint64_t property, uint64_t object, const exec::ExecContext& ectx) const {
  if (!table_->HasPartition(property)) return {};
  const PositionVector sel =
      SelectEq(table_->EncodedObjects(property), object, ectx);
  // Subject columns are sorted, so the gathered subset stays sorted.
  return Gather(table_->EncodedSubjects(property), sel, ectx);
}

std::vector<uint64_t> ColVerticalBackend::PropertyList(
    QueryId id, const QueryContext& ctx) const {
  if (IsStar(id) || ctx.FilterCoversAll()) return table_->properties();
  return ctx.interesting_properties();
}

QueryResult ColVerticalBackend::RunQ1(const QueryContext& ctx,
                                      const exec::ExecContext& ectx) const {
  obs::Span span(ectx.trace(), "col_vert.q1");
  QueryResult result;
  result.column_names = {"obj", "count"};
  if (!table_->HasPartition(ctx.vocab().type)) return result;
  for (const auto& [obj, count] : CountByKeyDense(
           table_->EncodedObjects(ctx.vocab().type), ctx.dict_size(), ectx)) {
    result.rows.push_back({obj, count});
  }
  return result;
}

QueryResult ColVerticalBackend::RunQ2Family(
    QueryId id, const QueryContext& ctx, const exec::ExecContext& ectx) const {
  obs::Span span(ectx.trace(), "col_vert.q2_family");
  const auto& v = ctx.vocab();
  const std::vector<uint64_t> a = SubjectsWhereObjEq(v.type, v.text, ectx);

  QueryResult result;
  result.column_names = {"prop", "count"};
  // One merge join per property table, then the implicit union of all the
  // per-partition results — the plan shape the Perl-generated SQL produces.
  // The fan-out is over flattened (property, row-range) morsels rather
  // than whole properties, so the handful of giant partitions that
  // dominate q2* load-balance across lanes; per-morsel counts are
  // additive per property, so the totals match the serial loop exactly.
  const std::vector<uint64_t> props = PropertyList(id, ctx);
  const std::vector<PropMorsel> morsels = FlattenPropMorsels(
      props.size(),
      [&](uint64_t k) -> uint64_t { return table_->PartitionSize(props[k]); });
  std::vector<uint64_t> partial(morsels.size(), 0);
  ectx.ParallelFor(morsels.size(), 1, [&](uint64_t b, uint64_t e, uint64_t) {
    for (uint64_t m = b; m < e; ++m) {
      const PropMorsel& ms = morsels[m];
      partial[m] =
          MergeCountMatches(table_->EncodedSubjects(props[ms.prop_idx]),
                            ms.lo, ms.hi, a, ectx);
    }
  });
  std::vector<uint64_t> counts(props.size(), 0);
  for (size_t m = 0; m < morsels.size(); ++m) {
    counts[morsels[m].prop_idx] += partial[m];
  }
  for (size_t k = 0; k < props.size(); ++k) {
    if (counts[k] > 0) result.rows.push_back({props[k], counts[k]});
  }
  return result;
}

QueryResult ColVerticalBackend::RunQ3Family(
    QueryId id, const QueryContext& ctx, const exec::ExecContext& ectx) const {
  obs::Span span(ectx.trace(), "col_vert.q3_family");
  const auto& v = ctx.vocab();
  std::vector<uint64_t> a = SubjectsWhereObjEq(v.type, v.text, ectx);
  if (BaseOf(id) == QueryId::kQ4) {
    a = SortedIntersect(a, SubjectsWhereObjEq(v.language, v.french, ectx));
  }

  QueryResult result;
  result.column_names = {"prop", "obj", "count"};
  // Flattened (property, row-range) morsels: each morsel filters its row
  // range against `a` and pre-aggregates its objects into a sorted
  // (obj, count) list; per property, the morsel lists are merged with
  // counts summed, which is exactly the serial whole-partition
  // sort-and-count. This is the q4* fix: before, one skewed partition
  // pinned the entire query to a single lane.
  const std::vector<uint64_t> props = PropertyList(id, ctx);
  const std::vector<PropMorsel> morsels = FlattenPropMorsels(
      props.size(),
      [&](uint64_t k) -> uint64_t { return table_->PartitionSize(props[k]); });
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> partial(
      morsels.size());
  ectx.ParallelFor(morsels.size(), 1, [&](uint64_t b, uint64_t e, uint64_t) {
    for (uint64_t m = b; m < e; ++m) {
      const PropMorsel& ms = morsels[m];
      const uint64_t p = props[ms.prop_idx];
      // Positions are relative to ms.lo; only the selected objects decode.
      const PositionVector sel = MergeSelectPositions(
          table_->EncodedSubjects(p), ms.lo, ms.hi, a, ectx);
      const EncodedColumn& obj = table_->EncodedObjects(p);
      std::vector<uint64_t> objs(sel.size());
      for (size_t i = 0; i < sel.size(); ++i) {
        objs[i] = obj.ValueAt(ms.lo + sel[i]);
      }
      std::sort(objs.begin(), objs.end());
      size_t i = 0;
      while (i < objs.size()) {
        size_t j = i + 1;
        while (j < objs.size() && objs[j] == objs[i]) ++j;
        partial[m].emplace_back(objs[i], static_cast<uint64_t>(j - i));
        i = j;
      }
    }
  });
  // Stitch per property: merge the morsel (obj, count) lists, summing
  // counts, and emit HAVING count > 1 rows in ascending object order.
  size_t m = 0;
  for (size_t k = 0; k < props.size(); ++k) {
    std::vector<std::pair<uint64_t, uint64_t>> merged;
    while (m < morsels.size() && morsels[m].prop_idx == k) {
      merged.insert(merged.end(), partial[m].begin(), partial[m].end());
      ++m;
    }
    std::sort(merged.begin(), merged.end());
    size_t i = 0;
    while (i < merged.size()) {
      size_t j = i + 1;
      uint64_t count = merged[i].second;
      while (j < merged.size() && merged[j].first == merged[i].first) {
        count += merged[j].second;
        ++j;
      }
      if (count > 1) {
        result.rows.push_back({props[k], merged[i].first, count});
      }
      i = j;
    }
  }
  return result;
}

QueryResult ColVerticalBackend::RunQ5(const QueryContext& ctx,
                                      const exec::ExecContext& ectx) const {
  obs::Span span(ectx.trace(), "col_vert.q5");
  const auto& v = ctx.vocab();
  QueryResult result;
  result.column_names = {"subj", "obj"};
  if (!table_->HasPartition(v.records) || !table_->HasPartition(v.type)) {
    return result;
  }
  const std::vector<uint64_t> a = SubjectsWhereObjEq(v.origin, v.dlc, ectx);

  const PositionVector rec_sel =
      MergeSelectPositions(table_->EncodedSubjects(v.records), 0,
                           table_->PartitionSize(v.records), a, ectx);
  std::vector<std::pair<uint64_t, uint64_t>> b_pairs;  // (object, subject)
  {
    const std::vector<uint64_t> rs =
        Gather(table_->EncodedSubjects(v.records), rec_sel, ectx);
    const std::vector<uint64_t> ro =
        Gather(table_->EncodedObjects(v.records), rec_sel, ectx);
    b_pairs.reserve(rec_sel.size());
    for (size_t i = 0; i < rec_sel.size(); ++i) {
      b_pairs.emplace_back(ro[i], rs[i]);
    }
  }
  std::sort(b_pairs.begin(), b_pairs.end());
  std::vector<uint64_t> b_objects(b_pairs.size());
  for (size_t i = 0; i < b_pairs.size(); ++i) b_objects[i] = b_pairs[i].first;

  // Run-by-run join against the encoded type partition; the object column
  // decodes only at projection, one matched row at a time.
  const EncodedColumn& c_objects = table_->EncodedObjects(v.type);
  for (const auto& [bi, ci] :
       MergeJoin(b_objects, table_->EncodedSubjects(v.type), 0,
                 table_->PartitionSize(v.type), ectx)) {
    const uint64_t c_obj = c_objects.ValueAt(ci);
    if (c_obj != v.text) {
      result.rows.push_back({b_pairs[bi].second, c_obj});
    }
  }
  return result;
}

QueryResult ColVerticalBackend::RunQ6Family(
    QueryId id, const QueryContext& ctx, const exec::ExecContext& ectx) const {
  obs::Span span(ectx.trace(), "col_vert.q6_family");
  const auto& v = ctx.vocab();
  const std::vector<uint64_t> a1 = SubjectsWhereObjEq(v.type, v.text, ectx);
  MarkSet text_typed(ctx.dict_size());
  text_typed.MarkAll(a1);

  std::vector<uint64_t> via_records;
  if (table_->HasPartition(v.records)) {
    const PositionVector sel =
        SelectMarked(table_->EncodedObjects(v.records), text_typed, ectx);
    via_records = Gather(table_->EncodedSubjects(v.records), sel, ectx);
  }
  const std::vector<uint64_t> united = UnionDistinct({a1, via_records}, ectx);

  QueryResult result;
  result.column_names = {"prop", "count"};
  // Same flattened (property, row-range) fan-out as the q2 family; counts
  // are additive per property.
  const std::vector<uint64_t> props = PropertyList(id, ctx);
  const std::vector<PropMorsel> morsels = FlattenPropMorsels(
      props.size(),
      [&](uint64_t k) -> uint64_t { return table_->PartitionSize(props[k]); });
  std::vector<uint64_t> partial(morsels.size(), 0);
  ectx.ParallelFor(morsels.size(), 1, [&](uint64_t b, uint64_t e, uint64_t) {
    for (uint64_t m = b; m < e; ++m) {
      const PropMorsel& ms = morsels[m];
      partial[m] =
          MergeCountMatches(table_->EncodedSubjects(props[ms.prop_idx]),
                            ms.lo, ms.hi, united, ectx);
    }
  });
  std::vector<uint64_t> counts(props.size(), 0);
  for (size_t m = 0; m < morsels.size(); ++m) {
    counts[morsels[m].prop_idx] += partial[m];
  }
  for (size_t k = 0; k < props.size(); ++k) {
    if (counts[k] > 0) result.rows.push_back({props[k], counts[k]});
  }
  return result;
}

QueryResult ColVerticalBackend::RunQ7(const QueryContext& ctx,
                                      const exec::ExecContext& ectx) const {
  obs::Span span(ectx.trace(), "col_vert.q7");
  const auto& v = ctx.vocab();
  QueryResult result;
  result.column_names = {"subj", "encoding", "type"};
  if (!table_->HasPartition(v.encoding) || !table_->HasPartition(v.type)) {
    return result;
  }
  const std::vector<uint64_t> a = SubjectsWhereObjEq(v.point, v.end, ectx);

  auto collect = [&](uint64_t property, std::vector<uint64_t>* subjects,
                     std::vector<uint64_t>* objects) {
    const PositionVector sel =
        MergeSelectPositions(table_->EncodedSubjects(property), 0,
                             table_->PartitionSize(property), a, ectx);
    *subjects = Gather(table_->EncodedSubjects(property), sel, ectx);
    *objects = Gather(table_->EncodedObjects(property), sel, ectx);
  };
  std::vector<uint64_t> b_subj, b_obj, c_subj, c_obj;
  collect(v.encoding, &b_subj, &b_obj);
  collect(v.type, &c_subj, &c_obj);

  for (const auto& [bi, ci] : MergeJoin(b_subj, c_subj, ectx)) {
    result.rows.push_back({b_subj[bi], b_obj[bi], c_obj[ci]});
  }
  return result;
}

QueryResult ColVerticalBackend::RunQ8(const QueryContext& ctx,
                                      const exec::ExecContext& ectx) const {
  obs::Span span(ectx.trace(), "col_vert.q8");
  const auto& v = ctx.vocab();

  // Phase 1 (temporary table t): visit *every* property table and collect
  // the objects of subject "conferences". One sub-plan per partition;
  // empty per-property lists contribute nothing to the union.
  const std::vector<uint64_t> all_props = table_->properties();
  std::vector<std::vector<uint64_t>> object_lists(all_props.size());
  ectx.ParallelFor(
      all_props.size(), 1, [&](uint64_t b, uint64_t e, uint64_t) {
        for (uint64_t k = b; k < e; ++k) {
          const uint64_t p = all_props[k];
          const auto [lo, hi] = table_->SubjectRange(p, v.conferences);
          if (lo == hi) continue;
          object_lists[k].resize(hi - lo);
          table_->EncodedObjects(p).MaterializeInto(lo, hi,
                                                    object_lists[k].data());
        }
      });
  const std::vector<uint64_t> t = UnionDistinct(object_lists, ectx);
  MarkSet shared(ctx.dict_size());
  shared.MarkAll(t);

  // Phase 2: join t back against every property table, fanned out over
  // flattened (property, row-range) morsels — the probe side is dominated
  // by the few giant partitions, which would otherwise serialize. `shared`
  // is only read from here on.
  const std::vector<PropMorsel> morsels = FlattenPropMorsels(
      all_props.size(),
      [&](uint64_t k) -> uint64_t {
        return table_->PartitionSize(all_props[k]);
      });
  std::vector<std::vector<uint64_t>> hits(morsels.size());
  ectx.ParallelFor(morsels.size(), 1, [&](uint64_t b, uint64_t e, uint64_t) {
    std::vector<uint64_t> obuf;
    for (uint64_t m = b; m < e; ++m) {
      const PropMorsel& ms = morsels[m];
      const EncodedColumn& subj =
          table_->EncodedSubjects(all_props[ms.prop_idx]);
      const EncodedColumn& obj = table_->EncodedObjects(all_props[ms.prop_idx]);
      ForEachDecodedBatch(
          subj, ms.lo, ms.hi,
          [&](uint64_t base, const uint64_t* s, uint64_t cnt) {
            // Flat columns hand the whole morsel through as one batch, so
            // the side buffer sizes to the callback, not kDecodeBatch.
            if (obuf.size() < cnt) obuf.resize(cnt);
            obj.MaterializeInto(base, base + cnt, obuf.data());
            for (uint64_t i = 0; i < cnt; ++i) {
              if (s[i] != v.conferences && shared.Test(obuf[i])) {
                hits[m].push_back(s[i]);
              }
            }
          });
    }
  });
  std::vector<uint64_t> out;
  for (const auto& h : hits) out.insert(out.end(), h.begin(), h.end());
  out = SortDistinct(std::move(out));

  QueryResult result;
  result.column_names = {"subj"};
  for (uint64_t s : out) result.rows.push_back({s});
  return result;
}

QueryResult ColVerticalBackend::Run(QueryId id, const QueryContext& ctx,
                                    const exec::ExecContext& ectx) {
  if (!delta_.empty() || !tombstones_.empty()) {
    obs::Span span(ectx.trace(), "col_vert.merge_delta");
    span.set_rows_in(delta_set_.size() + tombstones_.size());
    EnsureMerged();
  }
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

std::vector<rdf::Triple> ColVerticalBackend::Match(
    const rdf::TriplePattern& pattern, const exec::ExecContext& ectx) const {
  // Per-partition range scans stay serial (canonical order); the span is
  // suppressed automatically when Match runs inside a BGP worker lane.
  obs::Span span(ectx.trace(), "col_vert.match");
  std::vector<uint64_t> props;
  if (pattern.property) {
    if (table_->HasPartition(*pattern.property)) {
      props.push_back(*pattern.property);
    }
  } else {
    props = table_->properties();
  }

  std::vector<rdf::Triple> out;
  for (uint64_t p : props) {
    if (!table_->HasPartition(p)) continue;
    const auto& subj = table_->Subjects(p);
    const auto& obj = table_->Objects(p);
    uint32_t lo = 0, hi = static_cast<uint32_t>(subj.size());
    if (pattern.subject) {
      std::tie(lo, hi) = table_->SubjectRange(p, *pattern.subject);
    }
    for (uint32_t i = lo; i < hi; ++i) {
      if (pattern.object && obj[i] != *pattern.object) continue;
      if (!tombstones_.empty() &&
          tombstones_.count({subj[i], p, obj[i]}) != 0) {
        continue;
      }
      out.push_back({subj[i], p, obj[i]});
    }
  }
  // Unmerged inserts are visible via a delta scan.
  for (const rdf::Triple& t : delta_set_) {
    if (pattern.Matches(t)) out.push_back(t);
  }
  span.set_rows_out(out.size());
  return out;
}

MatchRuns ColVerticalBackend::MatchBatch(const rdf::TriplePattern& pattern,
                                         rdf::TripleComponent slot,
                                         std::span<const uint64_t> keys,
                                         const exec::ExecContext& ectx) const {
  // Property keys pick partitions, which is already Match's access path.
  if (slot == rdf::TripleComponent::kProperty) {
    return Backend::MatchBatch(pattern, slot, keys, ectx);
  }
  obs::Span span(ectx.trace(), "col_vert.match_batch");
  span.set_rows_in(keys.size());
  const rdf::TriplePattern rest = WithSlot(pattern, slot, plan::kUnbound);
  // The free key (plan::kUnbound) sorts last; the bound keys precede it.
  const bool free_key = !keys.empty() && keys.back() == plan::kUnbound;
  const std::span<const uint64_t> bound =
      keys.first(keys.size() - (free_key ? 1 : 0));
  std::vector<uint64_t> props;
  if (!rest.property) {
    props = table_->properties();
  } else if (table_->HasPartition(*rest.property)) {
    props.push_back(*rest.property);
  }

  // Hits in Match's order for every key: partition by partition, rows in
  // partition order.
  std::vector<std::pair<size_t, rdf::Triple>> hits;
  for (uint64_t p : props) {
    const auto& subj = table_->Subjects(p);
    const auto& obj = table_->Objects(p);
    auto visit = [&](size_t k, uint32_t i) {
      if (rest.object && obj[i] != *rest.object) return;
      const rdf::Triple t{subj[i], p, obj[i]};
      if (!tombstones_.empty() && tombstones_.count(t) != 0) return;
      hits.emplace_back(k, t);
    };
    if (slot == rdf::TripleComponent::kSubject) {
      // Merge the sorted keys against the sorted subject column.
      size_t pos = 0;
      for (size_t k = 0; k < bound.size(); ++k) {
        pos = colstore::GallopLowerBound(subj, pos, bound[k]);
        for (; pos < subj.size() && subj[pos] == bound[k]; ++pos) {
          visit(k, static_cast<uint32_t>(pos));
        }
      }
    } else {
      // Object keys: one pass over the partition (or the bound subject's
      // range of it).
      uint32_t lo = 0, hi = static_cast<uint32_t>(subj.size());
      if (rest.subject) {
        std::tie(lo, hi) = table_->SubjectRange(p, *rest.subject);
      }
      for (uint32_t i = lo; i < hi; ++i) {
        const size_t k = KeyIndex(bound, obj[i]);
        if (k < bound.size()) visit(k, i);
      }
    }
  }
  // Unmerged inserts follow the base rows of their key, as Match scans
  // them last; the free key is Match's own answer.
  for (const rdf::Triple& t : delta_set_) {
    if (!rest.Matches(t)) continue;
    const size_t k = KeyIndex(bound, SlotValue(t, slot));
    if (k < bound.size()) hits.emplace_back(k, t);
  }
  MatchRuns runs = GroupByKey(bound.size(), hits);
  if (free_key) {
    const std::vector<rdf::Triple> all = Match(rest, ectx);
    runs.triples.insert(runs.triples.end(), all.begin(), all.end());
    runs.EndRun();
  }
  span.set_rows_out(runs.triples.size());
  return runs;
}

}  // namespace swan::core
