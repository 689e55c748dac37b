#include "core/bgp.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <map>
#include <numeric>
#include <optional>
#include <span>
#include <unordered_map>
#include <unordered_set>

#include "colstore/ops.h"
#include "common/radix_sort.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "plan/distributed.h"

namespace swan::core {

namespace {

using rdf::TripleComponent;

// The binding table a branch builds up, column by column: cols[c][r] is
// variable vars[c] in row r. Columns appear in the order the interpreter
// first binds their variables (the final alignment to
// PhysicalPlan::all_vars restores textual order).
struct Table {
  static constexpr size_t npos = static_cast<size_t>(-1);

  std::vector<std::string> vars;
  std::unordered_map<std::string, size_t> var_index;
  std::vector<std::vector<uint64_t>> cols;
  size_t rows = 0;

  size_t Find(const std::string& v) const {
    const auto it = var_index.find(v);
    return it == var_index.end() ? npos : it->second;
  }
  // Adds a column, unbound in every existing row.
  size_t AddVar(const std::string& v) {
    const size_t idx = vars.size();
    vars.push_back(v);
    var_index.emplace(v, idx);
    cols.emplace_back(rows, kUnbound);
    return idx;
  }
  // Keeps, in order, the rows listed in `parent` (repeats allowed) in the
  // first `width` columns; later columns are resized for the caller to
  // fill.
  void Gather(const std::vector<size_t>& parent, size_t width) {
    for (size_t c = 0; c < cols.size(); ++c) {
      if (c >= width) {
        cols[c].resize(parent.size());
        continue;
      }
      std::vector<uint64_t> out(parent.size());
      const uint64_t* in = cols[c].data();
      for (size_t r = 0; r < parent.size(); ++r) out[r] = in[parent[r]];
      cols[c] = std::move(out);
    }
    rows = parent.size();
  }
};

// Index of a variable in the binding table, or nullopt for constants.
struct SlotRef {
  std::optional<size_t> var_index;  // set if variable
  uint64_t const_id = 0;
};

SlotRef ResolveTerm(const Term& term, Table* table) {
  if (!term.is_var) {
    return SlotRef{std::nullopt, term.id};
  }
  const size_t existing = table->Find(term.var);
  if (existing != Table::npos) {
    return SlotRef{existing, 0};
  }
  return SlotRef{table->AddVar(term.var), 0};
}

// Span name for a step: plain in heuristic mode, "<base> est=N" when the
// planner annotated an estimate — EXPLAIN ANALYZE reads the estimate from
// the span name and the actual cardinality from rows_out.
std::string StepSpanName(const char* base, double est_out) {
  if (est_out < 0) return base;
  return std::string(base) + " est=" +
         std::to_string(static_cast<long long>(std::llround(est_out)));
}

// A filter with its variables resolved to table columns; nullptr marks a
// variable the table does not bind, so every comparison on it is an error.
struct BoundFilter {
  const plan::FilterExpr* expr = nullptr;
  const uint64_t* lhs = nullptr;
  std::vector<const uint64_t*> operands;  // per value; set for variables
};

BoundFilter BindFilter(const plan::FilterExpr& filter, const Table& table) {
  auto column = [&](const std::string& var) -> const uint64_t* {
    const size_t c = table.Find(var);
    return c == Table::npos ? nullptr : table.cols[c].data();
  };
  BoundFilter bound;
  bound.expr = &filter;
  bound.lhs = column(filter.var);
  for (const plan::FilterOperand& v : filter.values) {
    bound.operands.push_back(v.is_var() ? column(v.var) : nullptr);
  }
  return bound;
}

// Evaluates filters against binding rows. Dictionary-id comparisons are
// direct; numeric comparisons go through the plan's NumericResolver with
// per-query memoization. SPARQL error semantics throughout: a comparison
// over an unbound variable, or a numeric comparison over a non-numeric
// term, is false — it never raises and never matches.
class FilterEvaluator {
 public:
  explicit FilterEvaluator(const plan::NumericResolver& numeric)
      : numeric_(numeric) {}

  bool Passes(const BoundFilter& bound, size_t row) {
    const plan::FilterExpr& filter = *bound.expr;
    if (bound.lhs == nullptr) return false;
    const uint64_t lhs = bound.lhs[row];
    if (lhs == kUnbound) return false;

    auto operand_id = [&](size_t i) -> std::optional<uint64_t> {
      const plan::FilterOperand& v = filter.values[i];
      if (!v.is_var()) return v.id;
      if (bound.operands[i] == nullptr) return std::nullopt;
      const uint64_t val = bound.operands[i][row];
      if (val == kUnbound) return std::nullopt;
      return val;
    };

    // Equality against one operand. `defined` is false when the
    // comparison is a SPARQL error (unbound variable operand, or a
    // numeric operand against a non-numeric lhs) — then both `=` and
    // `!=` are false. An operand absent from the dictionary is a valid
    // term that simply equals nothing in the store.
    auto equals = [&](size_t i, bool* defined) {
      const plan::FilterOperand& v = filter.values[i];
      *defined = true;
      if (v.is_var()) {
        const auto rid = operand_id(i);
        if (!rid) {
          *defined = false;
          return false;
        }
        return lhs == *rid;
      }
      if (v.number) {
        const auto ln = NumberOf(lhs);
        if (!ln) {
          *defined = false;
          return false;
        }
        return *ln == *v.number;
      }
      if (v.id) return lhs == *v.id;
      return false;  // not in the dictionary
    };

    switch (filter.op) {
      case plan::FilterOp::kEq: {
        bool defined = false;
        return equals(0, &defined) && defined;
      }
      case plan::FilterOp::kNe: {
        bool defined = false;
        const bool eq = equals(0, &defined);
        return defined && !eq;
      }
      case plan::FilterOp::kIn: {
        for (size_t i = 0; i < filter.values.size(); ++i) {
          bool defined = false;
          if (equals(i, &defined) && defined) return true;
        }
        return false;
      }
      default:
        break;
    }

    // Relational: numeric only.
    const auto ln = NumberOf(lhs);
    if (!ln) return false;
    const plan::FilterOperand& v = filter.values[0];
    std::optional<double> rn;
    if (v.is_var()) {
      const auto rid = operand_id(0);
      if (rid) rn = NumberOf(*rid);
    } else if (v.number) {
      rn = v.number;
    } else if (v.id) {
      rn = NumberOf(*v.id);
    }
    if (!rn) return false;
    switch (filter.op) {
      case plan::FilterOp::kLt:
        return *ln < *rn;
      case plan::FilterOp::kLe:
        return *ln <= *rn;
      case plan::FilterOp::kGt:
        return *ln > *rn;
      case plan::FilterOp::kGe:
        return *ln >= *rn;
      default:
        return false;
    }
  }

 private:
  std::optional<double> NumberOf(uint64_t id) {
    if (id == kUnbound) return std::nullopt;
    const auto it = memo_.find(id);
    if (it != memo_.end()) return it->second;
    std::optional<double> v = numeric_ ? numeric_(id) : std::nullopt;
    memo_.emplace(id, v);
    return v;
  }

  const plan::NumericResolver& numeric_;
  std::unordered_map<uint64_t, std::optional<double>> memo_;
};

// Drops the rows failing any of `filters`, preserving row order.
void ApplyFilters(const std::vector<plan::FilterExpr>& filters,
                  FilterEvaluator* eval, Table* table) {
  if (filters.empty() || table->rows == 0) return;
  std::vector<BoundFilter> bound;
  for (const plan::FilterExpr& f : filters) {
    bound.push_back(BindFilter(f, *table));
  }
  std::vector<size_t> kept;
  kept.reserve(table->rows);
  for (size_t r = 0; r < table->rows; ++r) {
    bool ok = true;
    for (const BoundFilter& f : bound) {
      if (!eval->Passes(f, r)) {
        ok = false;
        break;
      }
    }
    if (ok) kept.push_back(r);
  }
  if (kept.size() != table->rows) table->Gather(kept, table->cols.size());
}

// Extends every binding row with the matches of one instantiated pattern
// — an index-nested-loop join evaluated set-at-a-time. The rows' values in
// the join slot (the first already-bound variable among subject, object
// and property) form a sorted distinct key set, answered by
// Backend::MatchBatch in key chunks; each row then gathers its key's run.
// Rows and their order are exactly those of probing row by row with
// Match. A pattern binding a second known variable splits the rows into
// groups by that variable's values, one key set per group.
void ExtendStep(const Backend& backend, const plan::PhysStep& step,
                const exec::ExecContext& ectx, obs::Histogram* batch_hist,
                Table* table) {
  const plan::BgpPattern& pattern = step.pattern;
  // One span per extension step, opened on the control thread. The probes
  // run inside one ParallelFor region at every width, so their Match,
  // kernel and net.ship spans are suppressed and this span's counter
  // deltas account for them: the tree has one node per operator, not one
  // per key chunk.
  obs::Span extend_span(ectx.trace(), StepSpanName("bgp.extend", step.est_out));
  extend_span.set_rows_in(table->rows);
  const size_t n = table->rows;
  const size_t known_vars = table->vars.size();
  constexpr std::array<TripleComponent, 3> kSlots = {
      TripleComponent::kSubject, TripleComponent::kProperty,
      TripleComponent::kObject};
  const std::array<SlotRef, 3> ref = {ResolveTerm(pattern.subject, table),
                                      ResolveTerm(pattern.property, table),
                                      ResolveTerm(pattern.object, table)};
  auto known = [&](size_t s) {
    return ref[s].var_index && *ref[s].var_index < known_vars;
  };
  auto column = [&](size_t s) -> const std::vector<uint64_t>& {
    return table->cols[*ref[s].var_index];
  };

  // Forward ship leg for annotated scale-out steps: the binding table
  // (or its distinct-key semi-join filter) travels coordinator -> home
  // before the probes run there. Charged from actual row counts — the
  // estimates only picked the strategy. The result-return leg is charged
  // by the sharded backend per key batch, so it is not repeated here.
  if (step.ship != plan::ShipMode::kLocal && step.home_node >= 0 && n > 0) {
    if (DistRouting* dist = backend.dist()) {
      const int src = dist->Coordinator();
      if (step.ship == plan::ShipMode::kShipBindings) {
        const uint64_t width = std::max<size_t>(known_vars, 1);
        dist->Ship(src, step.home_node,
                   n * width * plan::kBytesPerBindingCell,
                   (n + plan::kBindingsPerMessage - 1) /
                       plan::kBindingsPerMessage,
                   ectx);
      } else {
        // The filter is the distinct values of the already-bound
        // variable terms this pattern joins on.
        std::vector<uint64_t> keys;
        for (size_t s = 0; s < 3; ++s) {
          if (!known(s)) continue;
          for (uint64_t v : column(s)) {
            if (v != kUnbound) keys.push_back(v);
          }
        }
        std::sort(keys.begin(), keys.end());
        keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
        const uint64_t distinct = std::max<uint64_t>(keys.size(), 1);
        dist->Ship(src, step.home_node, distinct * plan::kBytesPerKey, 1,
                   ectx);
      }
    }
  }

  // The join slot is keyed per batch; the other known slots (at most two)
  // instantiate the pattern per group of rows sharing their values.
  rdf::TriplePattern base;
  for (size_t s = 0; s < 3; ++s) {
    if (!ref[s].var_index) base = WithSlot(base, kSlots[s], ref[s].const_id);
  }
  int join = -1;
  for (int s : {0, 2, 1}) {
    if (known(static_cast<size_t>(s))) {
      join = s;
      break;
    }
  }
  std::vector<size_t> others;
  for (size_t s = 0; s < 3; ++s) {
    if (known(s) && static_cast<int>(s) != join) others.push_back(s);
  }
  std::vector<size_t> group_of(n, 0);
  std::vector<std::array<uint64_t, 2>> group_vals(1, {kUnbound, kUnbound});
  if (!others.empty()) {
    group_vals.clear();
    std::map<std::array<uint64_t, 2>, size_t> ids;
    for (size_t r = 0; r < n; ++r) {
      std::array<uint64_t, 2> v = {kUnbound, kUnbound};
      for (size_t i = 0; i < others.size(); ++i) v[i] = column(others[i])[r];
      const auto [it, fresh] = ids.try_emplace(v, group_vals.size());
      if (fresh) group_vals.push_back(v);
      group_of[r] = it->second;
    }
  }
  const size_t groups = group_vals.size();

  // Sorted distinct keys per group (kUnbound, from OPTIONAL padding, sorts
  // last and leaves the slot free), and each row's run. Rows are walked in
  // (group, key) order: as they stand when the join column is already
  // sorted, as a subject-ordered scan leaves it, else after stable radix
  // passes.
  std::vector<std::vector<uint64_t>> group_keys(groups);
  std::vector<size_t> group_base(groups, 0);
  std::vector<size_t> run_of(n, 0);
  size_t runs = 1;  // no join slot: every row shares one Match
  if (join >= 0) {
    const std::vector<uint64_t>& keys = column(static_cast<size_t>(join));
    const bool sorted =
        groups == 1 && std::is_sorted(keys.begin(), keys.end());
    std::vector<std::pair<uint64_t, size_t>> order;  // (key, row)
    if (!sorted) {
      order.reserve(n);
      for (size_t r = 0; r < n; ++r) order.emplace_back(keys[r], r);
      RadixSortBy(&order, [](const auto& e) { return e.first; });
      if (groups > 1) {
        RadixSortBy(&order, [&](const auto& e) { return group_of[e.second]; });
      }
    }
    runs = 0;
    for (size_t i = 0; i < n; ++i) {
      const size_t r = sorted ? i : order[i].second;
      std::vector<uint64_t>& k = group_keys[group_of[r]];
      if (k.empty()) group_base[group_of[r]] = runs;
      if (k.empty() || k.back() != keys[r]) {
        k.push_back(keys[r]);
        ++runs;
      }
      run_of[r] = group_base[group_of[r]] + k.size() - 1;
    }
  }

  // One MatchBatch call per key chunk: keys [lo, hi) of one group.
  struct KeyChunk {
    size_t group, lo, hi;
  };
  std::vector<KeyChunk> chunks;
  for (size_t g = 0; g < groups; ++g) {
    const uint64_t k = join >= 0 ? group_keys[g].size() : (n > 0 ? 1 : 0);
    if (k == 0) continue;
    const uint64_t count = KeyChunks(k);
    for (uint64_t c = 0; c < count; ++c) {
      chunks.push_back({g, k * c / count, k * (c + 1) / count});
      if (batch_hist != nullptr) batch_hist->Observe(chunks.back().hi -
                                                     chunks.back().lo);
    }
  }
  if (ectx.parallel() && chunks.size() > 1) {
    ectx.counters().bgp_batches += chunks.size();
  }
  // Counted as one probe per binding row, the logical work of the join.
  ectx.counters().match_calls += n;

  std::vector<MatchRuns> chunk_runs(chunks.size());
  ectx.ParallelFor(chunks.size(), 1, [&](uint64_t b, uint64_t e, uint64_t) {
    for (uint64_t c = b; c < e; ++c) {
      const KeyChunk& chunk = chunks[c];
      rdf::TriplePattern tp = base;
      for (size_t i = 0; i < others.size(); ++i) {
        tp = WithSlot(tp, kSlots[others[i]], group_vals[chunk.group][i]);
      }
      if (join < 0) {
        chunk_runs[c].triples = backend.Match(tp, ectx);
        chunk_runs[c].EndRun();
      } else {
        const std::vector<uint64_t>& k = group_keys[chunk.group];
        chunk_runs[c] = backend.MatchBatch(
            tp, kSlots[static_cast<size_t>(join)],
            std::span<const uint64_t>(k).subspan(chunk.lo,
                                                 chunk.hi - chunk.lo),
            ectx);
      }
    }
  });
  std::vector<std::span<const rdf::Triple>> run(runs);
  for (size_t c = 0; c < chunks.size(); ++c) {
    const size_t first = group_base[chunks[c].group] + chunks[c].lo;
    for (size_t i = 0; i < chunk_runs[c].keys(); ++i) {
      run[first + i] = chunk_runs[c].Run(i);
    }
  }

  // Slots naming one variable twice (e.g. (?x, p, ?x)) must agree.
  std::vector<std::pair<size_t, size_t>> repeated;
  for (size_t a = 0; a < 3; ++a) {
    for (size_t b = a + 1; b < 3; ++b) {
      if (ref[a].var_index && ref[a].var_index == ref[b].var_index) {
        repeated.emplace_back(a, b);
      }
    }
  }
  std::vector<size_t> parent;
  std::vector<const rdf::Triple*> match;
  for (size_t r = 0; r < n; ++r) {
    for (const rdf::Triple& t : run[run_of[r]]) {
      bool consistent = true;
      for (const auto& [a, b] : repeated) {
        consistent &= SlotValue(t, kSlots[a]) == SlotValue(t, kSlots[b]);
      }
      if (!consistent) continue;
      parent.push_back(r);
      match.push_back(&t);
    }
  }
  // Known columns follow their parent row; every variable slot takes the
  // match's value (equal to a bound value, or binding an unbound one).
  table->Gather(parent, known_vars);
  for (size_t s = 0; s < 3; ++s) {
    if (!ref[s].var_index) continue;
    uint64_t* out = table->cols[*ref[s].var_index].data();
    for (size_t j = 0; j < match.size(); ++j) {
      out[j] = SlotValue(*match[j], kSlots[s]);
    }
  }
  extend_span.set_rows_out(table->rows);
}

// Same-subject star elimination: reads each arm's property partition once
// (one Match per arm, instead of one per binding row per arm) and joins
// the arms on the subject. Each arm's matches are held as (subject,
// object) columns ordered by subject — stably, so a subject's objects keep
// their match order — and the binding rows look their subject up in every
// arm, galloping forward while the rows' subjects ascend. Row order stays
// deterministic — existing rows are walked in order, and fresh subjects
// follow the first arm's match order — so results are bit-identical to the
// probing plan's set at any thread width.
void StarGatherStep(const Backend& backend, const plan::PhysStep& step,
                    const exec::ExecContext& ectx, Table* table) {
  obs::Span span(ectx.trace(), StepSpanName("bgp.star", step.est_out));
  span.set_rows_in(table->rows);
  ++ectx.counters().star_gathers;

  struct Arm {
    std::optional<size_t> out_col;  // set when the object is a variable
    std::vector<uint64_t> subjects;  // ascending
    std::vector<uint64_t> objects;
    size_t cursor = 0;

    // The [lo, hi) rows of `subject`.
    std::pair<size_t, size_t> Find(uint64_t subject) {
      if (cursor > 0 && subjects[cursor - 1] >= subject) cursor = 0;
      size_t lo = colstore::GallopLowerBound(subjects, cursor, subject);
      size_t hi = lo;
      while (hi < subjects.size() && subjects[hi] == subject) ++hi;
      cursor = lo;
      return {lo, hi};
    }
  };
  std::vector<Arm> arms(step.arms.size());
  const std::string& subj_name = step.arms[0].subject.var;
  const size_t existing = table->Find(subj_name);
  const bool subj_bound = existing != Table::npos;
  std::vector<uint64_t> subject_order;  // first-occurrence order in arm 0

  for (size_t a = 0; a < step.arms.size(); ++a) {
    const plan::BgpPattern& p = step.arms[a];
    rdf::TriplePattern tp;
    tp.property = p.property.id;
    if (!p.object.is_var) tp.object = p.object.id;
    ++ectx.counters().match_calls;
    std::vector<rdf::Triple> matches = backend.Match(tp, ectx);
    if (a == 0 && !subj_bound) {
      std::unordered_set<uint64_t> seen;
      for (const rdf::Triple& t : matches) {
        if (seen.insert(t.subject).second) subject_order.push_back(t.subject);
      }
    }
    RadixSortBy(&matches, [](const rdf::Triple& t) { return t.subject; });
    for (const rdf::Triple& t : matches) {
      arms[a].subjects.push_back(t.subject);
      arms[a].objects.push_back(t.object);
    }
  }

  const size_t known_vars = table->vars.size();
  const size_t subj_col = subj_bound ? existing : table->AddVar(subj_name);
  for (size_t a = 0; a < step.arms.size(); ++a) {
    if (step.arms[a].object.is_var) {
      arms[a].out_col = table->AddVar(step.arms[a].object.var);
    }
  }

  // Emits the cross product of the arms' objects for one subject, earlier
  // arms varying slowest. Constant-object arms are presence checks only.
  std::vector<size_t> parent;
  std::vector<uint64_t> subjects;
  std::vector<std::vector<uint64_t>> objects(arms.size());
  std::vector<std::pair<size_t, size_t>> range(arms.size());
  auto emit = [&](uint64_t subject, size_t row) {
    uint64_t total = 1;
    for (size_t a = 0; a < arms.size(); ++a) {
      range[a] = arms[a].Find(subject);
      if (range[a].first == range[a].second) return;  // misses this arm
      if (arms[a].out_col) total *= range[a].second - range[a].first;
    }
    for (uint64_t t = 0; t < total; ++t) {
      parent.push_back(row);
      subjects.push_back(subject);
      uint64_t rem = t;
      for (size_t a = arms.size(); a-- > 0;) {
        if (!arms[a].out_col) continue;
        const uint64_t size = range[a].second - range[a].first;
        objects[a].push_back(arms[a].objects[range[a].first + rem % size]);
        rem /= size;
      }
    }
  };

  for (size_t r = 0; r < table->rows; ++r) {
    if (subj_bound) {
      const uint64_t subject = table->cols[subj_col][r];
      if (subject != kUnbound) emit(subject, r);
    } else {
      for (uint64_t subject : subject_order) emit(subject, r);
    }
  }
  table->Gather(parent, known_vars);
  table->cols[subj_col] = std::move(subjects);
  for (size_t a = 0; a < arms.size(); ++a) {
    if (arms[a].out_col) table->cols[*arms[a].out_col] = std::move(objects[a]);
  }
  span.set_rows_out(table->rows);
}

// Runs a pipeline's steps (extensions and star gathers) plus their
// attached filters over the table.
void RunSteps(const Backend& backend, const std::vector<plan::PhysStep>& steps,
              const exec::ExecContext& ectx, obs::Histogram* batch_hist,
              FilterEvaluator* eval, Table* table) {
  for (const plan::PhysStep& step : steps) {
    if (step.kind == plan::StepKind::kExtend) {
      ExtendStep(backend, step, ectx, batch_hist, table);
    } else {
      StarGatherStep(backend, step, ectx, table);
    }
    ApplyFilters(step.filters, eval, table);
    if (table->rows == 0) break;
  }
}

// Left-joins one OPTIONAL pipeline into the table: runs the optional's
// steps over a copy of the rows tagged with a provenance column, then
// merges — rows with at least one surviving extension keep the extended
// versions, the rest are padded with kUnbound for the optional's fresh
// variables.
void ApplyOptional(const Backend& backend, const plan::PhysPipeline& optional,
                   const exec::ExecContext& ectx, obs::Histogram* batch_hist,
                   FilterEvaluator* eval, Table* table) {
  if (optional.always_empty || table->rows == 0) {
    // Nothing to join; the fresh columns still exist, all-unbound.
    for (const std::string& v : optional.vars) {
      if (table->Find(v) == Table::npos) table->AddVar(v);
    }
    return;
  }
  obs::Span span(ectx.trace(), "bgp.optional");
  span.set_rows_in(table->rows);

  // Parser variables are alphanumeric, so "#src" cannot collide.
  Table work = *table;
  const size_t src_col = work.AddVar("#src");
  std::iota(work.cols[src_col].begin(), work.cols[src_col].end(), 0);
  RunSteps(backend, optional.steps, ectx, batch_hist, eval, &work);

  std::vector<size_t> fresh_out, fresh_work;
  for (const std::string& v : optional.vars) {
    size_t out = table->Find(v);
    if (out == Table::npos) out = table->AddVar(v);
    fresh_out.push_back(out);
    fresh_work.push_back(work.Find(v));
  }

  // Extension steps are order-preserving, so the surviving work rows stay
  // grouped in ascending provenance order: one forward merge pass. Each
  // output row comes from a work row (matched) or a table row (padded).
  constexpr size_t kPadded = Table::npos;
  std::vector<size_t> parent, from_work;
  const std::vector<uint64_t>& src = work.cols[src_col];
  size_t next = 0;
  for (size_t i = 0; i < table->rows; ++i) {
    const size_t first = next;
    while (next < work.rows && src[next] == i) {
      parent.push_back(i);
      from_work.push_back(next++);
    }
    if (next == first) {
      parent.push_back(i);
      from_work.push_back(kPadded);
    }
  }
  // Required columns ride along in the work table (the optional may even
  // have bound a previously-unbound one); fresh columns take the work
  // value, or stay unbound on padded rows.
  table->Gather(parent, src_col);
  for (size_t c = 0; c < src_col; ++c) {
    for (size_t j = 0; j < parent.size(); ++j) {
      if (from_work[j] != kPadded) {
        table->cols[c][j] = work.cols[c][from_work[j]];
      }
    }
  }
  for (size_t c = src_col; c < table->cols.size(); ++c) {
    std::fill(table->cols[c].begin(), table->cols[c].end(), kUnbound);
  }
  for (size_t k = 0; k < fresh_out.size(); ++k) {
    std::vector<uint64_t>& out = table->cols[fresh_out[k]];
    for (size_t j = 0; j < parent.size(); ++j) {
      if (from_work[j] == kPadded) continue;
      out[j] = fresh_work[k] == Table::npos
                   ? kUnbound
                   : work.cols[fresh_work[k]][from_work[j]];
    }
  }
  span.set_rows_out(table->rows);
}

}  // namespace

// A step's key set splits into KeyChunks(keys) contiguous chunks, a
// function of the key count alone, so the calls (and a sharded store's
// messages) are the same at every thread width. Chunks are the unit of
// parallel work.
uint64_t KeyChunks(uint64_t keys) {
  constexpr uint64_t kKeysPerChunk = 16;
  constexpr uint64_t kMaxKeyChunks = 8;
  if (keys < 2 * kKeysPerChunk) return 1;
  return std::min(kMaxKeyChunks, (keys + kKeysPerChunk - 1) / kKeysPerChunk);
}

Result<BgpColumns> ExecutePlanColumns(const Backend& backend,
                                      const plan::PhysicalPlan& plan,
                                      const exec::ExecContext& ectx) {
  BgpColumns result;
  result.vars = plan.all_vars;
  result.cols.resize(plan.all_vars.size());

  // Key-chunk size distribution across all extension steps: despite its
  // name, "bgp.batch_rows" observes the distinct keys of each MatchBatch
  // key chunk, not binding rows. Chunk sizes depend only on key counts,
  // never on the thread budget, so the histogram is width-invariant.
  obs::Histogram* batch_hist = nullptr;
  if (obs::TraceSession* session = ectx.trace()) {
    batch_hist = session->metrics().GetHistogram(
        "bgp.batch_rows", {1, 2, 4, 8, 16, 32, 64, 128, 256});
  }
  FilterEvaluator eval(plan.numeric);

  for (const plan::PhysPipeline& branch : plan.branches) {
    if (branch.always_empty) continue;
    Table table;
    table.rows = 1;  // one empty binding
    RunSteps(backend, branch.steps, ectx, batch_hist, &eval, &table);
    for (const plan::PhysPipeline& optional : branch.optionals) {
      ApplyOptional(backend, optional, ectx, batch_hist, &eval, &table);
    }
    ApplyFilters(branch.post_filters, &eval, &table);

    // Align this branch's columns to the query-wide textual order.
    for (size_t j = 0; j < plan.all_vars.size(); ++j) {
      const size_t c = table.Find(plan.all_vars[j]);
      std::vector<uint64_t>& out = result.cols[j];
      if (c == Table::npos) {
        out.insert(out.end(), table.rows, kUnbound);
      } else {
        out.insert(out.end(), table.cols[c].begin(), table.cols[c].end());
      }
    }
    result.rows += table.rows;
  }
  return result;
}

Result<BgpResult> ExecutePlan(const Backend& backend,
                              const plan::PhysicalPlan& plan,
                              const exec::ExecContext& ectx) {
  SWAN_ASSIGN_OR_RETURN(BgpColumns columns,
                        ExecutePlanColumns(backend, plan, ectx));
  BgpResult result;
  result.vars = std::move(columns.vars);
  result.rows.assign(columns.rows,
                     std::vector<uint64_t>(result.vars.size(), kUnbound));
  for (size_t j = 0; j < columns.cols.size(); ++j) {
    for (size_t r = 0; r < columns.rows; ++r) {
      result.rows[r][j] = columns.cols[j][r];
    }
  }
  return result;
}

Result<BgpResult> ExecuteBgp(const Backend& backend,
                             const std::vector<BgpPattern>& raw_patterns,
                             const exec::ExecContext& ectx,
                             const plan::PlannerOptions& options) {
  if (raw_patterns.empty()) {
    return Status::InvalidArgument("empty basic graph pattern");
  }
  for (const BgpPattern& p : raw_patterns) {
    for (const Term* t : {&p.subject, &p.property, &p.object}) {
      if (t->is_var && t->var.empty()) {
        return Status::InvalidArgument("variable term with empty name");
      }
    }
  }
  plan::PhysicalPlan physical;
  {
    obs::Span plan_span(ectx.trace(), "bgp.plan");
    plan_span.set_rows_in(raw_patterns.size());
    physical = plan::OptimizeBgp(raw_patterns, options);
  }
  // Distributed physical layer: price the chosen order against the
  // topology. Annotation never reorders, so rows stay bit-identical to
  // the single-node plan.
  if (const DistRouting* dist = backend.dist(); dist && dist->nodes() > 1) {
    obs::Span dist_span(ectx.trace(), "bgp.distribute");
    plan::DistCostModel model;
    model.nodes = dist->nodes();
    model.bytes_per_sec = dist->NetBandwidthBytesPerSec();
    model.seconds_per_message = dist->NetLatencySecondsPerMessage();
    model.coordinator = dist->Coordinator();
    model.home_node = [dist](uint64_t property) {
      return dist->HomeNode(property);
    };
    plan::AnnotateDistribution(&physical, model);
  }
  return ExecutePlan(backend, physical, ectx);
}

Result<BgpResult> ExecuteBgp(const Backend& backend,
                             const std::vector<BgpPattern>& raw_patterns,
                             const exec::ExecContext& ectx) {
  return ExecuteBgp(backend, raw_patterns, ectx, plan::PlannerOptions{});
}

Result<BgpResult> ExecuteBgp(const Backend& backend,
                             const std::vector<BgpPattern>& raw_patterns) {
  return ExecuteBgp(backend, raw_patterns, exec::ExecContext());
}

}  // namespace swan::core
