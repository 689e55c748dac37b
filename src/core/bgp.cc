#include "core/bgp.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <unordered_map>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "plan/distributed.h"

namespace swan::core {

namespace {

// The binding table a branch builds up: one column per variable, in the
// order the interpreter first binds them (the final remap to
// PhysicalPlan::all_vars restores textual order).
struct Table {
  static constexpr size_t npos = static_cast<size_t>(-1);

  std::vector<std::string> vars;
  std::unordered_map<std::string, size_t> var_index;
  std::vector<std::vector<uint64_t>> rows;

  size_t Find(const std::string& v) const {
    const auto it = var_index.find(v);
    return it == var_index.end() ? npos : it->second;
  }
  size_t AddVar(const std::string& v) {
    const size_t idx = vars.size();
    vars.push_back(v);
    var_index.emplace(v, idx);
    return idx;
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

// Evaluates filters against binding rows. Dictionary-id comparisons are
// direct; numeric comparisons go through the plan's NumericResolver with
// per-query memoization. SPARQL error semantics throughout: a comparison
// over an unbound variable, or a numeric comparison over a non-numeric
// term, is false — it never raises and never matches.
class FilterEvaluator {
 public:
  explicit FilterEvaluator(const plan::NumericResolver& numeric)
      : numeric_(numeric) {}

  bool Passes(const plan::FilterExpr& filter, const Table& table,
              const std::vector<uint64_t>& row) {
    const size_t lhs_col = table.Find(filter.var);
    if (lhs_col == Table::npos || lhs_col >= row.size()) return false;
    const uint64_t lhs = row[lhs_col];
    if (lhs == kUnbound) return false;

    auto operand_id =
        [&](const plan::FilterOperand& v) -> std::optional<uint64_t> {
      if (!v.is_var()) return v.id;
      const size_t c = table.Find(v.var);
      if (c == Table::npos || c >= row.size()) return std::nullopt;
      const uint64_t val = row[c];
      if (val == kUnbound) return std::nullopt;
      return val;
    };

    // Equality against one operand. `defined` is false when the
    // comparison is a SPARQL error (unbound variable operand, or a
    // numeric operand against a non-numeric lhs) — then both `=` and
    // `!=` are false. An operand absent from the dictionary is a valid
    // term that simply equals nothing in the store.
    auto equals = [&](const plan::FilterOperand& v, bool* defined) {
      *defined = true;
      if (v.is_var()) {
        const auto rid = operand_id(v);
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
        return equals(filter.values[0], &defined) && defined;
      }
      case plan::FilterOp::kNe: {
        bool defined = false;
        const bool eq = equals(filter.values[0], &defined);
        return defined && !eq;
      }
      case plan::FilterOp::kIn: {
        for (const plan::FilterOperand& v : filter.values) {
          bool defined = false;
          if (equals(v, &defined) && defined) return true;
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
      const auto rid = operand_id(v);
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
  if (filters.empty() || table->rows.empty()) return;
  std::vector<std::vector<uint64_t>> kept;
  kept.reserve(table->rows.size());
  for (auto& row : table->rows) {
    bool ok = true;
    for (const plan::FilterExpr& f : filters) {
      if (!eval->Passes(f, *table, row)) {
        ok = false;
        break;
      }
    }
    if (ok) kept.push_back(std::move(row));
  }
  table->rows = std::move(kept);
}

// Bindings per extension batch: one Match per binding dominates the work,
// so small batches balance skewed fan-outs across lanes.
constexpr uint64_t kBindingsPerBatch = 16;

// Extends every binding row with the matches of one instantiated pattern
// — the classic index-nested-loop step, unchanged by the planner refactor
// (ordering decisions moved out; the mechanics stayed).
void ExtendStep(const Backend& backend, const plan::PhysStep& step,
                const exec::ExecContext& ectx, obs::Histogram* batch_hist,
                Table* table) {
  const plan::BgpPattern& pattern = step.pattern;
  // One span per extension step, opened on the control thread. The probes
  // run inside one ParallelFor region at every width, so their Match,
  // kernel and net.ship spans are suppressed and this span's counter
  // deltas account for them: the tree has one node per operator, not one
  // per binding row.
  obs::Span extend_span(ectx.trace(), StepSpanName("bgp.extend", step.est_out));
  extend_span.set_rows_in(table->rows.size());
  const size_t known_vars = table->vars.size();
  const SlotRef s = ResolveTerm(pattern.subject, table);
  const SlotRef p = ResolveTerm(pattern.property, table);
  const SlotRef o = ResolveTerm(pattern.object, table);
  const size_t out_width = table->vars.size();

  // Forward ship leg for annotated scale-out steps: the binding table
  // (or its distinct-key semi-join filter) travels coordinator -> home
  // before the probes run there. Charged from actual row counts — the
  // estimates only picked the strategy. The result-return leg is charged
  // per Match by the sharded backend, so it is not repeated here.
  if (step.ship != plan::ShipMode::kLocal && step.home_node >= 0 &&
      !table->rows.empty()) {
    if (DistRouting* dist = backend.dist()) {
      const int src = dist->Coordinator();
      const uint64_t n = table->rows.size();
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
        for (const SlotRef* ref : {&s, &p, &o}) {
          if (!ref->var_index || *ref->var_index >= known_vars) continue;
          for (const auto& row : table->rows) {
            if (*ref->var_index < row.size() &&
                row[*ref->var_index] != kUnbound) {
              keys.push_back(row[*ref->var_index]);
            }
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

  auto bound_value = [&](const SlotRef& ref, const std::vector<uint64_t>& row)
      -> std::optional<uint64_t> {
    if (!ref.var_index) return ref.const_id;
    // A variable padded to kUnbound by an earlier OPTIONAL is free again
    // (SPARQL compatible-binding semantics), as is one this pattern
    // introduces.
    if (*ref.var_index < row.size() && row[*ref.var_index] != kUnbound) {
      return row[*ref.var_index];
    }
    return std::nullopt;
  };

  // Extends one binding row with every match of the instantiated
  // pattern, appending the surviving extensions to *out in match order.
  auto extend_row = [&](const std::vector<uint64_t>& row,
                        std::vector<std::vector<uint64_t>>* out) {
    rdf::TriplePattern tp;
    tp.subject = bound_value(s, row);
    tp.property = bound_value(p, row);
    tp.object = bound_value(o, row);

    ++ectx.counters().match_calls;
    for (const rdf::Triple& t : backend.Match(tp, ectx)) {
      // Extend the binding; enforce consistency for variables repeated
      // *within* this pattern (e.g. (?x, p, ?x)).
      std::vector<uint64_t> extended;
      extended.reserve(out_width);
      extended.assign(row.begin(), row.end());
      extended.resize(out_width, 0);
      // Bit k: fresh variable known_vars + k already bound by this match
      // (a pattern introduces at most three).
      unsigned set_now = 0;
      bool consistent = true;
      auto bind = [&](const SlotRef& ref, uint64_t value) {
        if (!ref.var_index) return;
        if (*ref.var_index < known_vars) {
          // A known variable may still be unbound in this row (OPTIONAL
          // padding): Match did not enforce it, so bind/check it here.
          uint64_t& cell = extended[*ref.var_index];
          if (cell == kUnbound) {
            cell = value;
          } else if (cell != value) {
            consistent = false;
          }
          return;
        }
        const unsigned bit = 1u << (*ref.var_index - known_vars);
        if ((set_now & bit) != 0 && extended[*ref.var_index] != value) {
          consistent = false;
          return;
        }
        extended[*ref.var_index] = value;
        set_now |= bit;
      };
      bind(s, t.subject);
      bind(p, t.property);
      bind(o, t.object);
      if (consistent) out->push_back(std::move(extended));
    }
  };

  const uint64_t n = table->rows.size();
  if (batch_hist != nullptr) {
    // Observe the *logical* batch split (a function of n alone), not the
    // executed one, so the distribution matches at every thread width.
    if (n >= 2 * kBindingsPerBatch) {
      for (uint64_t lo = 0; lo < n; lo += kBindingsPerBatch) {
        batch_hist->Observe(std::min(n, lo + kBindingsPerBatch) - lo);
      }
    } else {
      batch_hist->Observe(n);
    }
  }
  // One region at every width: a single batch when the context is serial
  // or the table small. Order-preserving stitch: batch b covers a
  // contiguous row range, and batch outputs concatenate in batch order —
  // the exact serial extension sequence regardless of lane interleaving.
  const uint64_t batches = ectx.parallel() && n >= 2 * kBindingsPerBatch
                               ? (n + kBindingsPerBatch - 1) / kBindingsPerBatch
                               : 1;
  const uint64_t rows_per_batch = batches > 1 ? kBindingsPerBatch : n;
  if (batches > 1) ectx.counters().bgp_batches += batches;
  std::vector<std::vector<std::vector<uint64_t>>> batch_out(batches);
  ectx.ParallelFor(batches, 1, [&](uint64_t b, uint64_t e, uint64_t) {
    for (uint64_t batch = b; batch < e; ++batch) {
      const uint64_t lo = batch * rows_per_batch;
      const uint64_t hi = std::min<uint64_t>(n, lo + rows_per_batch);
      for (uint64_t i = lo; i < hi; ++i) {
        extend_row(table->rows[i], &batch_out[batch]);
      }
    }
  });
  table->rows = std::move(batch_out[0]);
  size_t total = table->rows.size();
  for (uint64_t b = 1; b < batches; ++b) total += batch_out[b].size();
  table->rows.reserve(total);
  for (uint64_t b = 1; b < batches; ++b) {
    for (auto& row : batch_out[b]) table->rows.push_back(std::move(row));
  }
  extend_span.set_rows_out(table->rows.size());
}

// Same-subject star elimination: reads each arm's property partition once
// (one Match per arm, instead of one per binding row per arm) and joins
// the arms on the subject. Row order stays deterministic — existing rows
// are walked in order, and fresh subjects follow the first arm's match
// order — so results are bit-identical to the probing plan's set at any
// thread width.
void StarGatherStep(const Backend& backend, const plan::PhysStep& step,
                    const exec::ExecContext& ectx, Table* table) {
  obs::Span span(ectx.trace(), StepSpanName("bgp.star", step.est_out));
  span.set_rows_in(table->rows.size());
  ++ectx.counters().star_gathers;

  struct Arm {
    std::optional<size_t> out_col;  // set when the object is a variable
    std::unordered_map<uint64_t, std::vector<uint64_t>> by_subject;
  };
  std::vector<Arm> arms(step.arms.size());
  std::vector<uint64_t> subject_order;  // first-occurrence order in arm 0

  for (size_t a = 0; a < step.arms.size(); ++a) {
    const plan::BgpPattern& p = step.arms[a];
    rdf::TriplePattern tp;
    tp.property = p.property.id;
    if (!p.object.is_var) tp.object = p.object.id;
    ++ectx.counters().match_calls;
    for (const rdf::Triple& t : backend.Match(tp, ectx)) {
      auto [it, fresh] = arms[a].by_subject.try_emplace(t.subject);
      if (fresh && a == 0) subject_order.push_back(t.subject);
      it->second.push_back(t.object);
    }
  }

  const std::string& subj_name = step.arms[0].subject.var;
  const size_t existing = table->Find(subj_name);
  const bool subj_bound = existing != Table::npos;
  const size_t subj_col = subj_bound ? existing : table->AddVar(subj_name);
  for (size_t a = 0; a < step.arms.size(); ++a) {
    if (step.arms[a].object.is_var) {
      arms[a].out_col = table->AddVar(step.arms[a].object.var);
    }
  }
  const size_t width = table->vars.size();

  // Emits the cross product of the arms' objects for one subject, earlier
  // arms varying slowest. Constant-object arms are presence checks only.
  auto emit = [&](uint64_t subject, const std::vector<uint64_t>& base,
                  std::vector<std::vector<uint64_t>>* out) {
    std::vector<const std::vector<uint64_t>*> lists;
    std::vector<size_t> cols;
    for (const Arm& arm : arms) {
      const auto it = arm.by_subject.find(subject);
      if (it == arm.by_subject.end()) return;  // subject misses this arm
      if (arm.out_col) {
        lists.push_back(&it->second);
        cols.push_back(*arm.out_col);
      }
    }
    uint64_t total = 1;
    for (const auto* l : lists) total *= l->size();
    for (uint64_t t = 0; t < total; ++t) {
      std::vector<uint64_t> row = base;
      row.resize(width, 0);
      row[subj_col] = subject;
      uint64_t rem = t;
      for (size_t k = lists.size(); k-- > 0;) {
        row[cols[k]] = (*lists[k])[rem % lists[k]->size()];
        rem /= lists[k]->size();
      }
      out->push_back(std::move(row));
    }
  };

  std::vector<std::vector<uint64_t>> next_rows;
  for (const auto& row : table->rows) {
    if (subj_bound) {
      if (subj_col < row.size() && row[subj_col] != kUnbound) {
        emit(row[subj_col], row, &next_rows);
      }
    } else {
      for (uint64_t subject : subject_order) emit(subject, row, &next_rows);
    }
  }
  table->rows = std::move(next_rows);
  span.set_rows_out(table->rows.size());
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
    if (table->rows.empty()) break;
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
  if (optional.always_empty || table->rows.empty()) {
    // Nothing to join; the fresh columns still exist, all-unbound.
    for (const std::string& v : optional.vars) {
      if (table->Find(v) == Table::npos) table->AddVar(v);
    }
    for (auto& row : table->rows) row.resize(table->vars.size(), kUnbound);
    return;
  }
  obs::Span span(ectx.trace(), "bgp.optional");
  span.set_rows_in(table->rows.size());

  // Parser variables are alphanumeric, so "#src" cannot collide.
  Table work = *table;
  const size_t src_col = work.AddVar("#src");
  for (size_t i = 0; i < work.rows.size(); ++i) {
    work.rows[i].push_back(static_cast<uint64_t>(i));
  }
  RunSteps(backend, optional.steps, ectx, batch_hist, eval, &work);

  std::vector<size_t> fresh_out, fresh_work;
  for (const std::string& v : optional.vars) {
    size_t out = table->Find(v);
    if (out == Table::npos) out = table->AddVar(v);
    fresh_out.push_back(out);
    fresh_work.push_back(work.Find(v));
  }
  const size_t width = table->vars.size();

  // Extension steps are order-preserving, so the surviving work rows stay
  // grouped in ascending provenance order: one forward merge pass.
  std::vector<std::vector<uint64_t>> merged;
  size_t next = 0;
  for (size_t i = 0; i < table->rows.size(); ++i) {
    bool any = false;
    while (next < work.rows.size() && work.rows[next][src_col] == i) {
      const std::vector<uint64_t>& wrow = work.rows[next];
      std::vector<uint64_t> out(width, kUnbound);
      // Required columns ride along in the work table (the optional may
      // even have bound a previously-unbound one).
      for (size_t c = 0; c < src_col; ++c) out[c] = wrow[c];
      for (size_t k = 0; k < fresh_out.size(); ++k) {
        out[fresh_out[k]] = fresh_work[k] == Table::npos
                                ? kUnbound
                                : wrow[fresh_work[k]];
      }
      merged.push_back(std::move(out));
      any = true;
      ++next;
    }
    if (!any) {
      std::vector<uint64_t> out = table->rows[i];
      out.resize(width, kUnbound);
      merged.push_back(std::move(out));
    }
  }
  table->rows = std::move(merged);
  span.set_rows_out(table->rows.size());
}

}  // namespace

Result<BgpResult> ExecutePlan(const Backend& backend,
                              const plan::PhysicalPlan& plan,
                              const exec::ExecContext& ectx) {
  BgpResult result;
  result.vars = plan.all_vars;

  // Binding-batch size distribution across all extension steps. Batch
  // sizes depend only on binding counts, never on the thread budget, so
  // the histogram is width-invariant.
  obs::Histogram* batch_hist = nullptr;
  if (obs::TraceSession* session = ectx.trace()) {
    batch_hist = session->metrics().GetHistogram(
        "bgp.batch_rows", {1, 2, 4, 8, 16, 32, 64, 128, 256});
  }
  FilterEvaluator eval(plan.numeric);

  for (const plan::PhysPipeline& branch : plan.branches) {
    if (branch.always_empty) continue;
    Table table;
    table.rows.push_back({});  // one empty binding
    RunSteps(backend, branch.steps, ectx, batch_hist, &eval, &table);
    for (const plan::PhysPipeline& optional : branch.optionals) {
      ApplyOptional(backend, optional, ectx, batch_hist, &eval, &table);
    }
    ApplyFilters(branch.post_filters, &eval, &table);

    // Align this branch's columns to the query-wide textual order.
    std::vector<size_t> col(plan.all_vars.size(), Table::npos);
    for (size_t j = 0; j < plan.all_vars.size(); ++j) {
      col[j] = table.Find(plan.all_vars[j]);
    }
    for (const auto& row : table.rows) {
      std::vector<uint64_t> out(plan.all_vars.size(), kUnbound);
      for (size_t j = 0; j < out.size(); ++j) {
        if (col[j] != Table::npos && col[j] < row.size()) out[j] = row[col[j]];
      }
      result.rows.push_back(std::move(out));
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
