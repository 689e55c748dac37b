#ifndef SWANDB_PLAN_PHYSICAL_H_
#define SWANDB_PLAN_PHYSICAL_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "plan/algebra.h"

namespace swan::plan {

// The annotated physical plan the optimizer emits and core::ExecutePlan
// interprets. A plan is a union of branches; each branch is a pipeline of
// binding-extension steps followed by left-joined optional pipelines.
// Every step carries the planner's cardinality estimate, which the
// interpreter surfaces through the span tree — EXPLAIN shows the
// estimates, EXPLAIN ANALYZE (a profiled run) shows them next to the
// actual row counts.

// How a step's probe traffic travels in a scale-out topology. Annotated
// by AnnotateDistribution (plan/distributed.h) after join ordering —
// distribution never reorders a plan, it only prices the chosen order.
// Single-node plans keep every step at kLocal.
enum class ShipMode {
  // The probe is answered where the bindings already are (single node,
  // sub-split property, or the step's partition lives on the
  // coordinator).
  kLocal,
  // The full binding table ships to the partition's home node and the
  // probe runs there. Cheap for small binding sets.
  kShipBindings,
  // Only the distinct join keys ship (a semi-join filter); the home node
  // answers with the matching triples. Cheap for wide or large binding
  // sets probing a selective partition.
  kShipSemiJoin,
};

std::string ToString(ShipMode mode);

enum class StepKind {
  // Extend every binding row with the matches of one instantiated
  // pattern (index-nested-loop at the logical level).
  kExtend,
  // Self-join elimination for a same-subject star: all arms share one
  // subject variable and a constant property, so instead of probing once
  // per binding per arm, each arm's partition is gathered whole, ordered
  // by subject, and each binding row's subject is looked up in it by
  // galloping (match_calls: one per arm).
  kStarGather,
};

struct PhysStep {
  StepKind kind = StepKind::kExtend;

  // kExtend: the single pattern. kStarGather: the arms, in textual order.
  BgpPattern pattern;
  std::vector<BgpPattern> arms;

  // Index of the pattern (or each arm) in the caller's textual pattern
  // list, for EXPLAIN and order-inspection tests.
  size_t source_index = 0;
  std::vector<size_t> arm_sources;

  // Filters that become evaluable once this step's variables are bound;
  // the interpreter applies them to the table right after the step.
  std::vector<FilterExpr> filters;

  // Planner annotations: estimated binding rows flowing in and out, and
  // the estimated matches of one instantiated probe. Negative when no
  // statistics were available (heuristic mode).
  double est_in = -1.0;
  double est_out = -1.0;
  double est_matches = -1.0;

  // Scale-out annotations (AnnotateDistribution): the node owning this
  // step's property partition (-1 = unbound property, sub-split, or
  // single node) and how the probe traffic ships there.
  int home_node = -1;
  ShipMode ship = ShipMode::kLocal;
};

struct PhysPipeline {
  std::vector<PhysStep> steps;
  // Left-joined OPTIONAL groups, evaluated in textual order after the
  // required steps.
  std::vector<PhysPipeline> optionals;
  // Filters that reference optional variables and therefore cannot be
  // pushed into a step; applied after all optionals.
  std::vector<FilterExpr> post_filters;
  // Variables this pipeline introduces, in textual first-appearance
  // order. For an optional pipeline: only the fresh variables (the ones
  // padded with kUnbound when the optional finds no match).
  std::vector<std::string> vars;
  // Constant-folded: the pipeline can produce no rows (an unsatisfiable
  // pattern, or a filter that can never hold). For an optional this means
  // "always pad"; for a required branch, "contribute nothing".
  bool always_empty = false;
  std::string empty_reason;
  double est_rows = -1.0;
};

struct PhysicalPlan {
  std::vector<PhysPipeline> branches;  // UNION, in textual order
  // All variables of the query in textual first-appearance order — the
  // column order of the final binding table regardless of the join order
  // the planner chose.
  std::vector<std::string> all_vars;

  // Solution modifiers, applied by the sparql layer in this order:
  // projection, DISTINCT, OFFSET, LIMIT.
  std::vector<std::string> projection;  // empty = all_vars
  bool distinct = false;
  std::optional<uint64_t> offset;
  std::optional<uint64_t> limit;

  NumericResolver numeric;  // for numeric filters; may be null

  // One-line description of how the plan was chosen, e.g.
  // "cost-based (stats: 400000 triples, 221 properties)".
  std::string mode_note;
};

// Renders the plan for EXPLAIN. `term_name` decodes dictionary ids (pass
// the dataset's dictionary lookup); when null, ids print as #<id>.
std::string ExplainText(
    const PhysicalPlan& plan,
    const std::function<std::string(uint64_t)>& term_name = nullptr);

// Renders one pattern compactly, e.g. "(?s <type> ?o)".
std::string PatternText(
    const BgpPattern& pattern,
    const std::function<std::string(uint64_t)>& term_name = nullptr);

}  // namespace swan::plan

#endif  // SWANDB_PLAN_PHYSICAL_H_
