#ifndef SWANDB_CORE_BGP_H_
#define SWANDB_CORE_BGP_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/backend.h"
#include "plan/algebra.h"
#include "plan/optimizer.h"
#include "plan/physical.h"

namespace swan::core {

// A SPARQL-style basic graph pattern (BGP) evaluator over any Backend.
// This generalizes the fixed benchmark queries: all 8 simple triple
// patterns of Figure 2 and arbitrary compositions of the A/B/C join
// patterns can be expressed and executed, which is how the library covers
// the full query design space the paper maps out in §2.2.
//
// Since the planner refactor this file is the *interpreter* half of query
// processing: pattern lists (or full logical plans, via the sparql layer)
// are lowered by plan::Optimize into an annotated physical plan, and
// ExecutePlan runs that plan — extension steps, star gathers, filters,
// optionals, unions — against a backend.

// Term and BgpPattern live in plan/algebra.h so the planner layer stays
// independent of the backends; re-exported here for the existing callers.
using Term = plan::Term;
using BgpPattern = plan::BgpPattern;
using plan::kUnbound;

// Result: a binding table. Column i holds the values of variable vars[i],
// in the query's *textual* first-appearance order — never the evaluation
// order the planner chose. Cells left unbound by an OPTIONAL that found
// no match hold plan::kUnbound.
struct BgpResult {
  std::vector<std::string> vars;
  std::vector<std::vector<uint64_t>> rows;
};

// The same binding table column by column, as the interpreter holds it:
// cols[j] holds variable vars[j] for each of the `rows` rows.
struct BgpColumns {
  std::vector<std::string> vars;
  std::vector<std::vector<uint64_t>> cols;
  size_t rows = 0;
};

// Interprets a physical plan against `backend`. Each branch runs by
// binding extension over a columnar binding table, one batched probe per
// step: the join variable's distinct values are answered by
// Backend::MatchBatch in key chunks and every binding row gathers its
// key's run, so rows come out exactly as probing each row with Match
// would produce them. Star-gather steps instead read each arm's property
// partition once, order it by subject and gallop each row's subject along
// it. Filters attached to a step apply right after it; OPTIONAL pipelines
// left-join after the required steps; branch results concatenate in
// branch order with columns aligned to plan.all_vars.
//
// A step's key set splits into chunks by a function of the key count
// alone; under a parallel ExecContext the chunks' MatchBatch calls run
// concurrently and their runs are gathered in row order, so the binding
// rows come out in exactly the serial sequence at every thread count.
// ectx.counters() records match_calls (one per binding row probed, the
// join's logical work), bgp_batches (key chunks of parallel steps) and
// star_gathers.
Result<BgpColumns> ExecutePlanColumns(const Backend& backend,
                                      const plan::PhysicalPlan& plan,
                                      const exec::ExecContext& ectx);

// The number of MatchBatch calls an extension step makes for a set of
// `keys` distinct join keys: one per chunk of at least 16 keys, at most 8.
uint64_t KeyChunks(uint64_t keys);

// ExecutePlanColumns as a row-major BgpResult.
Result<BgpResult> ExecutePlan(const Backend& backend,
                              const plan::PhysicalPlan& plan,
                              const exec::ExecContext& ectx);

// Plans and evaluates the conjunction of `patterns`: lowers the list to
// Join(Scan...), runs plan::Optimize with `options`, then interprets the
// result. The two-/three-argument overloads use the statistics-free
// heuristic ordering (the pre-planner behavior, bit-identical); pass
// PlannerOptions{kCostBased, &store.stats(), backend.PlannerHints()} for
// the cost-based plan.
Result<BgpResult> ExecuteBgp(const Backend& backend,
                             const std::vector<BgpPattern>& patterns,
                             const exec::ExecContext& ectx,
                             const plan::PlannerOptions& options);

Result<BgpResult> ExecuteBgp(const Backend& backend,
                             const std::vector<BgpPattern>& patterns,
                             const exec::ExecContext& ectx);

// Convenience overload under a default context (the globally configured
// thread width).
Result<BgpResult> ExecuteBgp(const Backend& backend,
                             const std::vector<BgpPattern>& patterns);

}  // namespace swan::core

#endif  // SWANDB_CORE_BGP_H_
