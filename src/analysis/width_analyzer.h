#ifndef PPR_ANALYSIS_WIDTH_ANALYZER_H_
#define PPR_ANALYSIS_WIDTH_ANALYZER_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "core/plan.h"
#include "exec/verify_hook.h"
#include "query/conjunctive_query.h"
#include "relational/database.h"

namespace ppr {

/// Static bound for one scheduled operator's output.
struct OpBound {
  /// Exact arity of the operator's output relation.
  int arity = 0;
  /// Upper bound on the operator's output row count (see AnalyzePlan).
  double size_bound = 0.0;
};

/// Result of statically analyzing one (query, plan, database) triple.
struct StaticAnalysis {
  Status status;

  /// Exact arity of the widest intermediate any execution materializes:
  /// max over scheduled operators of the output arity. Equals the plan's
  /// join width (max |L_w|), and — because the engine notes every
  /// operator output, truncated or not — equals the executed
  /// ExecStats::max_intermediate_arity of every non-error run.
  int max_intermediate_arity = 0;

  /// Upper bound on the row count of the largest intermediate
  /// (ExecStats::max_intermediate_rows of an unbudgeted run never
  /// exceeds it).
  double max_intermediate_rows_bound = 0.0;

  /// Upper bound on total tuples produced across all operators — a
  /// static sufficient tuple budget: running with a budget strictly
  /// larger than this can never exhaust.
  double tuples_produced_bound = 0.0;

  /// Per-operator bounds, in schedule (budget-charge) order.
  std::vector<OpBound> per_op;

  /// Human-readable summary (max arity and the two row bounds). The
  /// treewidth cross-check is CrossCheckWidth's, not part of this result.
  std::string ToString() const;
};

/// Computes, without executing the plan, the exact maximal intermediate
/// arity and AGM-style size upper bounds from the stored relations'
/// cardinalities.
///
/// Size bounds are sound for the engine's semantics: each operator's
/// output is bounded by the minimum of (a) the product of its input
/// bounds, (b) the product of |R_i| over any subset of the atoms below it
/// that covers the output attributes (the integral fractional-edge-cover
/// relaxation of the AGM bound, searched greedily), and (c) when every
/// stored relation below is duplicate-free, the product of per-attribute
/// active-domain sizes (for DISTINCT projections, (c) applies
/// unconditionally).
///
/// Cost: the plan is lowered once (BuildSchedule). Row counts,
/// duplicate-freeness and per-column distinct counts are computed once
/// per distinct stored relation per call — atoms sharing a relation
/// share them — and nothing is cached across calls, so concurrent calls
/// and Database::Put replacing a relation need no coordination. The
/// schedule is post-order, so the atoms below an operator are the
/// contiguous run of scans in its subtree; the greedy cover walks that
/// run in schedule order. No treewidth bound is computed here:
/// CrossCheckWidth computes and enforces it.
StaticAnalysis AnalyzePlan(const ConjunctiveQuery& query, const Plan& plan,
                           const Database& db);

/// Folds AnalyzePlan's per-operator bounds onto the plan nodes, in the
/// pre-order numbering shared with ExplainResult::nodes, PhysicalNode
/// ids, and trace spans (root = 0, node before its children, children
/// left to right): each node's bound is the max over the operators the
/// schedule attributes to it (its scan or fold joins plus the optional
/// trailing projection). `bounds` gets exactly Plan::NumNodes entries.
/// An infinite row bound stays +infinity; arity bounds are always finite
/// because arities are symbolic. This is the `node_bounds` verifier hook
/// (exec/verify_hook.h) backing the predicted side of EXPLAIN ANALYZE;
/// it lowers the plan once and folds AnalyzePlan's bounds over that one
/// schedule.
Status NodeBoundsPreOrder(const ConjunctiveQuery& query, const Plan& plan,
                          const Database& db,
                          std::vector<PlanNodeBound>* bounds);

/// Cross-checks the plan's static width against the theory module
/// (Theorems 1-2): the schedule's max arity must equal the plan's join
/// width, the plan's working labels must form a valid tree decomposition
/// of the join graph (Algorithm 1) of width max arity - 1, and that width
/// must respect the treewidth lower bound. Call only on plans that pass
/// VerifyLogicalPlan (malformed labels would PPR_CHECK inside theory).
Status CrossCheckWidth(const ConjunctiveQuery& query, const Plan& plan);

/// Checks a strategy's width guarantee: the plan's static max
/// intermediate arity must not exceed `claimed_width`. Strategies derived
/// from a decomposition of width k promise arity <= k + 1 (Lemma 3).
Status CheckWidthGuarantee(const ConjunctiveQuery& query, const Plan& plan,
                           int claimed_width);

}  // namespace ppr

#endif  // PPR_ANALYSIS_WIDTH_ANALYZER_H_
