#include "exec/explain.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "common/check.h"
#include "exec/physical_plan.h"
#include "exec/verify_hook.h"
#include "obs/trace.h"

namespace ppr {
namespace {

// Estimation state for a subtree: union of attributes and the product of
// atom selectivities below it.
struct Estimate {
  std::vector<AttrId> attrs;  // sorted
  double selectivity = 1.0;
};

// Estimated rows of a relation over `projected` given the subtree's full
// attribute set and accumulated selectivity: the full join has
// domain^|attrs| * selectivity rows; projecting cannot exceed
// domain^|projected|.
double EstimateRows(const Estimate& est, size_t projected_arity,
                    double domain) {
  const double full =
      std::pow(domain, static_cast<double>(est.attrs.size())) *
      est.selectivity;
  const double cap = std::pow(domain, static_cast<double>(projected_arity));
  return std::min(full, cap);
}

// What the compiled run measured, read back from its accounting by
// node_id — the pre-order numbering ExplainResult::nodes shares.
struct RunActuals {
  /// Per node: output rows of its last kernel; -1 when none ran for it
  /// (an unprojected single-child join node passes its child through).
  std::vector<int64_t> last_rows;
  /// The nodes that started are the pre-order prefix through this id.
  int32_t last_started = -1;
  /// Node whose kernel exhausted the budget; -1 when the run finished.
  int32_t exhausted_at = -1;
};

// Kernel-free pre-order pass over the logical plan: appends the profile
// of each node that started and returns its estimation state. A node
// still running when the budget ran out reports actual=-1 and an
// estimate over its first child plus the children that finished.
Estimate Describe(const ConjunctiveQuery& query, const PlanNode* node,
                  const Database& db, double domain, int depth,
                  const RunActuals& run, std::vector<NodeProfile>* out) {
  const size_t id = out->size();
  out->push_back(
      {.label = "join",
       .depth = depth,
       .working_arity = static_cast<int>(node->working.size()),
       .projected_arity = static_cast<int>(node->projected.size())});
  Estimate est;
  if (node->IsLeaf()) {
    const Atom& atom = query.atoms()[static_cast<size_t>(node->atom_index)];
    est.attrs = node->working;
    est.selectivity =
        static_cast<double>((*db.Get(atom.relation))->size()) /
        std::pow(domain, static_cast<double>(atom.args.size()));
    (*out)[id].label = atom.ToString();
  }
  for (size_t i = 0; i < node->children.size() &&
                     static_cast<int32_t>(out->size()) <= run.last_started;
       ++i) {
    const size_t child_id = out->size();
    Estimate child = Describe(query, node->children[i].get(), db, domain,
                              depth + 1, run, out);
    if (i == 0) {
      est = std::move(child);
    } else if ((*out)[child_id].actual_rows >= 0) {
      std::vector<AttrId> merged;
      std::set_union(est.attrs.begin(), est.attrs.end(), child.attrs.begin(),
                     child.attrs.end(), std::back_inserter(merged));
      est.attrs = std::move(merged);
      est.selectivity *= child.selectivity;
    }
  }
  NodeProfile& profile = (*out)[id];
  profile.estimated_rows = EstimateRows(est, node->projected.size(), domain);
  // This node's subtree holds the ids [id, out->size()).
  const bool running = run.exhausted_at >= static_cast<int32_t>(id) &&
                       run.exhausted_at < static_cast<int32_t>(out->size());
  profile.actual_rows = running                 ? -1
                        : run.last_rows[id] >= 0 ? run.last_rows[id]
                                                 : (*out)[id + 1].actual_rows;
  return est;
}

}  // namespace

std::string ExplainResult::ToString() const {
  std::ostringstream out;
  for (const NodeProfile& p : nodes) {
    out << std::string(static_cast<size_t>(p.depth) * 2, ' ') << p.label
        << "  [arity " << p.working_arity << "->" << p.projected_arity
        << "]  est=" << p.estimated_rows << " actual=" << p.actual_rows;
    if (analyzed) {
      // Measured beside predicted: the span actuals, then the width
      // analyzer's static bounds when a verifier supplied them.
      out << "  | actual arity<=" << p.actual_max_arity
          << " bytes=" << p.actual_bytes << " ns=" << p.actual_ns;
      if (p.predicted_arity_bound >= 0) {
        out << "  predicted arity<=" << p.predicted_arity_bound
            << " rows<=" << p.predicted_rows_bound;
      }
      if (p.arity_violation) out << "  !! arity bound violated";
    }
    out << "\n";
  }
  out << "-- tuples_produced=" << stats.tuples_produced
      << " max_intermediate_rows=" << stats.max_intermediate_rows
      << " peak_bytes=" << stats.peak_bytes
      << " num_semijoins=" << stats.num_semijoins << "\n";
  if (!verifier_verdict.empty() || !semantic_verdict.empty()) {
    out << "-- verifier: "
        << (verifier_verdict.empty() ? "not run" : verifier_verdict);
    if (!semantic_verdict.empty()) {
      out << " | semantics: " << semantic_verdict << " (" << semantic_ns
          << " ns)";
    }
    out << "\n";
  }
  return out.str();
}

double ExplainResult::WorstEstimateRatio() const {
  double worst = 1.0;
  for (const NodeProfile& p : nodes) {
    if (p.actual_rows < 0 || p.estimated_rows <= 0) continue;  // truncated
    // Smooth empty results to one row so "predicted rows, got none" —
    // the signature failure of independence estimates on correlated
    // queries — registers as a finite but large ratio.
    const double actual = std::max(1.0, static_cast<double>(p.actual_rows));
    const double estimate = std::max(1.0, p.estimated_rows);
    worst = std::max(worst, std::max(actual / estimate, estimate / actual));
  }
  return worst;
}

ExplainResult ExplainPlan(const ConjunctiveQuery& query, const Plan& plan,
                          const Database& db, double domain_size,
                          Counter tuple_budget, bool analyze) {
  ExplainResult result;
  PPR_CHECK(domain_size >= 1.0);
  if (plan.empty()) {
    result.status = Status::InvalidArgument("empty plan");
    return result;
  }
  result.status = query.Validate(db);
  if (!result.status.ok()) return result;

  // Surface the static-analysis verdict when verification is enabled; a
  // rejected plan is reported, not executed.
  const std::shared_ptr<const PlanVerifierHooks> hooks =
      GetPlanVerifierHooks();
  const bool verify = PlanVerificationEnabled();
  if (verify && hooks->logical) {
    Status verdict = hooks->logical(query, plan, db);
    result.verifier_verdict = verdict.ok() ? "OK" : verdict.ToString();
    if (!verdict.ok()) {
      result.status = verdict;
      return result;
    }
  }
  // Semantic tier (independently gated): certify the plan denotes the
  // query, and surface what the proof cost beside its verdict.
  if (SemanticVerificationEnabled() && hooks->semantic) {
    const auto start = std::chrono::steady_clock::now();
    Status verdict = hooks->semantic(query, plan, db, nullptr);
    result.semantic_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                             std::chrono::steady_clock::now() - start)
                             .count();
    result.semantic_verdict = verdict.ok() ? "OK" : verdict.ToString();
    if (!verdict.ok()) {
      result.status = verdict;
      return result;
    }
  }

  // Profile the compiled plan — the one pprd serves — inline, one morsel
  // per operator.
  // With verification on, Compile repeats the tiers above and also proves
  // the compiled plan faithful, the only check that can still fail here.
  Result<PhysicalPlan> compiled = PhysicalPlan::Compile(query, plan, db);
  if (!compiled.ok()) {
    result.status = compiled.status();
    result.verifier_verdict = result.status.ToString();
    return result;
  }
  // ANALYZE profiles through a private sink (never the PPR_TRACE one:
  // the annotations must not depend on process-wide state). Sized so one
  // run can never wrap: each node executes at most its child-count many
  // joins plus a scan and a projection, and the plan is a tree, so 4
  // spans per node over-provisions.
  TraceSink sink(static_cast<size_t>(
      std::max(4 * plan.NumNodes(), 1024)));
  MorselAccounting accounting;
  const ExecutionResult run = compiled->ExecuteShared(
      nullptr, tuple_budget, analyze ? &sink : nullptr, nullptr, &accounting);
  result.stats = run.stats;
  if (!run.status.ok()) result.status = run.status;
  RunActuals actuals{std::vector<int64_t>(plan.NumNodes(), -1)};
  for (const MorselOpAccount& op : accounting.ops) {
    actuals.last_rows[static_cast<size_t>(op.node_id)] = op.output_rows;
    actuals.last_started = std::max(actuals.last_started, op.node_id);
  }
  if (!run.status.ok() && !accounting.ops.empty()) {
    // No kernel runs after the one that exhausted the budget.
    actuals.exhausted_at = accounting.ops.back().node_id;
  }
  Describe(query, plan.root(), db, domain_size, 0, actuals, &result.nodes);
  if (!analyze) return result;

  result.analyzed = true;
  for (const TraceSpan& span : sink.Snapshot()) {
    if (span.node_id < 0 ||
        static_cast<size_t>(span.node_id) >= result.nodes.size()) {
      continue;
    }
    NodeProfile& p = result.nodes[static_cast<size_t>(span.node_id)];
    p.actual_ns += span.duration_ns;
    p.actual_bytes = std::max(p.actual_bytes, span.bytes);
    p.actual_max_arity = std::max(p.actual_max_arity, span.arity_out);
  }

  // The predicted side: the width analyzer's per-node bounds, via the
  // verifier registration. A measured arity above a predicted bound
  // means the static proof is wrong — escalate like a verifier failure.
  if (verify && hooks->node_bounds) {
    std::vector<PlanNodeBound> bounds;
    Status bound_status = hooks->node_bounds(query, plan, db, &bounds);
    if (bound_status.ok() && bounds.size() == result.nodes.size()) {
      for (size_t i = 0; i < bounds.size(); ++i) {
        NodeProfile& p = result.nodes[i];
        p.predicted_arity_bound = bounds[i].arity_bound;
        p.predicted_rows_bound = bounds[i].rows_bound;
        if (p.predicted_arity_bound >= 0 &&
            p.actual_max_arity > p.predicted_arity_bound) {
          p.arity_violation = true;
          result.verifier_verdict =
              "arity bound violated at node " + std::to_string(i) +
              ": actual " + std::to_string(p.actual_max_arity) +
              " > predicted " + std::to_string(p.predicted_arity_bound);
          result.status = Status::Internal(result.verifier_verdict);
        }
      }
    }
  }
  return result;
}

}  // namespace ppr
