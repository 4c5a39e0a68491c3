#include "exec/physical_plan.h"

#include <utility>

#include "common/check.h"
#include "common/mutex.h"
#include "common/timer.h"
#include "exec/verify_hook.h"
#include "obs/exporters.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "relational/sort_merge.h"

namespace ppr {
namespace {

// Lowers one logical node. Schemas are derived exactly as the seed
// interpreter derived them at runtime: a leaf's schema is the atom's
// distinct attributes (then the optional projection), an internal node's
// schema is the left-to-right fold of its children's output schemas.
// `stored[i]` is the relation atom i scans.
std::unique_ptr<PhysicalNode> CompileNode(
    const ConjunctiveQuery& query, const PlanNode* node,
    const std::vector<const Relation*>& stored, int32_t* next_node_id) {
  auto phys = std::make_unique<PhysicalNode>();
  phys->node_id = (*next_node_id)++;
  Schema working;
  if (node->IsLeaf()) {
    const auto atom_index = static_cast<size_t>(node->atom_index);
    phys->stored = stored[atom_index];
    phys->scan =
        PlanScan(phys->stored->arity(), query.atoms()[atom_index].args);
    working = phys->scan.out_schema;
  } else {
    phys->children.reserve(node->children.size());
    for (const auto& child : node->children) {
      phys->children.push_back(
          CompileNode(query, child.get(), stored, next_node_id));
    }
    // The fold's schema so far; `joins` is reserved, so it stays put.
    const Schema* folded = &phys->children.front()->output_schema;
    phys->joins.reserve(phys->children.size() - 1);
    for (size_t i = 1; i < phys->children.size(); ++i) {
      phys->joins.push_back(
          PlanJoin(*folded, phys->children[i]->output_schema));
      folded = &phys->joins.back().out_schema;
    }
    working = *folded;
  }
  if (node->Projects()) {
    phys->has_project = true;
    phys->project = PlanProject(working, node->projected);
    phys->output_schema = phys->project.out_schema;
  } else {
    phys->output_schema = std::move(working);
  }
  return phys;
}

// The one plan walk. Every operator runs the kernels of
// relational/batch_ops.h under `mx`: MorselDriver passes its own
// partition, and every other caller (batch executor, pprd, EXPLAIN)
// passes none and gets WholeInputMorsel(), one morsel per operator.
// kSortMerge joins run the sort-merge kernel on both routes. The control
// flow is the seed interpreter's (executor.cc's EvalNode),
// budget-exhaustion skips included, so the output and every statistic
// except peak_bytes are identical under every partition.
class PlanWalk {
 public:
  PlanWalk(JoinAlgorithm join_algorithm, ExecContext& ctx,
           const MorselExec* mx, MorselAccounting* acct)
      : join_algorithm_(join_algorithm),
        ctx_(ctx),
        mx_(mx != nullptr ? *mx : WholeInputMorsel()),
        acct_(acct) {}

  Relation Run(const PhysicalNode& node) {
    Relation acc;
    if (node.IsLeaf()) {
      ctx_.set_trace_node(node.node_id);
      acc = ScanAtom(*node.stored, node.scan, ctx_, mx_, MorselRows());
      Account(node.node_id, MorselOp::kScan, acc);
    } else {
      acc = Run(*node.children.front());
      for (size_t i = 1; i < node.children.size() && !ctx_.exhausted(); ++i) {
        Relation next = Run(*node.children[i]);
        if (ctx_.exhausted()) break;
        // Children retargeted the span attribution; point it back at this
        // node for the fold step's join (and the projection below).
        ctx_.set_trace_node(node.node_id);
        if (join_algorithm_ == JoinAlgorithm::kSortMerge) {
          acc = SortMergeJoin(acc, next, ctx_);
        } else {
          acc = HashJoin(acc, next, node.joins[i - 1], ctx_, mx_, MorselRows());
        }
        Account(node.node_id, MorselOp::kJoin, acc);
      }
    }
    if (node.has_project && !ctx_.exhausted()) {
      ctx_.set_trace_node(node.node_id);
      acc = ProjectColumns(acc, node.project, ctx_, mx_, MorselRows());
      Account(node.node_id, MorselOp::kProject, acc);
    }
    return acc;
  }

 private:
  // Where a kernel writes its per-morsel row counts; null when nobody
  // asked for accounting, which spares the kernels the bookkeeping.
  std::vector<int64_t>* MorselRows() {
    return acct_ != nullptr ? &morsel_rows_ : nullptr;
  }

  // Appends one kernel's accounting entry. The sort-merge join leaves no
  // morsel rows; it reports one pseudo morsel holding the whole output
  // (none when empty), which preserves the invariant sum(morsel_rows) ==
  // output_rows.
  void Account(int32_t node_id, MorselOp op, const Relation& out) {
    if (acct_ == nullptr) return;
    if (morsel_rows_.empty() && !out.empty()) {
      morsel_rows_.push_back(out.size());
    }
    acct_->ops.push_back(MorselOpAccount{node_id, op, out.arity(), out.size(),
                                         std::move(morsel_rows_)});
    morsel_rows_.clear();
  }

  const JoinAlgorithm join_algorithm_;
  ExecContext& ctx_;
  const MorselExec& mx_;
  MorselAccounting* const acct_;
  std::vector<int64_t> morsel_rows_;
};

int CountNodes(const PhysicalNode& node) {
  int n = 1;
  for (const auto& child : node.children) n += CountNodes(*child);
  return n;
}

}  // namespace

Result<PhysicalPlan> PhysicalPlan::Compile(const ConjunctiveQuery& query,
                                           const Plan& plan,
                                           const Database& db,
                                           JoinAlgorithm join_algorithm) {
  if (plan.empty()) return Status::InvalidArgument("empty plan");
  Status valid = query.Validate(db);
  if (!valid.ok()) return valid;

  // Debug-mode static analysis (exec/verify_hook.h): prove the logical
  // plan well-formed before lowering and the compiled plan faithful to it
  // after, failing compilation instead of executing a corrupt plan.
  const std::shared_ptr<const PlanVerifierHooks> hooks =
      GetPlanVerifierHooks();
  const bool verify = PlanVerificationEnabled();
  if (verify && hooks->logical) {
    Status verdict = hooks->logical(query, plan, db);
    if (!verdict.ok()) return verdict;
  }
  // Each atom's relation (Validate() proved they exist); atoms naming the
  // relation of the atom before them reuse its lookup.
  const std::vector<Atom>& atoms = query.atoms();
  std::vector<const Relation*> stored(atoms.size());
  for (size_t i = 0; i < atoms.size(); ++i) {
    if (i > 0 && atoms[i].relation == atoms[i - 1].relation) {
      stored[i] = stored[i - 1];
      continue;
    }
    Result<const Relation*> rel = db.Get(atoms[i].relation);
    PPR_CHECK(rel.ok());
    stored[i] = *rel;
  }
  int32_t next_node_id = 0;
  PhysicalPlan compiled(
      CompileNode(query, plan.root(), stored, &next_node_id), join_algorithm);
  if (verify && hooks->compiled) {
    Status verdict = hooks->compiled(query, plan, db, compiled);
    if (!verdict.ok()) return verdict;
  }
  // Third tier, independently gated: prove the plan (logical and
  // compiled) still *denotes the query* — the structural passes above
  // only prove the tree well-formed.
  if (SemanticVerificationEnabled() && hooks->semantic) {
    Status verdict = hooks->semantic(query, plan, db, &compiled);
    if (!verdict.ok()) return verdict;
  }
  return compiled;
}

ExecutionResult PhysicalPlan::Execute(Counter tuple_budget,
                                      TraceSink* trace) {
  TraceSink* sink = trace != nullptr ? trace : GlobalTraceSinkIfEnabled();
  MetricsRegistry* metrics = nullptr;
  if (sink != nullptr) {
    // Publishing into the global registry during the run is safe under
    // Execute's documented single-threaded contract; the capability only
    // covers obtaining the reference (serialized against drains).
    MutexLock lock(GlobalObsMutex());
    metrics = &GlobalMetrics();
  }
  ExecutionResult result =
      ExecuteShared(&arena_, tuple_budget, sink, metrics);
  if (sink != nullptr && sink == GlobalTraceSinkIfEnabled()) {
    MutexLock lock(GlobalObsMutex());
    (void)FlushTraceArtifacts();
  }
  return result;
}

ExecutionResult PhysicalPlan::ExecuteShared(ExecArena* arena,
                                            Counter tuple_budget,
                                            TraceSink* trace,
                                            MetricsRegistry* metrics,
                                            MorselAccounting* accounting,
                                            const MorselExec* mx) const {
  ExecutionResult result;
  if (arena != nullptr) arena->Reset();
  ExecContext ctx(tuple_budget, arena);
  const uint64_t span_mark = trace != nullptr ? trace->total_recorded() : 0;
  ctx.set_tracer(trace);
  WallTimer timer;
  Relation output =
      PlanWalk(join_algorithm_, ctx, mx, accounting).Run(*root_);
  result.seconds = timer.ElapsedSeconds();
  result.stats = ctx.stats();
  if (metrics != nullptr) {
    ctx.stats().PublishTo(metrics);
    if (trace != nullptr) {
      PublishSpanMetrics(trace->SnapshotSince(span_mark), metrics);
    }
  }
  if (ctx.exhausted()) {
    result.status = Status::ResourceExhausted("tuple budget exceeded");
  } else {
    result.status = Status::Ok();
    result.output = std::move(output);
  }
  return result;
}

int PhysicalPlan::NumNodes() const { return CountNodes(*root_); }

}  // namespace ppr
