#ifndef PPR_EXEC_PHYSICAL_PLAN_H_
#define PPR_EXEC_PHYSICAL_PLAN_H_

#include <memory>
#include <string>
#include <vector>

#include "common/arena.h"
#include "common/status.h"
#include "common/types.h"
#include "core/plan.h"
#include "exec/executor.h"
#include "query/conjunctive_query.h"
#include "relational/batch_ops.h"
#include "relational/database.h"
#include "relational/ops.h"
#include "relational/relation.h"

namespace ppr {

class MetricsRegistry;
class TraceSink;

/// One logical plan node lowered to physical form: stored-relation
/// pointers, scan bindings, join column maps, and projection masks are
/// all resolved at compile time, so execution never touches schemas,
/// attribute ids, or the catalog.
struct PhysicalNode {
  /// Pre-order index of the logical node this was lowered from (root = 0,
  /// node before its children, children left to right) — the numbering
  /// shared with ExplainResult::nodes and with trace spans' node_id.
  int32_t node_id = -1;

  /// Leaf: the stored relation captured from the database, plus the atom
  /// binding (rename / repeated-attribute selection).
  const Relation* stored = nullptr;
  ScanSpec scan;

  /// Internal: children are folded left to right; joins[i-1] holds the
  /// precomputed column maps for (acc after children[0..i-1]) |><|
  /// children[i]. The accumulated schema is static, so every fold step
  /// compiles exactly once.
  std::vector<std::unique_ptr<PhysicalNode>> children;
  std::vector<JoinSpec> joins;

  /// Trailing projection for nodes whose projected label is a strict
  /// subset of the working label.
  bool has_project = false;
  ProjectSpec project;

  /// Schema of this node's output relation.
  Schema output_schema;

  bool IsLeaf() const { return children.empty(); }
};

/// Operator kinds appearing in a run's morsel accounting.
/// Mirrors the four kernels without pulling the obs tracing types into
/// the execution API.
enum class MorselOp : uint8_t { kScan = 0, kJoin = 1, kProject = 2 };

/// Row accounting of one kernel invocation: the per-morsel
/// emitted row counts (morsel-index order) and the output they add up
/// to. The invariant every entry must satisfy — sum(morsel_rows) ==
/// output_rows — is what the `morsel_accounting` verifier hook
/// (exec/verify_hook.h) checks against the width analyzer's static
/// bounds after a morsel-driven run.
struct MorselOpAccount {
  /// Pre-order plan-node id the operator ran for.
  int32_t node_id = -1;
  MorselOp op = MorselOp::kScan;
  /// Output arity of the operator (its batch schema width).
  int arity = 0;
  /// Output rows materialized (post budget truncation).
  int64_t output_rows = 0;
  /// Rows each morsel contributed, in morsel-index order; none for an
  /// empty input. Operators that bypass the morsel partition (sort-merge
  /// joins, Boolean projections) report one pseudo morsel holding the
  /// whole output, or none when the output is empty.
  std::vector<int64_t> morsel_rows;
};

/// Per-operator accounting of one run, in execution order.
struct MorselAccounting {
  std::vector<MorselOpAccount> ops;
};

/// A plan compiled once against (query, plan, database) and executable
/// many times. Compilation precomputes, per node, the output schema,
/// build/probe key columns, payload copy maps, and projection masks;
/// Execute() is then pure data movement through the flat-hash kernels of
/// relational/batch_ops.h, with operator scratch bump-allocated from an
/// arena whose blocks are recycled across operators *and* across runs.
///
/// The logical plan's semantics are untouched: Execute() performs the
/// same operators in the same order with the same budget/statistics
/// behavior as the seed interpreter, so tuples_produced,
/// max_intermediate_arity, and the answer relation are identical.
///
/// The database must outlive the physical plan (leaves capture pointers
/// to its stored relations); re-Put-ing a relation invalidates compiled
/// plans against it.
class PhysicalPlan {
 public:
  PhysicalPlan(PhysicalPlan&&) = default;
  PhysicalPlan& operator=(PhysicalPlan&&) = default;
  PhysicalPlan(const PhysicalPlan&) = delete;
  PhysicalPlan& operator=(const PhysicalPlan&) = delete;

  /// Compiles `plan` for `query` against `db`. Fails with InvalidArgument
  /// on an empty plan and propagates query/database validation errors.
  static Result<PhysicalPlan> Compile(
      const ConjunctiveQuery& query, const Plan& plan, const Database& db,
      JoinAlgorithm join_algorithm = JoinAlgorithm::kHash);

  /// Runs the compiled plan under `tuple_budget`. Scratch memory from
  /// prior runs is reused, so steady-state executions make no heap
  /// allocations outside the output relations.
  ///
  /// Operator spans are recorded into `trace` when non-null, otherwise
  /// into the process-wide sink when PPR_TRACE is enabled
  /// (obs/trace.h); with both absent the kernels pay one branch each and
  /// the run leaves no other observability residue. Traced runs also
  /// publish their ExecStats and per-span histograms to GlobalMetrics(),
  /// and refresh the PPR_TRACE artifacts when the global sink was used.
  ExecutionResult Execute(Counter tuple_budget = kCounterMax,
                          TraceSink* trace = nullptr);

  /// Const execution for a plan shared across threads (the plan cache of
  /// src/runtime hands one compiled plan to many workers). The caller
  /// supplies the scratch arena — each worker owns its own, reused across
  /// jobs and Reset() here per run; nullptr falls back to a private
  /// per-run arena. Nothing in the plan is mutated, so any number of
  /// threads may ExecuteShared the same plan concurrently as long as each
  /// passes its own arena/trace/metrics.
  ///
  /// Observability stays explicit and thread-local: spans go to `trace`
  /// when non-null (never to the process-wide sink), per-run stats (and,
  /// when traced, span histograms) publish into `metrics` when non-null
  /// (never to GlobalMetrics()), and no trace artifacts are flushed.
  /// `accounting`, when non-null, receives one MorselOpAccount per kernel
  /// invocation in execution order (read by EXPLAIN and the
  /// morsel-accounting verifier hook).
  ///
  /// Operators run the kernels of relational/batch_ops.h. Without `mx`
  /// each runs inline as one morsel holding its whole input
  /// (WholeInputMorsel()); MorselDriver passes its ThreadPool-backed
  /// MorselExec instead. Both give the same answer and every statistic
  /// except peak_bytes.
  ExecutionResult ExecuteShared(ExecArena* arena,
                                Counter tuple_budget = kCounterMax,
                                TraceSink* trace = nullptr,
                                MetricsRegistry* metrics = nullptr,
                                MorselAccounting* accounting = nullptr,
                                const MorselExec* mx = nullptr) const;

  /// Schema of the answer relation (the root's projected label).
  const Schema& output_schema() const { return root_->output_schema; }

  /// Number of physical nodes (same shape as the logical plan).
  int NumNodes() const;

  /// Root of the compiled node tree, for static analysis and explain
  /// tooling. The mutable accessor exists for plan-mutation tests that
  /// corrupt compiled plans to exercise the verifier.
  const PhysicalNode& root() const { return *root_; }
  PhysicalNode& mutable_root() { return *root_; }

 private:
  PhysicalPlan(std::unique_ptr<PhysicalNode> root,
               JoinAlgorithm join_algorithm)
      : root_(std::move(root)), join_algorithm_(join_algorithm) {}

  std::unique_ptr<PhysicalNode> root_;
  JoinAlgorithm join_algorithm_;
  /// Scratch recycled across Execute() calls.
  ExecArena arena_;
};

}  // namespace ppr

#endif  // PPR_EXEC_PHYSICAL_PLAN_H_
