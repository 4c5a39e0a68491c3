#ifndef PPR_RELATIONAL_BATCH_OPS_H_
#define PPR_RELATIONAL_BATCH_OPS_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/arena.h"
#include "common/types.h"
#include "relational/exec_context.h"
#include "relational/ops.h"
#include "relational/relation.h"

namespace ppr {

/// The operator kernels (specs in relational/ops.h): columnar and
/// morsel-driven. Each kernel partitions its probe/input side into
/// fixed-size morsels and materializes every morsel into a precomputed
/// disjoint slice of the output. The scan runs its morsels through a
/// ColumnBatch (column_batch.h) — gather, filter via selection vector,
/// scatter; the hash kernels read their keys in place through strided
/// column views of the input rows (FlatKeyIndex::InsertRows / FindRows).
/// An operator whose input fits one morsel skips the partition
/// bookkeeping; inline callers (plan walks without a driver, the
/// one-shot wrappers of ops.h) pass WholeInputMorsel() so that every
/// operator runs that way.
///
/// Determinism contract (the property tests and the morsel driver rely
/// on it): for the same inputs, spec, and morsel size, the output
/// relation and every ExecStats field are byte-identical regardless of
/// how many workers run the morsels — including under tuple-budget
/// truncation. Across morsel sizes everything but peak_bytes is
/// identical. The recipe:
///
///  - The morsel partition depends only on the row count and morsel
///    size, never on the worker count.
///  - A counting phase computes exact per-morsel output sizes; prefix
///    sums turn them into disjoint output ranges, and the truncation
///    point is min(total, budget_headroom()) — the same row a
///    sequential emit loop would stop at.
///  - Per-morsel scratch is measured per morsel and folded in
///    morsel-index order; per-morsel trace spans are recorded into
///    private shards and merged in morsel-index order.
///
/// peak_bytes composes per partition: shared build scratch, plus the sum
/// of per-morsel scratch, plus output bytes. It is identical across
/// worker counts and schedules for a fixed morsel size.
///
/// Layering: this header knows nothing about threads. MorselExec is a
/// dependency-free seam — the morsel driver in src/runtime fills in a
/// ThreadPool-backed parallel_for and per-worker arenas; with the
/// defaults everything runs inline on the calling thread.
struct MorselExec {
  /// Rows per morsel; 0 means "use ProcessEnv().morsel_rows"
  /// (PPR_MORSEL_SIZE, default 64K).
  int64_t morsel_rows = 0;

  /// Number of worker slots parallel_for may use (worker indices passed
  /// to the body are in [0, num_workers)). Ignored when parallel_for is
  /// unset.
  int num_workers = 1;

  /// parallel_for(count, body) must invoke body(m, w) exactly once for
  /// every m in [0, count), possibly concurrently, with w naming the
  /// worker slot running that morsel, and return only after all morsels
  /// finished. Unset (the default) runs morsels inline, in order, on the
  /// calling thread with worker slot 0.
  std::function<void(int64_t, const std::function<void(int64_t, int)>&)>
      parallel_for;

  /// Scratch arena for each worker slot; worker_arenas[w] is only ever
  /// used by the single morsel currently running on slot w (kernels
  /// bracket per-morsel scratch with an ArenaScope). Required when
  /// parallel_for is set; when empty, kernels fall back to the context
  /// arena (safe only inline).
  std::vector<ExecArena*> worker_arenas;

  /// morsel_rows with the 0 default resolved from the environment.
  int64_t effective_morsel_rows() const;

  /// Number of morsels covering `rows` input rows.
  int64_t NumMorsels(int64_t rows) const;

  /// Runs body(m, w) for all m in [0, count) — through parallel_for when
  /// set, inline otherwise.
  void ForEachMorsel(int64_t count,
                     const std::function<void(int64_t, int)>& body) const;
};

/// The inline partition: one morsel holding each operator's whole input,
/// run on the calling thread with the context arena. Its morsel size is a
/// fixed constant, so PPR_MORSEL_SIZE never applies. PhysicalPlan uses it
/// when no MorselExec is passed, and so do the one-shot wrappers
/// (NaturalJoin, Project, SemiJoin, BindAtom).
const MorselExec& WholeInputMorsel();

/// Scan kernel: instantiates a stored relation under an atom binding.
/// Morsels gather, filter on repeated attributes and scatter into their
/// output slices. When `morsel_rows_out` is non-null it receives the
/// per-morsel emitted row counts in morsel order (the accounting the
/// physical verifier checks: their sum equals the output size).
Relation ScanAtom(const Relation& stored, const ScanSpec& spec,
                  ExecContext& ctx, const MorselExec& mx,
                  std::vector<int64_t>* morsel_rows_out = nullptr);

/// Hash-join kernel: a shared index on the smaller input, constructed
/// once on the calling thread, and the larger input probed in morsels
/// (two-phase: a counting probe that keeps each probe row's group id,
/// then materialization from the kept ids into exact disjoint ranges).
/// Output rows come in probe-row order, then build-row order.
Relation HashJoin(const Relation& left, const Relation& right,
                  const JoinSpec& spec, ExecContext& ctx, const MorselExec& mx,
                  std::vector<int64_t>* morsel_rows_out = nullptr);

/// Projection kernel (DISTINCT): morsel-local dedup into per-morsel
/// FlatKeyIndexes, then a sequential merge in morsel-index order — which
/// reproduces the one-morsel first-occurrence order exactly. An empty
/// column list yields a nullary relation that is nonempty iff the input
/// is (Boolean queries).
Relation ProjectColumns(const Relation& input, const ProjectSpec& spec,
                        ExecContext& ctx, const MorselExec& mx,
                        std::vector<int64_t>* morsel_rows_out = nullptr);

/// Semijoin kernel: left tuples with at least one match in right. A
/// shared key filter is built from the right side, and the left side is
/// probed per morsel with survivors recorded in selection vectors.
Relation SemiJoinFiltered(const Relation& left, const Relation& right,
                          const SemiJoinSpec& spec, ExecContext& ctx,
                          const MorselExec& mx,
                          std::vector<int64_t>* morsel_rows_out = nullptr);

}  // namespace ppr

#endif  // PPR_RELATIONAL_BATCH_OPS_H_
