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

/// Columnar, morsel-driven variants of the four operator kernels
/// (relational/ops.h). Each kernel partitions its probe/input side into
/// fixed-size morsels and materializes every morsel into a precomputed
/// disjoint slice of the output. The scan runs its morsels through a
/// ColumnBatch (column_batch.h) — gather, filter via selection vector,
/// scatter; the hash kernels read their keys in place through strided
/// column views of the input rows (FlatKeyIndex::InsertRows / FindRows).
///
/// Determinism contract (the property tests and the morsel driver rely
/// on it): for the same inputs, spec, and morsel size, the output
/// relation and every ExecStats field are byte-identical regardless of
/// how many workers run the morsels — including under tuple-budget
/// truncation. The recipe:
///
///  - The morsel partition depends only on the row count and morsel
///    size, never on the worker count.
///  - A counting phase computes exact per-morsel output sizes; prefix
///    sums turn them into disjoint output ranges, and the truncation
///    point is min(total, budget_headroom()) — the same row the
///    sequential kernel would stop at.
///  - Per-morsel scratch is measured per morsel and folded in
///    morsel-index order; per-morsel trace spans are recorded into
///    private shards and merged in morsel-index order.
///
/// The one intentional difference from the row kernels: peak_bytes
/// composes differently (shared build scratch + the sum of per-morsel
/// scratch + output bytes, instead of one sequential scope), so its
/// value may differ from the row path's — it is still identical across
/// worker counts and morsel schedules for a fixed morsel size.
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

/// Columnar scan kernel. Oracle-equal to ScanAtom: same output (rows and
/// order), same stats except peak_bytes, same budget truncation. When
/// `morsel_rows_out` is non-null it receives the per-morsel emitted row
/// counts in morsel order (the accounting the physical verifier checks:
/// their sum equals the output size).
Relation ScanAtomColumnar(const Relation& stored, const ScanSpec& spec,
                          ExecContext& ctx, const MorselExec& mx,
                          std::vector<int64_t>* morsel_rows_out = nullptr);

/// Columnar hash-join kernel: shared build-side index constructed once on
/// the calling thread, probe side partitioned into morsels (two-phase:
/// a counting probe that keeps each probe row's group id, then
/// materialization from the kept ids into exact disjoint ranges).
/// Oracle-equal to HashJoin (see ScanAtomColumnar).
Relation HashJoinColumnar(const Relation& left, const Relation& right,
                          const JoinSpec& spec, ExecContext& ctx,
                          const MorselExec& mx,
                          std::vector<int64_t>* morsel_rows_out = nullptr);

/// Columnar projection kernel (DISTINCT): morsel-local dedup into
/// per-morsel FlatKeyIndexes, then a sequential merge in morsel-index
/// order — which reproduces the sequential kernel's first-occurrence
/// emit order exactly. Oracle-equal to ProjectColumns.
Relation ProjectColumnsColumnar(const Relation& input, const ProjectSpec& spec,
                                ExecContext& ctx, const MorselExec& mx,
                                std::vector<int64_t>* morsel_rows_out = nullptr);

/// Columnar semijoin kernel: shared key filter built from the right side,
/// left side probed per morsel with survivors recorded in selection
/// vectors. Oracle-equal to SemiJoinFiltered.
Relation SemiJoinFilteredColumnar(
    const Relation& left, const Relation& right, const SemiJoinSpec& spec,
    ExecContext& ctx, const MorselExec& mx,
    std::vector<int64_t>* morsel_rows_out = nullptr);

}  // namespace ppr

#endif  // PPR_RELATIONAL_BATCH_OPS_H_
