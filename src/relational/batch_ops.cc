#include "relational/batch_ops.h"

#include <algorithm>
#include <optional>
#include <span>
#include <utility>

#include "common/check.h"
#include "common/env.h"
#include "obs/trace.h"
#include "relational/column_batch.h"
#include "relational/flat_hash.h"

namespace ppr {

int64_t MorselExec::effective_morsel_rows() const {
  return morsel_rows > 0 ? morsel_rows : ProcessEnv().morsel_rows;
}

int64_t MorselExec::NumMorsels(int64_t rows) const {
  if (rows <= 0) return 0;
  const int64_t mr = effective_morsel_rows();
  return (rows + mr - 1) / mr;
}

void MorselExec::ForEachMorsel(
    int64_t count, const std::function<void(int64_t, int)>& body) const {
  if (count <= 0) return;
  if (!parallel_for) {
    for (int64_t m = 0; m < count; ++m) body(m, 0);
    return;
  }
  // Concurrent morsels sharing the context arena would race; a driver
  // that installs a parallel_for must bring per-worker arenas along.
  PPR_CHECK(num_workers >= 1 &&
            worker_arenas.size() >= static_cast<size_t>(num_workers));
  parallel_for(count, body);
}

const MorselExec& WholeInputMorsel() {
  // 2^62 rows per morsel: more than any relation can hold, and small
  // enough that NumMorsels' round-up (rows + morsel_rows - 1) cannot
  // overflow.
  static const MorselExec whole = [] {
    MorselExec mx;
    mx.morsel_rows = int64_t{1} << 62;
    return mx;
  }();
  return whole;
}

namespace {

struct MorselRange {
  int64_t begin;
  int64_t end;
};

MorselRange RangeOf(int64_t m, int64_t morsel_rows, int64_t total) {
  const int64_t begin = m * morsel_rows;
  return {begin, std::min(begin + morsel_rows, total)};
}

ExecArena& WorkerArena(const MorselExec& mx, ExecContext& ctx, int w) {
  if (mx.worker_arenas.empty()) return ctx.arena();
  return *mx.worker_arenas[static_cast<size_t>(w)];
}

// Private per-morsel trace shards, folded into the run's sink in
// morsel-index order once all morsels finished — worker threads never
// touch the shared sink, and the merged span order is schedule-free.
class MorselTraceShards {
 public:
  MorselTraceShards(TraceSink* target, int64_t num_morsels)
      : target_(target) {
    if (target_ == nullptr) return;
    shards_.reserve(static_cast<size_t>(num_morsels));
    for (int64_t m = 0; m < num_morsels; ++m) shards_.emplace_back(2);
  }

  TraceSink* shard(int64_t m) {
    return target_ == nullptr ? nullptr : &shards_[static_cast<size_t>(m)];
  }

  void MergeInOrder() {
    if (target_ == nullptr) return;
    for (const TraceSink& s : shards_) target_->Merge(s);
  }

 private:
  TraceSink* target_;
  std::vector<TraceSink> shards_;
};

// Per-morsel emitted rows implied by the pre-truncation prefix sums
// `offsets` and the truncation point `limit`.
void FillAccounts(std::vector<int64_t>* accounts,
                  const std::vector<int64_t>& offsets, int64_t limit) {
  if (accounts == nullptr) return;
  accounts->clear();
  const size_t num_morsels = offsets.size() - 1;
  accounts->reserve(num_morsels);
  for (size_t m = 0; m < num_morsels; ++m) {
    accounts->push_back(std::min(offsets[m + 1], limit) -
                        std::min(offsets[m], limit));
  }
}

// Starts the span of an operator that runs as one morsel holding its
// whole input. The span covers the whole operator (obs/trace.h): rows_in
// counts every input, and the kernel sets bytes to the footprint it
// passes to NotePeakBytes. Multi-morsel runs record one span per morsel
// instead and pass the recorder a null sink.
void StartWholeSpan(SpanRecorder& rec, int64_t rows_in, int arity_in,
                    int arity_out) {
  if (!rec.enabled()) return;
  TraceSpan& span = rec.span();
  span.rows_in = rows_in;
  span.arity_in = arity_in;
  span.arity_out = arity_out;
  span.morsel_id = 0;
  span.batches = 1;
}

// Appends `rows` unwritten rows to `out` and returns the first. A nullary
// relation holds at most the empty tuple: it is added when `rows` > 0,
// and with no values to write the cursor is null.
Value* GrowOutput(Relation& out, int64_t rows) {
  if (out.arity() > 0) return out.GrowRows(rows);
  PPR_DCHECK(rows <= 1);
  if (rows > 0) out.AddTuple(std::span<const Value>{});
  return nullptr;
}

// Materializes the first `quota` matches of probe rows [begin, end) of
// a join at `cursor`, in probe-row order then build-row order, so
// concatenated morsels reproduce the one-morsel order exactly; `group`
// holds each probe row's group in `index`. Returns the rows written. A
// nullary output (both inputs nullary) writes no values through its null
// cursor. Every loop bound is a local: a Value store through `cursor`
// may alias any int the loop reads through a reference or a lambda
// capture, which would reload the bound after every value copied.
int64_t EmitJoinRows(const Relation& left, const Relation& right,
                     const JoinSpec& spec, bool build_left,
                     const JoinIndex& index, const int32_t* group,
                     int64_t begin, int64_t end, int64_t quota,
                     Value* cursor) {
  const Relation& probe = build_left ? right : left;
  const Value* const left_base = left.data();
  const Value* const right_base = right.data();
  const Value* const probe_base = probe.data();
  const int left_arity = left.arity();
  const int right_arity = right.arity();
  const int probe_arity = probe.arity();
  const int* const carry = spec.right_carry_cols.data();
  const int num_carry = static_cast<int>(spec.right_carry_cols.size());
  const int out_arity = left_arity + num_carry;
  int64_t emitted = 0;
  for (int64_t i = begin; i < end && emitted < quota; ++i) {
    const std::span<const int64_t> matches = index.Matches(group[i]);
    if (matches.empty()) continue;
    const Value* probe_row = probe_base + i * probe_arity;
    if (build_left) {
      for (int64_t b : matches) {
        const Value* left_row = left_base + b * left_arity;
        for (int c = 0; c < left_arity; ++c) cursor[c] = left_row[c];
        for (int c = 0; c < num_carry; ++c) {
          cursor[left_arity + c] = probe_row[carry[c]];
        }
        cursor += out_arity;
        if (++emitted == quota) break;
      }
    } else {
      for (int64_t b : matches) {
        const Value* right_row = right_base + b * right_arity;
        for (int c = 0; c < left_arity; ++c) cursor[c] = probe_row[c];
        for (int c = 0; c < num_carry; ++c) {
          cursor[left_arity + c] = right_row[carry[c]];
        }
        cursor += out_arity;
        if (++emitted == quota) break;
      }
    }
  }
  return emitted;
}

// Gather map of a scan with repeated-attribute checks: the output columns
// first, then one column per equality check gathering the *repeated*
// stored column, so the filter compares batch columns against batch
// columns. check_first[t] is the batch column holding check t's
// first-occurrence side.
struct CheckedGather {
  explicit CheckedGather(const ScanSpec& spec)
      : out_arity(static_cast<int>(spec.source_cols.size())),
        cols(spec.source_cols) {
    cols.reserve(spec.source_cols.size() + spec.equal_checks.size());
    check_first.reserve(spec.equal_checks.size());
    for (const auto& [col, first] : spec.equal_checks) {
      cols.push_back(col);
      const auto it =
          std::find(spec.source_cols.begin(), spec.source_cols.end(), first);
      PPR_CHECK(it != spec.source_cols.end());
      check_first.push_back(static_cast<int>(it - spec.source_cols.begin()));
    }
  }

  int arity() const { return static_cast<int>(cols.size()); }

  // Narrows the batch's selection to the rows whose checks all hold,
  // keeping row order.
  void Filter(ColumnBatch& batch) const {
    for (size_t t = 0; t < check_first.size(); ++t) {
      const Value* a = batch.column(check_first[t]);
      const Value* b = batch.column(out_arity + static_cast<int>(t));
      int32_t* sel = batch.selection();
      const int64_t alive = batch.num_selected();
      int64_t kept = 0;
      for (int64_t j = 0; j < alive; ++j) {
        const int32_t r = sel[j];
        sel[kept] = r;
        kept += (a[r] == b[r]) ? 1 : 0;
      }
      batch.SetSelected(kept);
    }
  }

  int out_arity;
  std::vector<int> cols;
  std::vector<int> check_first;
};

}  // namespace

Relation ScanAtom(const Relation& stored, const ScanSpec& spec,
                  ExecContext& ctx, const MorselExec& mx,
                  std::vector<int64_t>* morsel_rows_out) {
  if (morsel_rows_out != nullptr) morsel_rows_out->clear();
  Relation out{spec.out_schema};
  const int in_arity = stored.arity();
  const int out_arity = out.arity();
  const int64_t in_rows = stored.size();
  const Value* base = stored.data();
  // Only repeated attributes need the extended gather map; a plain scan
  // gathers spec.source_cols as they are.
  std::optional<CheckedGather> checked;
  if (!spec.equal_checks.empty()) checked.emplace(spec);

  const int64_t morsel_rows = mx.effective_morsel_rows();
  const int64_t num_morsels = mx.NumMorsels(in_rows);

  // Whole-input path: with at most one morsel the offsets dance
  // degenerates — phase A would read every row only to learn the single
  // offset (0). Gather, filter and clamp in one pass instead. Rows, stats
  // and accounts match the general path at any worker count because one
  // morsel leaves the scheduler nothing to permute.
  if (num_morsels <= 1) {
    SpanRecorder rec(ctx.tracer(), TraceOp::kScan, ctx.trace_node());
    StartWholeSpan(rec, in_rows, in_arity, out_arity);
    ArenaScope scope(ctx.arena());
    // An empty input allocates no scratch, so peak_bytes stays an honest
    // 0 on runs against empty databases.
    int64_t limit = 0;
    if (in_rows > 0 && !checked) {
      // A pure column gather, written straight into the output with no
      // batch round trip (no columns at all for a nullary binding).
      limit = ctx.ClampToHeadroom(in_rows);
      Value* out_base = GrowOutput(out, limit);
      for (int c = 0; c < out_arity; ++c) {
        const Value* src = base + spec.source_cols[static_cast<size_t>(c)];
        Value* dst = out_base + c;
        for (int64_t i = 0; i < limit; ++i) {
          dst[i * out_arity] = src[i * in_arity];
        }
      }
    } else if (in_rows > 0) {
      ColumnBatch batch(checked->arity(), in_rows, ctx.arena());
      batch.GatherRows(base, in_arity, 0, in_rows, checked->cols.data());
      checked->Filter(batch);
      // Budget truncation keeps the first survivors, in row order.
      limit = ctx.ClampToHeadroom(batch.num_selected());
      batch.SetSelected(limit);
      batch.ScatterSelectedTo(out.GrowRows(limit), out_arity);
    }
    if (limit > 0) ctx.ChargeTuples(limit);
    if (morsel_rows_out != nullptr) {
      morsel_rows_out->assign(static_cast<size_t>(num_morsels), limit);
    }
    const Counter footprint =
        static_cast<Counter>(scope.bytes_allocated()) + out.byte_size();
    if (rec.enabled()) {
      rec.span().rows_out = out.size();
      rec.span().bytes = footprint;
    }
    ctx.stats().NotePeakBytes(footprint);
    ctx.stats().NoteIntermediate(out.arity(), out.size());
    return out;
  }

  // Phase A: exact per-morsel surviving-row counts (predicate only, no
  // data movement). Counts depend only on the data and the partition.
  std::vector<int64_t> counts(static_cast<size_t>(num_morsels), 0);
  mx.ForEachMorsel(num_morsels, [&](int64_t m, int /*w*/) {
    const auto [begin, end] = RangeOf(m, morsel_rows, in_rows);
    if (!checked) {
      counts[static_cast<size_t>(m)] = end - begin;
      return;
    }
    int64_t kept = 0;
    for (int64_t i = begin; i < end; ++i) {
      const Value* row = base + i * in_arity;
      bool keep = true;
      for (const auto& [col, first] : spec.equal_checks) {
        if (row[col] != row[first]) {
          keep = false;
          break;
        }
      }
      kept += keep ? 1 : 0;
    }
    counts[static_cast<size_t>(m)] = kept;
  });

  std::vector<int64_t> offsets(static_cast<size_t>(num_morsels) + 1, 0);
  for (int64_t m = 0; m < num_morsels; ++m) {
    offsets[static_cast<size_t>(m) + 1] =
        offsets[static_cast<size_t>(m)] + counts[static_cast<size_t>(m)];
  }
  const int64_t total = offsets[static_cast<size_t>(num_morsels)];
  const int64_t limit = ctx.ClampToHeadroom(total);

  Value* out_base = out.GrowRows(limit);
  std::vector<int64_t> scratch(static_cast<size_t>(num_morsels), 0);
  MorselTraceShards shards(ctx.tracer(), num_morsels);
  const int batch_arity = checked ? checked->arity() : out_arity;
  const int* gather_cols =
      checked ? checked->cols.data() : spec.source_cols.data();

  // Phase B: gather -> filter (selection refinement) -> scatter into the
  // morsel's precomputed slice of the output.
  mx.ForEachMorsel(num_morsels, [&](int64_t m, int w) {
    const int64_t off = std::min(offsets[static_cast<size_t>(m)], limit);
    const int64_t quota =
        std::min(offsets[static_cast<size_t>(m) + 1], limit) - off;
    if (quota <= 0) return;
    const auto [begin, end] = RangeOf(m, morsel_rows, in_rows);
    const int64_t n = end - begin;
    ExecArena& warena = WorkerArena(mx, ctx, w);
    ArenaScope scope(warena);
    SpanRecorder mrec(shards.shard(m), TraceOp::kScan, ctx.trace_node());
    if (mrec.enabled()) {
      mrec.span().rows_in = n;
      mrec.span().arity_in = in_arity;
      mrec.span().arity_out = out_arity;
      mrec.span().morsel_id = static_cast<int32_t>(m);
      mrec.span().batches = 1;
    }
    ColumnBatch batch(batch_arity, n, warena);
    batch.GatherRows(base, in_arity, begin, n, gather_cols);
    if (checked) checked->Filter(batch);
    PPR_DCHECK(batch.num_selected() == counts[static_cast<size_t>(m)]);
    // Budget truncation keeps the first quota survivors, in row order.
    batch.SetSelected(quota);
    batch.ScatterSelectedTo(out_base + off * out_arity, out_arity);
    scratch[static_cast<size_t>(m)] =
        static_cast<int64_t>(scope.bytes_allocated());
    if (mrec.enabled()) {
      mrec.span().rows_out = quota;
      mrec.span().bytes = scratch[static_cast<size_t>(m)];
    }
  });

  if (limit > 0) ctx.ChargeTuples(limit);
  shards.MergeInOrder();
  FillAccounts(morsel_rows_out, offsets, limit);

  Counter footprint = out.byte_size();
  for (int64_t m = 0; m < num_morsels; ++m) {
    footprint += scratch[static_cast<size_t>(m)];
  }
  ctx.stats().NotePeakBytes(footprint);
  ctx.stats().NoteIntermediate(out.arity(), out.size());
  return out;
}

Relation HashJoin(const Relation& left, const Relation& right,
                  const JoinSpec& spec, ExecContext& ctx, const MorselExec& mx,
                  std::vector<int64_t>* morsel_rows_out) {
  if (morsel_rows_out != nullptr) morsel_rows_out->clear();
  ctx.stats().num_joins++;
  Relation out{spec.out_schema};

  // Build on the smaller side, probe with the larger.
  const bool build_left = left.size() <= right.size();
  const Relation& build = build_left ? left : right;
  const Relation& probe = build_left ? right : left;
  const int left_arity = left.arity();
  const int right_arity = right.arity();
  const int out_arity = out.arity();
  const int probe_arity = probe.arity();
  const int64_t probe_rows = probe.size();
  const int64_t morsel_rows = mx.effective_morsel_rows();
  const int64_t num_morsels = mx.NumMorsels(probe_rows);

  SpanRecorder rec(num_morsels <= 1 ? ctx.tracer() : nullptr, TraceOp::kJoin,
                   ctx.trace_node());
  StartWholeSpan(rec, left.size() + right.size(),
                 std::max(left_arity, right_arity), out_arity);
  if (left.empty() || right.empty()) {
    ctx.stats().NoteIntermediate(out.arity(), 0);
    return out;
  }

  // Shared build phase on the calling thread; the index is read-only
  // once constructed, so morsel workers probe it without locks.
  ArenaScope shared_scope(ctx.arena());
  const std::vector<int>& build_key_cols =
      build_left ? spec.left_key_cols : spec.right_key_cols;
  const std::vector<int>& probe_key_cols =
      build_left ? spec.right_key_cols : spec.left_key_cols;
  const JoinIndex index(build, build_key_cols, ctx.arena());

  // Probe keys are read in place through strided column views, and the
  // counting probe keeps each row's group id so the emit pass reads its
  // matches without hashing again. Morsels write disjoint slices of
  // `group`, so workers share the array without locks.
  const Value* const* probe_cols =
      KeyColumns(probe, probe_key_cols, ctx.arena());
  int32_t* group = ctx.arena().AllocSpan<int32_t>(probe_rows).data();

  // Counting probe over probe rows [begin, end): returns their matches.
  const auto count_range = [&](int64_t begin, int64_t end) {
    int64_t total = 0;
    index.FindGroups(probe_cols, probe_arity, begin, end,
                     [&](int64_t i, int64_t g) {
                       group[i] = static_cast<int32_t>(g);
                       total += static_cast<int64_t>(index.Matches(g).size());
                       return true;
                     });
    return total;
  };

  // Single-morsel path: the per-morsel bookkeeping (counts, offsets,
  // trace shards) exists to stitch independent morsels back together;
  // with one morsel it is pure overhead. Identical rows, stats and
  // accounts at any worker count — a one-morsel partition leaves the
  // scheduler nothing to permute.
  if (num_morsels == 1) {
    const int64_t limit = ctx.ClampToHeadroom(count_range(0, probe_rows));
    EmitJoinRows(left, right, spec, build_left, index, group, 0, probe_rows,
                 limit, GrowOutput(out, limit));
    if (limit > 0) ctx.ChargeTuples(limit);
    if (morsel_rows_out != nullptr) morsel_rows_out->assign(1, limit);
    const Counter footprint =
        static_cast<Counter>(shared_scope.bytes_allocated()) +
        out.byte_size();
    if (rec.enabled()) {
      rec.span().rows_out = out.size();
      rec.span().bytes = footprint;
      rec.span().ht_build_rows = build.size();
      rec.span().ht_probe_ops = probe_rows;
    }
    ctx.stats().NotePeakBytes(footprint);
    ctx.stats().NoteIntermediate(out.arity(), out.size());
    return out;
  }

  // Phase A: counting probe per morsel.
  std::vector<int64_t> counts(static_cast<size_t>(num_morsels), 0);
  mx.ForEachMorsel(num_morsels, [&](int64_t m, int /*w*/) {
    const auto [begin, end] = RangeOf(m, morsel_rows, probe_rows);
    counts[static_cast<size_t>(m)] = count_range(begin, end);
  });

  std::vector<int64_t> offsets(static_cast<size_t>(num_morsels) + 1, 0);
  for (int64_t m = 0; m < num_morsels; ++m) {
    offsets[static_cast<size_t>(m) + 1] =
        offsets[static_cast<size_t>(m)] + counts[static_cast<size_t>(m)];
  }
  const int64_t total = offsets[static_cast<size_t>(num_morsels)];
  const int64_t limit = ctx.ClampToHeadroom(total);

  Value* out_base = out.GrowRows(limit);
  MorselTraceShards shards(ctx.tracer(), num_morsels);

  // Phase B: materialize each morsel into its disjoint output range.
  mx.ForEachMorsel(num_morsels, [&](int64_t m, int /*w*/) {
    const int64_t off = std::min(offsets[static_cast<size_t>(m)], limit);
    const int64_t quota =
        std::min(offsets[static_cast<size_t>(m) + 1], limit) - off;
    if (quota <= 0) return;
    const auto [begin, end] = RangeOf(m, morsel_rows, probe_rows);
    const int64_t n = end - begin;
    SpanRecorder mrec(shards.shard(m), TraceOp::kJoin, ctx.trace_node());
    if (mrec.enabled()) {
      mrec.span().rows_in = n;
      mrec.span().arity_in = std::max(left_arity, right_arity);
      mrec.span().arity_out = static_cast<int32_t>(out_arity);
      mrec.span().morsel_id = static_cast<int32_t>(m);
      mrec.span().batches = 1;
    }
    const int64_t emitted =
        EmitJoinRows(left, right, spec, build_left, index, group, begin, end,
                     quota, out_base + off * out_arity);
    if (mrec.enabled()) {
      mrec.span().rows_out = emitted;
      mrec.span().bytes = static_cast<int64_t>(n * sizeof(int32_t));
      mrec.span().ht_probe_ops = n;
    }
  });

  if (limit > 0) ctx.ChargeTuples(limit);
  shards.MergeInOrder();
  FillAccounts(morsel_rows_out, offsets, limit);

  ctx.stats().NotePeakBytes(
      static_cast<Counter>(shared_scope.bytes_allocated()) + out.byte_size());
  ctx.stats().NoteIntermediate(out.arity(), out.size());
  return out;
}

Relation ProjectColumns(const Relation& input, const ProjectSpec& spec,
                        ExecContext& ctx, const MorselExec& mx,
                        std::vector<int64_t>* morsel_rows_out) {
  if (morsel_rows_out != nullptr) morsel_rows_out->clear();
  ctx.stats().num_projections++;
  Relation out{spec.out_schema};
  const int key_width = static_cast<int>(spec.cols.size());
  const int in_arity = input.arity();
  const int64_t in_rows = input.size();
  const int64_t morsel_rows = mx.effective_morsel_rows();
  const int64_t num_morsels = mx.NumMorsels(in_rows);

  // A Boolean projection keeps no column, so it never partitions.
  SpanRecorder rec(key_width == 0 || num_morsels <= 1 ? ctx.tracer()
                                                      : nullptr,
                   TraceOp::kProject, ctx.trace_node());
  StartWholeSpan(rec, in_rows, in_arity, key_width);
  if (key_width == 0) {
    // Boolean projection: nonempty input -> the single empty tuple.
    if (!input.empty()) {
      out.AddTuple(std::span<const Value>{});
      ctx.ChargeTuples(1);
      if (morsel_rows_out != nullptr) morsel_rows_out->push_back(1);
    }
    if (rec.enabled()) rec.span().rows_out = out.size();
    ctx.stats().NoteIntermediate(0, out.size());
    return out;
  }
  if (input.empty()) {
    ctx.stats().NoteIntermediate(out.arity(), 0);
    return out;
  }

  // Single-morsel path: one morsel means the morsel-local index IS the
  // global dedup — the merge pass would re-hash every distinct key into a
  // second index just to recover an order it already has. Dedup straight
  // into the output instead.
  if (num_morsels == 1) {
    ArenaScope scope(ctx.arena());
    // Zero-copy column view of the morsel: column c is the strided
    // sequence in[cols[c]], in[cols[c] + in_arity], ... — the block
    // probe walks it with stride in_arity, so the morsel is deduplicated
    // in one pass with no gather copy (a project reads each input value
    // exactly once either way; the materialized batch would only double
    // the traffic).
    const Value* const* col_ptrs = KeyColumns(input, spec.cols, ctx.arena());
    // The output rows are the index's key store: a truncated run stops
    // after budget_headroom() distinct keys, so min(input rows, headroom)
    // rows hold every key the loop can insert. Distinct keys land in
    // first-occurrence order exactly where the output wants them; the
    // reserved rows count toward the footprint until the truncate below.
    const int64_t reserve_rows = ctx.ClampToHeadroom(in_rows);
    FlatKeyIndex seen(reserve_rows, key_width, ctx.arena(),
                      out.GrowRows(reserve_rows));
    const Counter reserved_bytes = out.byte_size();
    int64_t probed = 0;
    if (!ctx.exhausted()) {
      probed = seen.InsertRows(
          col_ptrs, in_arity, 0, in_rows, [&](int64_t, int64_t, bool inserted) {
            return !inserted || ctx.ChargeTuples(1);
          });
    }
    out.TruncateRows(seen.num_keys());
    if (morsel_rows_out != nullptr) morsel_rows_out->assign(1, out.size());
    const Counter footprint =
        static_cast<Counter>(scope.bytes_allocated()) + reserved_bytes;
    if (rec.enabled()) {
      rec.span().rows_out = out.size();
      rec.span().bytes = footprint;
      rec.span().ht_build_rows = out.size();  // distinct keys inserted
      rec.span().ht_probe_ops = probed;  // one insert-or-find per input row
    }
    ctx.stats().NotePeakBytes(footprint);
    ctx.stats().NoteIntermediate(out.arity(), out.size());
    return out;
  }

  // Phase A: morsel-local dedup. Each morsel builds its own FlatKeyIndex
  // in a per-morsel arena (the index must outlive the phase for the
  // merge to read its packed keys); the small column-view scratch comes
  // from the worker arena and is released per morsel.
  std::vector<ExecArena> local_arenas(static_cast<size_t>(num_morsels));
  std::vector<std::optional<FlatKeyIndex>> locals(
      static_cast<size_t>(num_morsels));
  std::vector<int64_t> local_counts(static_cast<size_t>(num_morsels), 0);
  std::vector<int64_t> scratch_a(static_cast<size_t>(num_morsels), 0);
  MorselTraceShards shards(ctx.tracer(), num_morsels);
  mx.ForEachMorsel(num_morsels, [&](int64_t m, int w) {
    const auto [begin, end] = RangeOf(m, morsel_rows, in_rows);
    const int64_t n = end - begin;
    ExecArena& warena = WorkerArena(mx, ctx, w);
    ArenaScope scope(warena);
    SpanRecorder mrec(shards.shard(m), TraceOp::kProject, ctx.trace_node());
    if (mrec.enabled()) {
      mrec.span().rows_in = n;
      mrec.span().arity_in = in_arity;
      mrec.span().arity_out = key_width;
      mrec.span().morsel_id = static_cast<int32_t>(m);
      mrec.span().batches = 1;
    }
    // Zero-copy column view of the morsel (see the single-morsel path):
    // the block probe hashes straight out of the strided input columns,
    // and the local index's key store becomes the packed row-major copy
    // the merge reads — one pass, no gather scratch.
    locals[static_cast<size_t>(m)].emplace(
        n, key_width, local_arenas[static_cast<size_t>(m)]);
    FlatKeyIndex& local = *locals[static_cast<size_t>(m)];
    local.InsertRows(KeyColumns(input, spec.cols, warena), in_arity, begin,
                     end, [](int64_t, int64_t, bool) { return true; });
    local_counts[static_cast<size_t>(m)] = local.num_keys();
    scratch_a[static_cast<size_t>(m)] =
        static_cast<int64_t>(scope.bytes_allocated());
    if (mrec.enabled()) {
      // rows_out of a project morsel is the morsel-local distinct count;
      // the globally-new contribution is only known at merge time.
      mrec.span().rows_out = local.num_keys();
      mrec.span().ht_build_rows = local.num_keys();
      mrec.span().ht_probe_ops = n;
      mrec.span().bytes =
          scratch_a[static_cast<size_t>(m)] +
          static_cast<int64_t>(
              local_arenas[static_cast<size_t>(m)].bytes_in_use());
    }
  });

  int64_t sum_local = 0;
  for (int64_t c : local_counts) sum_local += c;

  // Merge in morsel-index order: concatenating the morsel-local
  // first-occurrence orders and deduplicating sequentially reproduces
  // the one-morsel global first-occurrence order exactly. The output rows
  // are the merge index's key store (see the single-morsel path).
  ArenaScope merge_scope(ctx.arena());
  const int64_t reserve_rows = ctx.ClampToHeadroom(sum_local);
  FlatKeyIndex seen(reserve_rows, key_width, ctx.arena(),
                    out.GrowRows(reserve_rows));
  const Counter reserved_bytes = out.byte_size();
  if (morsel_rows_out != nullptr) {
    morsel_rows_out->assign(static_cast<size_t>(num_morsels), 0);
  }
  // A morsel-local key store is packed rows: column c starts at value c
  // and advances by key_width.
  std::vector<const Value*> kd_cols(static_cast<size_t>(key_width));
  for (int64_t m = 0; m < num_morsels && !ctx.exhausted(); ++m) {
    const Value* kd = locals[static_cast<size_t>(m)]->key_data();
    for (int c = 0; c < key_width; ++c) {
      kd_cols[static_cast<size_t>(c)] = kd + c;
    }
    const int64_t before = seen.num_keys();
    seen.InsertRows(kd_cols.data(), key_width, 0,
                    local_counts[static_cast<size_t>(m)],
                    [&](int64_t, int64_t, bool inserted) {
                      return !inserted || ctx.ChargeTuples(1);
                    });
    if (morsel_rows_out != nullptr) {
      (*morsel_rows_out)[static_cast<size_t>(m)] = seen.num_keys() - before;
    }
  }
  out.TruncateRows(seen.num_keys());
  shards.MergeInOrder();

  Counter footprint =
      static_cast<Counter>(merge_scope.bytes_allocated()) + reserved_bytes;
  for (int64_t m = 0; m < num_morsels; ++m) {
    footprint +=
        scratch_a[static_cast<size_t>(m)] +
        static_cast<Counter>(local_arenas[static_cast<size_t>(m)].bytes_in_use());
  }
  ctx.stats().NotePeakBytes(footprint);
  ctx.stats().NoteIntermediate(out.arity(), out.size());
  return out;
}

Relation SemiJoinFiltered(const Relation& left, const Relation& right,
                          const SemiJoinSpec& spec, ExecContext& ctx,
                          const MorselExec& mx,
                          std::vector<int64_t>* morsel_rows_out) {
  if (morsel_rows_out != nullptr) morsel_rows_out->clear();
  ctx.stats().num_semijoins++;
  Relation out{left.schema()};
  const int left_arity = left.arity();
  const int64_t left_rows = left.size();
  const int64_t morsel_rows = mx.effective_morsel_rows();
  const int64_t num_morsels = mx.NumMorsels(left_rows);

  SpanRecorder rec(num_morsels <= 1 ? ctx.tracer() : nullptr,
                   TraceOp::kSemiJoin, ctx.trace_node());
  StartWholeSpan(rec, left_rows + right.size(),
                 std::max(left_arity, right.arity()), left_arity);
  if (left.empty()) return out;
  const bool no_common = spec.left_key_cols.empty();
  if (no_common && right.empty()) {
    // No shared attributes: semijoin keeps everything iff right is nonempty.
    return out;
  }

  // Shared filter build on the calling thread; read-only afterwards.
  ArenaScope shared_scope(ctx.arena());
  const int key_width = static_cast<int>(spec.right_key_cols.size());
  FlatKeyIndex keys(right.size(), key_width, ctx.arena());
  // Keys are hashed and compared in place, through strided views.
  const Value* const* right_cols =
      KeyColumns(right, spec.right_key_cols, ctx.arena());
  const Value* const* left_cols =
      KeyColumns(left, spec.left_key_cols, ctx.arena());
  keys.InsertRows(right_cols, right.arity(), 0, right.size(),
                  [](int64_t, int64_t, bool) { return true; });

  const Value* left_base = left.data();

  // Phase A: probe per morsel, recording the survivors of morsel m as
  // offsets from its first row in its own range of one shared selection
  // vector (allocated here, on the calling thread, so phase B — possibly
  // on another worker — can scatter them). Without shared attributes the
  // keys are nullary: right's one empty key is found for every left row.
  int32_t* sel = ctx.arena().AllocSpan<int32_t>(left_rows).data();
  std::vector<int64_t> counts(static_cast<size_t>(num_morsels), 0);
  mx.ForEachMorsel(num_morsels, [&](int64_t m, int /*w*/) {
    const auto [begin, end] = RangeOf(m, morsel_rows, left_rows);
    int32_t* msel = sel + begin;
    int64_t kept = 0;
    keys.FindRows(left_cols, left_arity, begin, end,
                  [&](int64_t row, int64_t id) {
                    if (id >= 0) {
                      msel[kept++] = static_cast<int32_t>(row - begin);
                    }
                    return true;
                  });
    counts[static_cast<size_t>(m)] = kept;
  });

  std::vector<int64_t> offsets(static_cast<size_t>(num_morsels) + 1, 0);
  for (int64_t m = 0; m < num_morsels; ++m) {
    offsets[static_cast<size_t>(m) + 1] =
        offsets[static_cast<size_t>(m)] + counts[static_cast<size_t>(m)];
  }
  const int64_t total = offsets[static_cast<size_t>(num_morsels)];
  const int64_t limit = ctx.ClampToHeadroom(total);

  // A nullary left (at most the empty tuple) copies no values through its
  // null cursor.
  Value* out_base = GrowOutput(out, limit);
  MorselTraceShards shards(num_morsels > 1 ? ctx.tracer() : nullptr,
                           num_morsels);

  // Phase B: scatter the surviving left rows into the disjoint ranges.
  mx.ForEachMorsel(num_morsels, [&](int64_t m, int /*w*/) {
    const int64_t off = std::min(offsets[static_cast<size_t>(m)], limit);
    const int64_t quota =
        std::min(offsets[static_cast<size_t>(m) + 1], limit) - off;
    if (quota <= 0) return;
    const auto [begin, end] = RangeOf(m, morsel_rows, left_rows);
    SpanRecorder mrec(shards.shard(m), TraceOp::kSemiJoin, ctx.trace_node());
    if (mrec.enabled()) {
      mrec.span().rows_in = end - begin;
      mrec.span().arity_in = std::max(left_arity, right.arity());
      mrec.span().arity_out = left_arity;
      mrec.span().morsel_id = static_cast<int32_t>(m);
      mrec.span().batches = 1;
      mrec.span().ht_probe_ops = no_common ? 0 : end - begin;
      mrec.span().bytes =
          static_cast<int64_t>(sizeof(int32_t)) * (end - begin);
    }
    Value* cursor = out_base + off * left_arity;
    const int32_t* msel = sel + begin;
    for (int64_t j = 0; j < quota; ++j) {
      const Value* row = left_base + (begin + msel[j]) * left_arity;
      for (int c = 0; c < left_arity; ++c) cursor[c] = row[c];
      cursor += left_arity;
    }
    if (mrec.enabled()) mrec.span().rows_out = quota;
  });

  if (limit > 0) ctx.ChargeTuples(limit);
  shards.MergeInOrder();
  FillAccounts(morsel_rows_out, offsets, limit);

  const Counter footprint =
      static_cast<Counter>(shared_scope.bytes_allocated()) + out.byte_size();
  if (rec.enabled()) {
    rec.span().rows_out = out.size();
    rec.span().bytes = footprint;
    rec.span().ht_build_rows = right.size();
    rec.span().ht_probe_ops = no_common ? 0 : left_rows;
  }
  ctx.stats().NotePeakBytes(footprint);
  ctx.stats().NoteIntermediate(out.arity(), out.size());
  return out;
}

}  // namespace ppr
