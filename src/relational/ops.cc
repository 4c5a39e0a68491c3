#include "relational/ops.h"

#include <algorithm>
#include <cstddef>
#include <utility>

#include "common/check.h"
#include "obs/trace.h"
#include "relational/flat_hash.h"

namespace ppr {
namespace {

// Scan and semijoin outputs are reserved upfront at their input size,
// clamped by the remaining tuple budget and by a fixed cap so a
// pessimistic estimate can never balloon the reservation past what a
// truncated run could actually emit. Joins reserve their exact output
// size, and projections the exact key store they dedup into.
constexpr int64_t kMaxReserveRows = int64_t{1} << 21;

int64_t CappedReserveRows(double estimated_rows, ExecContext& ctx) {
  double rows = std::min(estimated_rows, static_cast<double>(kMaxReserveRows));
  const Counter headroom = ctx.budget_headroom();
  if (headroom < static_cast<Counter>(rows)) {
    rows = static_cast<double>(headroom);
  }
  return static_cast<int64_t>(rows);
}

std::vector<int> ColumnIndices(const Schema& schema,
                               const std::vector<AttrId>& attrs) {
  std::vector<int> cols;
  cols.reserve(attrs.size());
  for (AttrId a : attrs) {
    int idx = schema.IndexOf(a);
    PPR_CHECK(idx >= 0);
    cols.push_back(idx);
  }
  return cols;
}

// Bit a set for each attribute id a < 64 of `schema`.
uint64_t LowAttrMask(const Schema& schema) {
  uint64_t mask = 0;
  for (AttrId a : schema.attrs()) {
    if (a >= 0 && a < 64) mask |= uint64_t{1} << a;
  }
  return mask;
}

// Schema::Contains, answered from `mask` (LowAttrMask(schema)) for ids
// below 64.
bool InSchema(const Schema& schema, uint64_t mask, AttrId a) {
  return a >= 0 && a < 64 ? ((mask >> a) & 1) != 0 : schema.Contains(a);
}

// Appends one assembled tuple; nullary outputs go through the slow path
// that flips the nonempty bit.
inline void Emit(Relation& out, const Value* tuple, int arity) {
  if (arity > 0) {
    out.AppendRaw(tuple);
  } else {
    out.AddTuple(std::span<const Value>{});
  }
}

}  // namespace

JoinSpec PlanJoin(const Schema& left, const Schema& right) {
  JoinSpec spec;
  // Keys: the shared attributes, in left's column order. Membership is a
  // bit test for ids below 64 (canonical queries number attributes from
  // 0), so only shared attributes are searched for.
  const uint64_t left_mask = LowAttrMask(left);
  const uint64_t right_mask = LowAttrMask(right);
  spec.left_key_cols.reserve(static_cast<size_t>(left.arity()));
  spec.right_key_cols.reserve(static_cast<size_t>(left.arity()));
  spec.right_carry_cols.reserve(static_cast<size_t>(right.arity()));
  for (int l = 0; l < left.arity(); ++l) {
    const AttrId a = left.attr(l);
    if (!InSchema(right, right_mask, a)) continue;
    spec.left_key_cols.push_back(l);
    spec.right_key_cols.push_back(right.IndexOf(a));
  }

  // Output schema: all of left's attrs, then right-only attrs.
  std::vector<AttrId> out_attrs;
  out_attrs.reserve(static_cast<size_t>(left.arity() + right.arity()) -
                    spec.right_key_cols.size());
  out_attrs.assign(left.attrs().begin(), left.attrs().end());
  for (int r = 0; r < right.arity(); ++r) {
    if (InSchema(left, left_mask, right.attr(r))) continue;
    spec.right_carry_cols.push_back(r);
    out_attrs.push_back(right.attr(r));
  }
  spec.out_schema = Schema(std::move(out_attrs));
  return spec;
}

ProjectSpec PlanProject(const Schema& input,
                        const std::vector<AttrId>& attrs) {
  ProjectSpec spec;
  spec.cols = ColumnIndices(input, attrs);
  spec.out_schema = Schema(attrs);
  return spec;
}

SemiJoinSpec PlanSemiJoin(const Schema& left, const Schema& right) {
  SemiJoinSpec spec;
  const std::vector<AttrId> common = left.CommonAttrs(right);
  spec.left_key_cols = ColumnIndices(left, common);
  spec.right_key_cols = ColumnIndices(right, common);
  return spec;
}

ScanSpec PlanScan(int stored_arity, const std::vector<AttrId>& args) {
  PPR_CHECK(static_cast<int>(args.size()) == stored_arity);
  ScanSpec spec;
  std::vector<AttrId> distinct;
  for (size_t c = 0; c < args.size(); ++c) {
    int d = -1;
    for (size_t i = 0; i < distinct.size(); ++i) {
      if (distinct[i] == args[c]) {
        d = static_cast<int>(i);
        break;
      }
    }
    if (d < 0) {
      distinct.push_back(args[c]);
      spec.source_cols.push_back(static_cast<int>(c));
    } else {
      spec.equal_checks.emplace_back(static_cast<int>(c),
                                     spec.source_cols[static_cast<size_t>(d)]);
    }
  }
  spec.out_schema = Schema(std::move(distinct));
  return spec;
}

Relation HashJoin(const Relation& left, const Relation& right,
                  const JoinSpec& spec, ExecContext& ctx) {
  ctx.stats().num_joins++;
  SpanRecorder rec(ctx.tracer(), TraceOp::kJoin, ctx.trace_node());
  if (rec.enabled()) {
    rec.span().rows_in = left.size() + right.size();
    rec.span().arity_in = std::max(left.arity(), right.arity());
    rec.span().arity_out = static_cast<int32_t>(spec.out_schema.arity());
  }

  Relation out{spec.out_schema};
  if (left.empty() || right.empty()) {
    ctx.stats().NoteIntermediate(out.arity(), 0);
    return out;
  }

  ArenaScope scope(ctx.arena());

  // Build on the smaller side, probe with the larger.
  const bool build_left = left.size() <= right.size();
  const Relation& build = build_left ? left : right;
  const Relation& probe = build_left ? right : left;
  const std::vector<int>& build_key_cols =
      build_left ? spec.left_key_cols : spec.right_key_cols;
  const std::vector<int>& probe_key_cols =
      build_left ? spec.right_key_cols : spec.left_key_cols;

  const JoinIndex index(build, build_key_cols, ctx.arena());

  const int left_arity = left.arity();
  const int right_arity = right.arity();
  const int out_arity = out.arity();
  const int probe_arity = probe.arity();
  const int64_t probe_rows = probe.size();
  const Value* left_base = left.data();
  const Value* right_base = right.data();
  const Value* probe_base = probe.data();
  const int* carry = spec.right_carry_cols.data();
  const int num_carry = static_cast<int>(spec.right_carry_cols.size());

  // Exact output size via a counting probe pass: one hash + find per
  // probe row, reading the key in place through strided column views.
  // The pass keeps each row's group id, so the emit pass below reads its
  // matches without hashing again, and the exact reservation removes
  // both realloc copies and per-emit capacity checks from that loop.
  const Value* const* probe_cols =
      KeyColumns(probe, probe_key_cols, ctx.arena());
  int32_t* group = ctx.arena().AllocSpan<int32_t>(probe_rows).data();
  int64_t exact_rows = 0;
  index.FindGroups(probe_cols, probe_arity, 0, probe_rows,
                   [&](int64_t p, int64_t g) {
                     group[p] = static_cast<int32_t>(g);
                     exact_rows +=
                         static_cast<int64_t>(index.Matches(g).size());
                     return true;
                   });

  if (out_arity == 0) {
    // Nullary output (both inputs nullary): at most the one empty tuple.
    for (int64_t p = 0; p < probe_rows && !ctx.exhausted(); ++p) {
      for (int64_t b = 0; b < exact_rows; ++b) {
        out.AddTuple(std::span<const Value>{});
        if (!ctx.ChargeTuples(1)) break;
      }
    }
  } else {
    // A truncated run emits at most budget_headroom() rows before the
    // outer loop sees the exhausted latch, so the cursor never overruns.
    Value* cursor = out.GrowRows(ctx.ClampToHeadroom(exact_rows));
    int64_t emitted = 0;
    for (int64_t p = 0; p < probe_rows && !ctx.exhausted(); ++p) {
      const Value* probe_row = probe_base + p * probe_arity;
      const std::span<const int64_t> matches = index.Matches(group[p]);
      if (build_left) {
        // Probe side is the right input: its carry columns repeat across
        // every match of this probe row.
        for (int64_t b : matches) {
          const Value* left_row = left_base + b * left_arity;
          for (int c = 0; c < left_arity; ++c) cursor[c] = left_row[c];
          for (int c = 0; c < num_carry; ++c) {
            cursor[left_arity + c] = probe_row[carry[c]];
          }
          cursor += out_arity;
          ++emitted;
          if (!ctx.ChargeTuples(1)) break;
        }
      } else {
        for (int64_t b : matches) {
          const Value* right_row = right_base + b * right_arity;
          for (int c = 0; c < left_arity; ++c) cursor[c] = probe_row[c];
          for (int c = 0; c < num_carry; ++c) {
            cursor[left_arity + c] = right_row[carry[c]];
          }
          cursor += out_arity;
          ++emitted;
          if (!ctx.ChargeTuples(1)) break;
        }
      }
    }
    out.TruncateRows(emitted);
  }

  const Counter footprint =
      static_cast<Counter>(scope.bytes_allocated()) + out.byte_size();
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

Relation ProjectColumns(const Relation& input, const ProjectSpec& spec,
                        ExecContext& ctx) {
  ctx.stats().num_projections++;
  SpanRecorder rec(ctx.tracer(), TraceOp::kProject, ctx.trace_node());
  if (rec.enabled()) {
    rec.span().rows_in = input.size();
    rec.span().arity_in = input.arity();
    rec.span().arity_out = spec.out_schema.arity();
  }

  Relation out{spec.out_schema};
  if (spec.cols.empty()) {
    // Boolean projection: nonempty input -> the single empty tuple.
    if (!input.empty()) {
      out.AddTuple(std::span<const Value>{});
      ctx.ChargeTuples(1);
    }
    if (rec.enabled()) rec.span().rows_out = out.size();
    ctx.stats().NoteIntermediate(0, out.size());
    return out;
  }

  if (input.empty()) {
    // No scratch is allocated for an empty input, so peak_bytes stays an
    // honest 0 on runs against empty databases.
    ctx.stats().NoteIntermediate(out.arity(), 0);
    return out;
  }

  ArenaScope scope(ctx.arena());
  const int key_width = static_cast<int>(spec.cols.size());
  const int in_arity = input.arity();
  const int64_t in_rows = input.size();

  // The output rows are the index's key store: a truncated run stops
  // after budget_headroom() distinct keys, so min(input rows, headroom)
  // rows hold every key the loop can insert. Distinct keys land in
  // first-occurrence order exactly where the output wants them; the
  // reserved rows count toward the footprint until the truncate below.
  const int64_t reserve_rows = ctx.ClampToHeadroom(in_rows);
  FlatKeyIndex seen(reserve_rows, key_width, ctx.arena(),
                    out.GrowRows(reserve_rows));
  const Counter reserved_bytes = out.byte_size();

  // Keys are hashed and compared in place, through strided views.
  const Value* const* cols = KeyColumns(input, spec.cols, ctx.arena());
  int64_t probed = 0;
  if (!ctx.exhausted()) {
    probed = seen.InsertRows(cols, in_arity, 0, in_rows,
                             [&](int64_t, int64_t, bool inserted) {
                               return !inserted || ctx.ChargeTuples(1);
                             });
  }
  out.TruncateRows(seen.num_keys());

  const Counter footprint =
      static_cast<Counter>(scope.bytes_allocated()) + reserved_bytes;
  if (rec.enabled()) {
    rec.span().rows_out = out.size();
    rec.span().bytes = footprint;
    rec.span().ht_build_rows = out.size();  // distinct keys inserted
    rec.span().ht_probe_ops = probed;       // InsertOrFind per input row
  }
  ctx.stats().NotePeakBytes(footprint);
  ctx.stats().NoteIntermediate(out.arity(), out.size());
  return out;
}

Relation SemiJoinFiltered(const Relation& left, const Relation& right,
                          const SemiJoinSpec& spec, ExecContext& ctx) {
  ctx.stats().num_semijoins++;
  SpanRecorder rec(ctx.tracer(), TraceOp::kSemiJoin, ctx.trace_node());
  if (rec.enabled()) {
    rec.span().rows_in = left.size() + right.size();
    rec.span().arity_in = std::max(left.arity(), right.arity());
    rec.span().arity_out = left.arity();
  }

  Relation out{left.schema()};
  if (left.empty()) return out;
  const bool no_common = spec.left_key_cols.empty();
  if (no_common && right.empty()) {
    // No shared attributes: semijoin keeps everything iff right is nonempty.
    return out;
  }

  ArenaScope scope(ctx.arena());
  const int key_width = static_cast<int>(spec.right_key_cols.size());
  FlatKeyIndex keys(right.size(), key_width, ctx.arena());
  // Keys are hashed and compared in place, through strided views.
  const Value* const* right_cols =
      KeyColumns(right, spec.right_key_cols, ctx.arena());
  const Value* const* left_cols =
      KeyColumns(left, spec.left_key_cols, ctx.arena());

  const int64_t right_rows = right.size();
  keys.InsertRows(right_cols, right.arity(), 0, right_rows,
                  [](int64_t, int64_t, bool) { return true; });

  out.Reserve(CappedReserveRows(static_cast<double>(left.size()), ctx));
  const int left_arity = left.arity();
  const int64_t left_rows = left.size();
  const Value* left_base = left.data();
  // Without shared attributes the keys are nullary: right's one empty
  // key is found for every left row. `i` counts the rows probed and, on
  // a match, charged.
  int64_t i = 0;
  if (!ctx.exhausted()) {
    keys.FindRows(left_cols, left_arity, 0, left_rows,
                  [&](int64_t row, int64_t id) {
                    if (id >= 0) {
                      Emit(out, left_base + row * left_arity, left_arity);
                      if (!ctx.ChargeTuples(1)) return false;
                    }
                    ++i;
                    return true;
                  });
  }

  const Counter footprint =
      static_cast<Counter>(scope.bytes_allocated()) + out.byte_size();
  if (rec.enabled()) {
    rec.span().rows_out = out.size();
    rec.span().bytes = footprint;
    rec.span().ht_build_rows = right_rows;
    rec.span().ht_probe_ops = no_common ? 0 : i;
  }
  ctx.stats().NotePeakBytes(footprint);
  ctx.stats().NoteIntermediate(out.arity(), out.size());
  return out;
}

Relation ScanAtom(const Relation& stored, const ScanSpec& spec,
                  ExecContext& ctx) {
  SpanRecorder rec(ctx.tracer(), TraceOp::kScan, ctx.trace_node());
  if (rec.enabled()) {
    rec.span().rows_in = stored.size();
    rec.span().arity_in = stored.arity();
    rec.span().arity_out = spec.out_schema.arity();
  }

  Relation out{spec.out_schema};
  if (stored.empty()) {
    // Skip the tuple-assembly scratch: peak_bytes must report 0 when a
    // plan runs against an empty database.
    ctx.stats().NoteIntermediate(out.arity(), 0);
    return out;
  }
  out.Reserve(CappedReserveRows(static_cast<double>(stored.size()), ctx));

  ArenaScope scope(ctx.arena());
  const int in_arity = stored.arity();
  const int out_arity = out.arity();
  const int64_t in_rows = stored.size();
  const Value* base = stored.data();
  const int* source = spec.source_cols.data();
  Value* tuple = ctx.arena().AllocSpan<Value>(std::max(out_arity, 1)).data();

  for (int64_t i = 0; i < in_rows && !ctx.exhausted(); ++i) {
    const Value* row = base + i * in_arity;
    // Repeated attributes must agree with their first occurrence.
    bool keep = true;
    for (const auto& [col, first] : spec.equal_checks) {
      if (row[col] != row[first]) {
        keep = false;
        break;
      }
    }
    if (!keep) continue;
    for (int d = 0; d < out_arity; ++d) tuple[d] = row[source[d]];
    Emit(out, tuple, out_arity);
    if (!ctx.ChargeTuples(1)) break;
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

Relation NaturalJoin(const Relation& left, const Relation& right,
                     ExecContext& ctx) {
  return HashJoin(left, right, PlanJoin(left.schema(), right.schema()), ctx);
}

Relation Project(const Relation& input, const std::vector<AttrId>& attrs,
                 ExecContext& ctx) {
  return ProjectColumns(input, PlanProject(input.schema(), attrs), ctx);
}

Relation SemiJoin(const Relation& left, const Relation& right,
                  ExecContext& ctx) {
  return SemiJoinFiltered(left, right,
                          PlanSemiJoin(left.schema(), right.schema()), ctx);
}

Relation BindAtom(const Relation& stored, const std::vector<AttrId>& args,
                  ExecContext& ctx) {
  return ScanAtom(stored, PlanScan(stored.arity(), args), ctx);
}

}  // namespace ppr
