// Property tests for the flat-hash operator kernels: on randomized
// relations (including empty, nullary, and repeated-attribute inputs) the
// hash-based operators, naive row-at-a-time references, and the
// sort-merge join must all agree up to set equality.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "common/arena.h"
#include "common/rng.h"
#include "relational/batch_ops.h"
#include "relational/column_batch.h"
#include "relational/exec_context.h"
#include "relational/ops.h"
#include "relational/sort_merge.h"

namespace ppr {
namespace {

// Random schema over a small attribute pool; arity 0 (nullary) included.
Schema RandomSchema(Rng& rng, int max_arity) {
  std::vector<AttrId> pool = {0, 1, 2, 3, 4, 5};
  const int arity = static_cast<int>(rng.NextBounded(
      static_cast<uint64_t>(max_arity + 1)));
  std::vector<AttrId> attrs;
  for (int i = 0; i < arity; ++i) {
    const size_t pick = static_cast<size_t>(rng.NextBounded(pool.size()));
    attrs.push_back(pool[pick]);
    pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(pick));
  }
  return Schema(std::move(attrs));
}

// Random relation; empty and single-row cases are common by construction.
// Nullary relations are nonempty with probability 1/2.
Relation RandomRelation(const Schema& schema, Rng& rng) {
  Relation rel{schema};
  if (schema.arity() == 0) {
    if (rng.NextBounded(2) == 0) rel.AddTuple(std::span<const Value>{});
    return rel;
  }
  const int64_t rows = static_cast<int64_t>(rng.NextBounded(26));
  std::vector<Value> tuple(static_cast<size_t>(schema.arity()));
  for (int64_t i = 0; i < rows; ++i) {
    for (auto& v : tuple) v = static_cast<Value>(1 + rng.NextBounded(4));
    rel.AddTuple(tuple);
  }
  return rel;
}

// Naive nested-loop natural join, mirroring the documented contract:
// left's attributes then right-only attributes.
Relation RefJoin(const Relation& left, const Relation& right) {
  const JoinSpec spec = PlanJoin(left.schema(), right.schema());
  Relation out{spec.out_schema};
  for (int64_t i = 0; i < left.size(); ++i) {
    for (int64_t j = 0; j < right.size(); ++j) {
      bool match = true;
      for (size_t k = 0; k < spec.left_key_cols.size(); ++k) {
        if (left.at(i, spec.left_key_cols[k]) !=
            right.at(j, spec.right_key_cols[k])) {
          match = false;
          break;
        }
      }
      if (!match) continue;
      std::vector<Value> tuple;
      for (int c = 0; c < left.arity(); ++c) tuple.push_back(left.at(i, c));
      for (int c : spec.right_carry_cols) tuple.push_back(right.at(j, c));
      out.AddTuple(tuple);
    }
  }
  return out;
}

// Naive distinct projection via an ordered set.
Relation RefProject(const Relation& input, const std::vector<AttrId>& attrs) {
  const ProjectSpec spec = PlanProject(input.schema(), attrs);
  std::set<std::vector<Value>> rows;
  for (int64_t i = 0; i < input.size(); ++i) {
    std::vector<Value> tuple;
    for (int c : spec.cols) tuple.push_back(input.at(i, c));
    rows.insert(std::move(tuple));
  }
  Relation out{spec.out_schema};
  for (const auto& row : rows) out.AddTuple(row);
  return out;
}

// Naive semijoin: keep left rows with at least one matching right row on
// the shared attributes (all right rows match when nothing is shared).
Relation RefSemiJoin(const Relation& left, const Relation& right) {
  const SemiJoinSpec spec = PlanSemiJoin(left.schema(), right.schema());
  Relation out{left.schema()};
  for (int64_t i = 0; i < left.size(); ++i) {
    bool any = false;
    for (int64_t j = 0; j < right.size() && !any; ++j) {
      bool match = true;
      for (size_t k = 0; k < spec.left_key_cols.size(); ++k) {
        if (left.at(i, spec.left_key_cols[k]) !=
            right.at(j, spec.right_key_cols[k])) {
          match = false;
          break;
        }
      }
      any = match;
    }
    if (any) out.AddTuple(left.row(i));
  }
  return out;
}

// Naive atom binding: positional attributes with repeated-attribute
// equality, projecting to first-occurrence order.
Relation RefBindAtom(const Relation& stored, const std::vector<AttrId>& args) {
  std::vector<AttrId> distinct;
  std::vector<int> first_col;
  for (size_t c = 0; c < args.size(); ++c) {
    if (std::find(distinct.begin(), distinct.end(), args[c]) ==
        distinct.end()) {
      distinct.push_back(args[c]);
      first_col.push_back(static_cast<int>(c));
    }
  }
  Relation out{Schema(distinct)};
  for (int64_t i = 0; i < stored.size(); ++i) {
    std::map<AttrId, Value> binding;
    bool consistent = true;
    for (size_t c = 0; c < args.size(); ++c) {
      const Value v = stored.at(i, static_cast<int>(c));
      auto [it, inserted] = binding.emplace(args[c], v);
      if (!inserted && it->second != v) {
        consistent = false;
        break;
      }
    }
    if (!consistent) continue;
    std::vector<Value> tuple;
    for (int c : first_col) tuple.push_back(stored.at(i, c));
    out.AddTuple(tuple);
  }
  return out;
}

TEST(FlatOpsPropertyTest, JoinAgreesWithReferenceAndSortMerge) {
  Rng rng(101);
  for (int trial = 0; trial < 300; ++trial) {
    const Relation left = RandomRelation(RandomSchema(rng, 3), rng);
    const Relation right = RandomRelation(RandomSchema(rng, 3), rng);
    const Relation expected = RefJoin(left, right);
    ExecContext hash_ctx;
    const Relation hash_out = NaturalJoin(left, right, hash_ctx);
    ExecContext sm_ctx;
    const Relation sm_out = SortMergeJoin(left, right, sm_ctx);
    ASSERT_TRUE(hash_out.SetEquals(expected))
        << "trial " << trial << "\nleft: " << left.ToString()
        << "right: " << right.ToString();
    ASSERT_TRUE(sm_out.SetEquals(expected)) << "trial " << trial;
    ASSERT_EQ(hash_out.size(), sm_out.size()) << "trial " << trial;
  }
}

TEST(FlatOpsPropertyTest, ProjectAgreesWithReference) {
  Rng rng(202);
  for (int trial = 0; trial < 300; ++trial) {
    const Relation input = RandomRelation(RandomSchema(rng, 4), rng);
    // Random subset of the schema, possibly empty (Boolean projection).
    std::vector<AttrId> keep;
    for (AttrId a : input.schema().attrs()) {
      if (rng.NextBounded(2) == 0) keep.push_back(a);
    }
    const Relation expected = RefProject(input, keep);
    ExecContext ctx;
    const Relation out = Project(input, keep, ctx);
    ASSERT_TRUE(out.SetEquals(expected))
        << "trial " << trial << "\ninput: " << input.ToString();
  }
}

TEST(FlatOpsPropertyTest, SemiJoinAgreesWithReference) {
  Rng rng(303);
  for (int trial = 0; trial < 300; ++trial) {
    const Relation left = RandomRelation(RandomSchema(rng, 3), rng);
    const Relation right = RandomRelation(RandomSchema(rng, 3), rng);
    const Relation expected = RefSemiJoin(left, right);
    ExecContext ctx;
    const Relation out = SemiJoin(left, right, ctx);
    ASSERT_TRUE(out.SetEquals(expected))
        << "trial " << trial << "\nleft: " << left.ToString()
        << "right: " << right.ToString();
  }
}

TEST(FlatOpsPropertyTest, BindAtomAgreesWithReference) {
  Rng rng(404);
  for (int trial = 0; trial < 300; ++trial) {
    const Schema stored_schema = RandomSchema(rng, 3);
    const Relation stored = RandomRelation(stored_schema, rng);
    // Random args with repeats (attribute ids disjoint from the pool so
    // renames are exercised too).
    std::vector<AttrId> args;
    for (int c = 0; c < stored.arity(); ++c) {
      args.push_back(static_cast<AttrId>(20 + rng.NextBounded(3)));
    }
    const Relation expected = RefBindAtom(stored, args);
    ExecContext ctx;
    const Relation out = BindAtom(stored, args, ctx);
    ASSERT_TRUE(out.SetEquals(expected))
        << "trial " << trial << "\nstored: " << stored.ToString();
  }
}

// Exact (row-order, not just set) equality: the columnar kernels promise
// byte-identical output to the row kernels.
void ExpectSameRows(const Relation& row, const Relation& columnar,
                    int trial) {
  ASSERT_EQ(row.arity(), columnar.arity()) << "trial " << trial;
  ASSERT_EQ(row.size(), columnar.size()) << "trial " << trial;
  for (int64_t i = 0; i < row.size(); ++i) {
    for (int c = 0; c < row.arity(); ++c) {
      ASSERT_EQ(row.at(i, c), columnar.at(i, c))
          << "trial " << trial << " row " << i << " col " << c;
    }
  }
}

// Every ExecStats field except peak_bytes must match the row kernel's:
// the columnar path accounts scratch differently by design (shared build
// plus per-morsel batches), but the work counters are the oracle.
void ExpectSameStatsExceptPeak(const ExecStats& row, const ExecStats& col,
                               int trial) {
  EXPECT_EQ(row.tuples_produced, col.tuples_produced) << "trial " << trial;
  EXPECT_EQ(row.num_joins, col.num_joins) << "trial " << trial;
  EXPECT_EQ(row.num_projections, col.num_projections) << "trial " << trial;
  EXPECT_EQ(row.num_semijoins, col.num_semijoins) << "trial " << trial;
  EXPECT_EQ(row.max_intermediate_arity, col.max_intermediate_arity)
      << "trial " << trial;
  EXPECT_EQ(row.max_intermediate_rows, col.max_intermediate_rows)
      << "trial " << trial;
}

// An inline MorselExec with tiny morsels, so 25-row random inputs still
// exercise multi-morsel partitioning and in-order merges.
MorselExec Morsels(int64_t rows) {
  MorselExec mx;
  mx.morsel_rows = rows;
  return mx;
}

// The columnar spec kernels with their specs derived from the input
// schemas, for the one-shot edge cases below.
struct SpecKernels {
  ExecContext& ctx;
  const MorselExec& mx;

  Relation Join(const Relation& left, const Relation& right) const {
    return HashJoinColumnar(left, right,
                            PlanJoin(left.schema(), right.schema()), ctx, mx);
  }
  Relation Project(const Relation& input,
                   const std::vector<AttrId>& attrs) const {
    return ProjectColumnsColumnar(input, PlanProject(input.schema(), attrs),
                                  ctx, mx);
  }
  Relation SemiJoin(const Relation& left, const Relation& right) const {
    return SemiJoinFilteredColumnar(
        left, right, PlanSemiJoin(left.schema(), right.schema()), ctx, mx);
  }
  Relation Bind(const Relation& stored,
                const std::vector<AttrId>& args) const {
    return ScanAtomColumnar(stored, PlanScan(stored.arity(), args), ctx, mx);
  }
};

TEST(FlatOpsPropertyTest, ColumnarJoinIsRowJoinExactly) {
  Rng rng(505);
  for (int trial = 0; trial < 200; ++trial) {
    const Relation left = RandomRelation(RandomSchema(rng, 3), rng);
    const Relation right = RandomRelation(RandomSchema(rng, 3), rng);
    ExecContext row_ctx;
    const Relation row_out = NaturalJoin(left, right, row_ctx);
    for (const int64_t morsel : {int64_t{1}, int64_t{3}, int64_t{1024}}) {
      ExecContext col_ctx;
      const Relation col_out =
          HashJoinColumnar(left, right,
                           PlanJoin(left.schema(), right.schema()), col_ctx,
                           Morsels(morsel));
      ExpectSameRows(row_out, col_out, trial);
      ExpectSameStatsExceptPeak(row_ctx.stats(), col_ctx.stats(), trial);
    }
  }
}

TEST(FlatOpsPropertyTest, ColumnarProjectIsRowProjectExactly) {
  Rng rng(606);
  for (int trial = 0; trial < 200; ++trial) {
    const Relation input = RandomRelation(RandomSchema(rng, 4), rng);
    std::vector<AttrId> keep;
    for (AttrId a : input.schema().attrs()) {
      if (rng.NextBounded(2) == 0) keep.push_back(a);
    }
    ExecContext row_ctx;
    const Relation row_out = Project(input, keep, row_ctx);
    for (const int64_t morsel : {int64_t{1}, int64_t{3}, int64_t{1024}}) {
      ExecContext col_ctx;
      const Relation col_out =
          ProjectColumnsColumnar(input, PlanProject(input.schema(), keep),
                                 col_ctx, Morsels(morsel));
      // Distinct-order preservation across morsel merges is part of the
      // contract, so the comparison is exact, not SetEquals.
      ExpectSameRows(row_out, col_out, trial);
      ExpectSameStatsExceptPeak(row_ctx.stats(), col_ctx.stats(), trial);
    }
  }
}

TEST(FlatOpsPropertyTest, ColumnarSemiJoinIsRowSemiJoinExactly) {
  Rng rng(707);
  for (int trial = 0; trial < 200; ++trial) {
    const Relation left = RandomRelation(RandomSchema(rng, 3), rng);
    const Relation right = RandomRelation(RandomSchema(rng, 3), rng);
    ExecContext row_ctx;
    const Relation row_out = SemiJoin(left, right, row_ctx);
    for (const int64_t morsel : {int64_t{1}, int64_t{3}, int64_t{1024}}) {
      ExecContext col_ctx;
      const Relation col_out =
          SemiJoinFilteredColumnar(left, right,
                                   PlanSemiJoin(left.schema(), right.schema()),
                                   col_ctx, Morsels(morsel));
      ExpectSameRows(row_out, col_out, trial);
      ExpectSameStatsExceptPeak(row_ctx.stats(), col_ctx.stats(), trial);
    }
  }
}

TEST(FlatOpsPropertyTest, ColumnarBindAtomIsRowBindAtomExactly) {
  Rng rng(808);
  for (int trial = 0; trial < 200; ++trial) {
    const Relation stored = RandomRelation(RandomSchema(rng, 3), rng);
    // Repeated attributes are the norm here: three ids over up-to-three
    // columns, so the scan's equality-check path runs constantly.
    std::vector<AttrId> args;
    for (int c = 0; c < stored.arity(); ++c) {
      args.push_back(static_cast<AttrId>(20 + rng.NextBounded(3)));
    }
    ExecContext row_ctx;
    const Relation row_out = BindAtom(stored, args, row_ctx);
    for (const int64_t morsel : {int64_t{1}, int64_t{3}, int64_t{1024}}) {
      ExecContext col_ctx;
      const Relation col_out =
          ScanAtomColumnar(stored, PlanScan(stored.arity(), args), col_ctx,
                           Morsels(morsel));
      ExpectSameRows(row_out, col_out, trial);
      ExpectSameStatsExceptPeak(row_ctx.stats(), col_ctx.stats(), trial);
    }
  }
}

TEST(FlatOpsPropertyTest, ColumnarEmptyAndSingleRowEdges) {
  const Schema ab{std::vector<AttrId>{0, 1}};
  const Schema bc{std::vector<AttrId>{1, 2}};
  Relation empty_ab{ab};
  Relation empty_bc{bc};
  Relation one_ab{ab};
  one_ab.AddTuple({1, 2});
  Relation one_bc{bc};
  one_bc.AddTuple({2, 3});

  for (const int64_t morsel : {int64_t{1}, int64_t{64}}) {
    const MorselExec mx = Morsels(morsel);
    ExecContext ctx;
    const SpecKernels k{ctx, mx};
    EXPECT_TRUE(k.Join(empty_ab, empty_bc).empty());
    EXPECT_TRUE(k.Join(one_ab, empty_bc).empty());
    EXPECT_TRUE(k.Join(empty_ab, one_bc).empty());
    const Relation joined = k.Join(one_ab, one_bc);
    ASSERT_EQ(joined.size(), 1);
    EXPECT_EQ(joined.at(0, 0), 1);
    EXPECT_EQ(joined.at(0, 1), 2);
    EXPECT_EQ(joined.at(0, 2), 3);

    EXPECT_TRUE(k.Project(empty_ab, {0}).empty());
    const Relation projected = k.Project(one_ab, {1});
    ASSERT_EQ(projected.size(), 1);
    EXPECT_EQ(projected.at(0, 0), 2);

    EXPECT_TRUE(k.SemiJoin(empty_ab, one_bc).empty());
    EXPECT_TRUE(k.SemiJoin(one_ab, empty_bc).empty());
    EXPECT_EQ(k.SemiJoin(one_ab, one_bc).size(), 1);

    EXPECT_TRUE(k.Bind(empty_ab, {7, 7}).empty());
    // Repeated attribute on a single row: 1 != 2, so the binding fails.
    EXPECT_TRUE(k.Bind(one_ab, {7, 7}).empty());
    const Relation bound = k.Bind(one_ab, {7, 8});
    ASSERT_EQ(bound.size(), 1);
  }
}

TEST(FlatOpsPropertyTest, ColumnarNullarySchemasDelegate) {
  const Schema nullary{std::vector<AttrId>{}};
  Relation empty_n{nullary};
  Relation full_n{nullary};
  full_n.AddTuple(std::span<const Value>{});
  Relation unary{Schema({3})};
  unary.AddTuple({7});
  unary.AddTuple({9});

  const MorselExec mx = Morsels(1);
  ExecContext ctx;
  const SpecKernels k{ctx, mx};
  EXPECT_TRUE(k.Join(full_n, full_n).SetEquals(full_n));
  EXPECT_TRUE(k.Join(full_n, empty_n).SetEquals(empty_n));
  EXPECT_TRUE(k.Join(unary, full_n).SetEquals(unary));
  EXPECT_TRUE(k.Join(full_n, unary).SetEquals(unary));
  EXPECT_TRUE(k.Join(unary, empty_n).empty());
  // Boolean projection: nonempty input yields the single empty tuple.
  const Relation truth = k.Project(unary, {});
  EXPECT_TRUE(truth.SetEquals(full_n));
  EXPECT_TRUE(k.Project(Relation{Schema({3})}, {}).empty());
  EXPECT_TRUE(k.SemiJoin(unary, full_n).SetEquals(unary));
  EXPECT_TRUE(k.SemiJoin(unary, empty_n).empty());
}

TEST(FlatOpsPropertyTest, ColumnBatchSelectionAllFalse) {
  ExecArena arena;
  ColumnBatch batch(2, 8, arena);
  const Value rows[] = {1, 2, 3, 4, 5, 6};  // three row-major (a, b) rows
  const int identity[] = {0, 1};
  batch.GatherRows(rows, 2, 0, 3, identity);
  ASSERT_EQ(batch.num_rows(), 3);
  ASSERT_EQ(batch.num_selected(), 3);  // gather resets to identity

  // Kill every row; the scatter must write nothing.
  batch.SetSelected(0);
  Value sink[6] = {-1, -1, -1, -1, -1, -1};
  batch.ScatterSelectedTo(sink);
  for (const Value v : sink) EXPECT_EQ(v, -1);

  // Select the last row only; a partial scatter of column 0 alone
  // writes exactly one value at stride 1.
  batch.selection()[0] = 2;
  batch.SetSelected(1);
  batch.ScatterSelectedTo(sink, 1);
  EXPECT_EQ(sink[0], 5);
  EXPECT_EQ(sink[1], -1);
}

TEST(FlatOpsPropertyTest, ColumnBatchEmitTupleAdapter) {
  ExecArena arena;
  ColumnBatch batch(3, 4, arena);
  const Value t0[] = {1, 2, 3};
  const Value t1[] = {4, 5, 6};
  batch.EmitTuple(t0);
  batch.EmitTuple(t1);
  ASSERT_EQ(batch.num_rows(), 2);
  ASSERT_EQ(batch.num_selected(), 2);
  Value out[6] = {};
  batch.ScatterSelectedTo(out);
  EXPECT_EQ(out[0], 1);
  EXPECT_EQ(out[1], 2);
  EXPECT_EQ(out[2], 3);
  EXPECT_EQ(out[3], 4);
  EXPECT_EQ(out[4], 5);
  EXPECT_EQ(out[5], 6);
}

TEST(FlatOpsPropertyTest, NullaryJoinCombinations) {
  const Schema nullary{std::vector<AttrId>{}};
  Relation empty_n{nullary};
  Relation full_n{nullary};
  full_n.AddTuple(std::span<const Value>{});
  Relation unary{Schema({3})};
  unary.AddTuple({7});
  unary.AddTuple({9});

  ExecContext ctx;
  EXPECT_TRUE(NaturalJoin(full_n, full_n, ctx).SetEquals(full_n));
  EXPECT_TRUE(NaturalJoin(full_n, empty_n, ctx).SetEquals(empty_n));
  EXPECT_TRUE(NaturalJoin(empty_n, empty_n, ctx).SetEquals(empty_n));
  EXPECT_TRUE(NaturalJoin(unary, full_n, ctx).SetEquals(unary));
  EXPECT_TRUE(NaturalJoin(full_n, unary, ctx).SetEquals(unary));
  EXPECT_TRUE(NaturalJoin(unary, empty_n, ctx).empty());
}

}  // namespace
}  // namespace ppr
