#include <gtest/gtest.h>

#include "common/rng.h"
#include "relational/exec_context.h"
#include "relational/ops.h"

namespace ppr {
namespace {

Relation R(std::vector<AttrId> attrs,
           std::initializer_list<std::vector<Value>> rows) {
  return Relation{Schema(std::move(attrs)), rows};
}

TEST(PlanJoinTest, KeysInLeftOrderCarriesInRightOrder) {
  const JoinSpec spec = PlanJoin(Schema({5, 1, 3, 7}), Schema({3, 9, 5, 2}));
  // Shared attributes 5 and 3, in the left schema's column order.
  EXPECT_EQ(spec.left_key_cols, (std::vector<int>{0, 2}));
  EXPECT_EQ(spec.right_key_cols, (std::vector<int>{2, 0}));
  EXPECT_EQ(spec.right_carry_cols, (std::vector<int>{1, 3}));
  EXPECT_EQ(spec.out_schema, Schema({5, 1, 3, 7, 9, 2}));

  const JoinSpec disjoint = PlanJoin(Schema({0, 1}), Schema({2}));
  EXPECT_TRUE(disjoint.left_key_cols.empty());
  EXPECT_TRUE(disjoint.right_key_cols.empty());
  EXPECT_EQ(disjoint.right_carry_cols, (std::vector<int>{0}));
  EXPECT_EQ(disjoint.out_schema, Schema({0, 1, 2}));

  const JoinSpec covered = PlanJoin(Schema({4, 6}), Schema({6, 4}));
  EXPECT_EQ(covered.left_key_cols, (std::vector<int>{0, 1}));
  EXPECT_EQ(covered.right_key_cols, (std::vector<int>{1, 0}));
  EXPECT_TRUE(covered.right_carry_cols.empty());
  EXPECT_EQ(covered.out_schema, Schema({4, 6}));
}

TEST(NaturalJoinTest, JoinsOnSharedAttr) {
  ExecContext ctx;
  Relation left = R({0, 1}, {{1, 2}, {3, 4}});
  Relation right = R({1, 2}, {{2, 9}, {2, 8}, {5, 7}});
  Relation out = NaturalJoin(left, right, ctx);
  EXPECT_TRUE(out.schema().SameAttrSet(Schema({0, 1, 2})));
  EXPECT_EQ(out.size(), 2);
  Relation expected = R({0, 1, 2}, {{1, 2, 9}, {1, 2, 8}});
  EXPECT_TRUE(out.SetEquals(expected));
}

TEST(NaturalJoinTest, NoSharedAttrsIsCartesianProduct) {
  ExecContext ctx;
  Relation left = R({0}, {{1}, {2}});
  Relation right = R({1}, {{7}, {8}, {9}});
  Relation out = NaturalJoin(left, right, ctx);
  EXPECT_EQ(out.size(), 6);
}

TEST(NaturalJoinTest, EmptyInputGivesEmptyOutput) {
  ExecContext ctx;
  Relation left = R({0, 1}, {});
  Relation right = R({1, 2}, {{1, 2}});
  EXPECT_TRUE(NaturalJoin(left, right, ctx).empty());
  EXPECT_TRUE(NaturalJoin(right, left, ctx).empty());
}

TEST(NaturalJoinTest, IsCommutativeUpToColumnOrder) {
  ExecContext ctx;
  Rng rng(42);
  // Random relations over overlapping schemas.
  Relation a{Schema({0, 1, 2})};
  Relation b{Schema({1, 2, 3})};
  for (int i = 0; i < 30; ++i) {
    a.AddTuple({rng.NextInt(0, 3), rng.NextInt(0, 3), rng.NextInt(0, 3)});
    b.AddTuple({rng.NextInt(0, 3), rng.NextInt(0, 3), rng.NextInt(0, 3)});
  }
  a.DeduplicateInPlace();
  b.DeduplicateInPlace();
  Relation ab = NaturalJoin(a, b, ctx);
  Relation ba = NaturalJoin(b, a, ctx);
  EXPECT_TRUE(ab.SetEquals(ba));
}

TEST(NaturalJoinTest, IsAssociativeUpToColumnOrder) {
  ExecContext ctx;
  Rng rng(43);
  Relation a{Schema({0, 1})};
  Relation b{Schema({1, 2})};
  Relation c{Schema({2, 0})};
  for (int i = 0; i < 20; ++i) {
    a.AddTuple({rng.NextInt(0, 2), rng.NextInt(0, 2)});
    b.AddTuple({rng.NextInt(0, 2), rng.NextInt(0, 2)});
    c.AddTuple({rng.NextInt(0, 2), rng.NextInt(0, 2)});
  }
  a.DeduplicateInPlace();
  b.DeduplicateInPlace();
  c.DeduplicateInPlace();
  Relation left = NaturalJoin(NaturalJoin(a, b, ctx), c, ctx);
  Relation right = NaturalJoin(a, NaturalJoin(b, c, ctx), ctx);
  EXPECT_TRUE(left.SetEquals(right));
}

TEST(NaturalJoinTest, FullOverlapActsAsIntersection) {
  ExecContext ctx;
  Relation a = R({0, 1}, {{1, 2}, {3, 4}, {5, 6}});
  Relation b = R({0, 1}, {{3, 4}, {5, 6}, {7, 8}});
  Relation out = NaturalJoin(a, b, ctx);
  EXPECT_TRUE(out.SetEquals(R({0, 1}, {{3, 4}, {5, 6}})));
}

TEST(NaturalJoinTest, UpdatesStats) {
  ExecContext ctx;
  Relation a = R({0}, {{1}, {2}});
  Relation b = R({1}, {{5}});
  NaturalJoin(a, b, ctx);
  EXPECT_EQ(ctx.stats().num_joins, 1);
  EXPECT_EQ(ctx.stats().tuples_produced, 2);
  EXPECT_EQ(ctx.stats().max_intermediate_arity, 2);
  EXPECT_EQ(ctx.stats().max_intermediate_rows, 2);
}

TEST(ProjectTest, DropsColumnsAndDeduplicates) {
  ExecContext ctx;
  Relation r = R({0, 1}, {{1, 9}, {1, 8}, {2, 7}});
  Relation out = Project(r, {0}, ctx);
  EXPECT_TRUE(out.SetEquals(R({0}, {{1}, {2}})));
  EXPECT_EQ(ctx.stats().num_projections, 1);
}

TEST(ProjectTest, ReordersColumns) {
  ExecContext ctx;
  Relation r = R({0, 1}, {{1, 9}});
  Relation out = Project(r, {1, 0}, ctx);
  EXPECT_EQ(out.schema().attrs(), (std::vector<AttrId>{1, 0}));
  EXPECT_EQ(out.at(0, 0), 9);
  EXPECT_EQ(out.at(0, 1), 1);
}

TEST(ProjectTest, EmptyAttrListGivesBooleanResult) {
  ExecContext ctx;
  Relation nonempty = R({0}, {{1}});
  Relation out = Project(nonempty, {}, ctx);
  EXPECT_EQ(out.arity(), 0);
  EXPECT_FALSE(out.empty());

  Relation empty = R({0}, {});
  EXPECT_TRUE(Project(empty, {}, ctx).empty());
}

TEST(SemiJoinTest, KeepsMatchingLeftRows) {
  ExecContext ctx;
  Relation left = R({0, 1}, {{1, 2}, {3, 4}, {5, 6}});
  Relation right = R({1, 2}, {{2, 0}, {6, 0}});
  Relation out = SemiJoin(left, right, ctx);
  EXPECT_TRUE(out.SetEquals(R({0, 1}, {{1, 2}, {5, 6}})));
}

TEST(SemiJoinTest, DisjointSchemasDependOnRightEmptiness) {
  ExecContext ctx;
  Relation left = R({0}, {{1}, {2}});
  Relation nonempty = R({1}, {{9}});
  Relation empty = R({1}, {});
  EXPECT_EQ(SemiJoin(left, nonempty, ctx).size(), 2);
  EXPECT_TRUE(SemiJoin(left, empty, ctx).empty());
}

TEST(BindAtomTest, RenamesColumns) {
  ExecContext ctx;
  Relation stored = R({0, 1}, {{1, 2}, {2, 1}});
  Relation out = BindAtom(stored, {5, 9}, ctx);
  EXPECT_EQ(out.schema().attrs(), (std::vector<AttrId>{5, 9}));
  EXPECT_EQ(out.size(), 2);
}

TEST(BindAtomTest, RepeatedAttrSelectsEqualColumns) {
  ExecContext ctx;
  Relation stored = R({0, 1}, {{1, 1}, {1, 2}, {2, 2}});
  Relation out = BindAtom(stored, {5, 5}, ctx);
  EXPECT_EQ(out.schema().attrs(), (std::vector<AttrId>{5}));
  EXPECT_TRUE(out.SetEquals(R({5}, {{1}, {2}})));
}

TEST(BindAtomTest, TripleRepeatAcrossThreeColumns) {
  ExecContext ctx;
  Relation stored = R({0, 1, 2}, {{1, 1, 1}, {1, 1, 2}, {2, 2, 2}});
  Relation out = BindAtom(stored, {3, 3, 3}, ctx);
  EXPECT_TRUE(out.SetEquals(R({3}, {{1}, {2}})));
}

TEST(BudgetTest, JoinTruncatesAndLatchesExhausted) {
  ExecContext ctx(/*tuple_budget=*/3);
  Relation a = R({0}, {{1}, {2}, {3}});
  Relation b = R({1}, {{7}, {8}});
  Relation out = NaturalJoin(a, b, ctx);  // would produce 6
  EXPECT_TRUE(ctx.exhausted());
  EXPECT_LE(out.size(), 4);  // stops shortly after the budget

  // Subsequent operators refuse to do real work.
  Relation more = NaturalJoin(a, b, ctx);
  EXPECT_TRUE(more.empty());
  EXPECT_TRUE(ctx.exhausted());
}

TEST(BudgetTest, ProjectRespectsBudget) {
  ExecContext ctx(/*tuple_budget=*/2);
  Relation r = R({0}, {{1}, {2}, {3}, {4}});
  Project(r, {0}, ctx);
  EXPECT_TRUE(ctx.exhausted());
}

TEST(BudgetTest, UnlimitedByDefault) {
  ExecContext ctx;
  Relation a = R({0}, {{1}, {2}, {3}});
  Relation b = R({1}, {{7}, {8}});
  NaturalJoin(a, b, ctx);
  EXPECT_FALSE(ctx.exhausted());
  EXPECT_EQ(ctx.stats().tuples_produced, 6);
}

TEST(BudgetTest, HeadroomUnlimitedWithoutBudget) {
  ExecContext ctx;
  EXPECT_EQ(ctx.budget_headroom(), kCounterMax);
}

TEST(BudgetTest, HeadroomShrinksThenLatchesToZero) {
  ExecContext ctx(/*tuple_budget=*/5);
  EXPECT_EQ(ctx.budget_headroom(), 6);  // budget + the one-past row
  EXPECT_TRUE(ctx.ChargeTuples(3));
  EXPECT_EQ(ctx.budget_headroom(), 3);
  EXPECT_FALSE(ctx.ChargeTuples(10));  // blows the budget
  EXPECT_TRUE(ctx.exhausted());
  // Latched: exhausted contexts report zero headroom even though
  // tuples_produced overshot the budget (no wrap-around, no padding).
  EXPECT_EQ(ctx.budget_headroom(), 0);
  EXPECT_FALSE(ctx.ChargeTuples(1));
  EXPECT_EQ(ctx.budget_headroom(), 0);
}

TEST(SemiJoinTest, CountsSemijoinsInStats) {
  ExecContext ctx;
  Relation left = R({0, 1}, {{1, 2}, {3, 4}});
  Relation right = R({1, 2}, {{2, 0}});
  EXPECT_EQ(ctx.stats().num_semijoins, 0);
  SemiJoin(left, right, ctx);
  EXPECT_EQ(ctx.stats().num_semijoins, 1);
  SemiJoin(left, right, ctx);
  EXPECT_EQ(ctx.stats().num_semijoins, 2);
  // Semijoins are counted separately from joins and projections.
  EXPECT_EQ(ctx.stats().num_joins, 0);
  EXPECT_EQ(ctx.stats().num_projections, 0);
}

}  // namespace
}  // namespace ppr
