// Tests for the static-analysis layer: logical/physical verifiers accept
// every strategy plan and reject each corruption class; the width
// analyzer's static max-arity prediction matches executed statistics and
// its size bounds are sound; verification hooks gate compilation and
// surface verdicts in explain.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <set>
#include <string>
#include <unordered_set>
#include <vector>

#include "analysis/physical_verifier.h"
#include "analysis/plan_verifier.h"
#include "analysis/schedule.h"
#include "analysis/verifier.h"
#include "analysis/width_analyzer.h"
#include "benchlib/harness.h"
#include "common/rng.h"
#include "core/strategies.h"
#include "core/theory.h"
#include "encode/kcolor.h"
#include "encode/sat.h"
#include "exec/executor.h"
#include "exec/explain.h"
#include "exec/physical_plan.h"
#include "exec/verify_hook.h"
#include "graph/elimination.h"
#include "graph/generators.h"
#include "test_util.h"

namespace ppr {
namespace {

Database ThreeColorDb() {
  Database db;
  AddColoringRelations(3, &db);
  return db;
}

// Two-atom path query pi_{x0,x2} edge(x0,x1) |><| edge(x1,x2) with a
// hand-built plan, the fixture for targeted corruption tests.
ConjunctiveQuery PathQuery() {
  return ConjunctiveQuery({Atom{"edge", {0, 1}}, Atom{"edge", {1, 2}}},
                          {0, 2});
}

Plan PathPlan() {
  ConjunctiveQuery q = PathQuery();
  std::vector<std::unique_ptr<PlanNode>> children;
  children.push_back(MakeLeaf(q, 0));
  children.push_back(MakeLeaf(q, 1));
  return Plan(MakeJoin(std::move(children), {0, 2}));
}

TEST(LogicalVerifierTest, AcceptsAllStrategyPlans) {
  Database db = ThreeColorDb();
  Rng rng(7);
  for (int n : {6, 9, 12}) {
    ConjunctiveQuery q = KColorQuery(ConnectedRandomGraph(n, n + 4, rng));
    for (StrategyKind kind : AllStrategies()) {
      Plan plan = BuildStrategyPlan(kind, q, 3);
      EXPECT_TRUE(VerifyLogicalPlan(q, plan, &db).ok())
          << StrategyName(kind) << " on n=" << n;
    }
  }
}

TEST(LogicalVerifierTest, RejectsEmptyPlan) {
  ConjunctiveQuery q = PathQuery();
  Plan empty;
  EXPECT_FALSE(VerifyLogicalPlan(q, empty).ok());
}

TEST(LogicalVerifierTest, RejectsUnboundVariable) {
  ConjunctiveQuery q = PathQuery();
  Plan plan = PathPlan();
  // x9 appears in no atom: no scan can ever bind it.
  plan.mutable_root()->working.push_back(9);
  Status s = VerifyLogicalPlan(q, plan);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("unbound"), std::string::npos) << s.ToString();
}

TEST(LogicalVerifierTest, RejectsPrematureProjection) {
  ConjunctiveQuery q = PathQuery();
  Plan plan = PathPlan();
  // Leaf edge(x0,x1) drops x1, but atom edge(x1,x2) outside the leaf's
  // subtree still needs it. The parent's working label stays consistent
  // (the other leaf still projects x1), isolating the safety violation.
  PlanNode* leaf0 = plan.mutable_root()->children[0].get();
  leaf0->projected = {0};
  Status s = VerifyLogicalPlan(q, plan);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("unsafe projection"), std::string::npos)
      << s.ToString();
}

TEST(LogicalVerifierTest, RejectsProjectingOutFreeVariable) {
  ConjunctiveQuery q = PathQuery();
  Plan plan = PathPlan();
  PlanNode* root = plan.mutable_root();
  root->projected = {0};  // drops free variable x2
  EXPECT_FALSE(VerifyLogicalPlan(q, plan).ok());
}

TEST(LogicalVerifierTest, RejectsDuplicateLabelAttribute) {
  ConjunctiveQuery q = PathQuery();
  Plan plan = PathPlan();
  PlanNode* leaf0 = plan.mutable_root()->children[0].get();
  leaf0->working = {0, 1, 1};
  EXPECT_FALSE(VerifyLogicalPlan(q, plan).ok());
}

TEST(LogicalVerifierTest, RejectsMissingAndDuplicateAtoms) {
  ConjunctiveQuery q = PathQuery();
  Plan plan = PathPlan();
  // Both leaves claim atom 0: atom 1 is missing, atom 0 duplicated.
  plan.mutable_root()->children[1]->atom_index = 0;
  EXPECT_FALSE(VerifyLogicalPlan(q, plan).ok());

  Plan plan2 = PathPlan();
  plan2.mutable_root()->children[1]->atom_index = 5;  // out of range
  EXPECT_FALSE(VerifyLogicalPlan(q, plan2).ok());
}

TEST(LogicalVerifierTest, RejectsWrongRootSchema) {
  ConjunctiveQuery q = PathQuery();
  Plan plan = PathPlan();
  plan.mutable_root()->projected = {0, 1};  // target is {0, 2}
  EXPECT_FALSE(VerifyLogicalPlan(q, plan).ok());
}

TEST(LogicalVerifierTest, RejectsRelationAbsentFromCatalog) {
  ConjunctiveQuery q = PathQuery();
  Plan plan = PathPlan();
  Database empty_db;
  EXPECT_TRUE(VerifyLogicalPlan(q, plan).ok());  // no catalog: structural ok
  EXPECT_FALSE(VerifyLogicalPlan(q, plan, &empty_db).ok());

  // Relation present but with the wrong arity.
  Database bad_arity;
  bad_arity.Put("edge", Relation{Schema({0, 1, 2})});
  EXPECT_FALSE(VerifyLogicalPlan(q, plan, &bad_arity).ok());
}

TEST(ScheduleTest, LinearizesInBudgetChargeOrder) {
  ConjunctiveQuery q = PathQuery();
  Plan plan = PathPlan();
  OpSchedule schedule = BuildSchedule(q, plan);
  // scan, scan, join, project — the exact executor order.
  ASSERT_EQ(schedule.num_ops(), 4);
  EXPECT_EQ(schedule.ops[0].kind, OpKind::kScan);
  EXPECT_EQ(schedule.ops[1].kind, OpKind::kScan);
  EXPECT_EQ(schedule.ops[2].kind, OpKind::kJoin);
  EXPECT_EQ(schedule.ops[3].kind, OpKind::kProject);
  EXPECT_EQ(schedule.root_op, 3);
  EXPECT_TRUE(ValidateSchedule(q, schedule).ok());
  // Rendering names every operator.
  EXPECT_NE(schedule.ToString(q).find("join"), std::string::npos);
}

TEST(ScheduleTest, RejectsChargePointsOutOfOrder) {
  ConjunctiveQuery q = PathQuery();
  OpSchedule schedule = BuildSchedule(q, PathPlan());
  // Make the join consume an operator that has not charged yet.
  schedule.ops[2].right_input = 3;
  Status s = ValidateSchedule(q, schedule);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("budget"), std::string::npos) << s.ToString();
}

TEST(ScheduleTest, RejectsDoubleConsumption) {
  ConjunctiveQuery q = PathQuery();
  OpSchedule schedule = BuildSchedule(q, PathPlan());
  // The join reads scan #0 twice; scan #1 goes unconsumed.
  schedule.ops[2].right_input = 0;
  EXPECT_FALSE(ValidateSchedule(q, schedule).ok());
}

class PhysicalVerifierTest : public ::testing::Test {
 protected:
  PhysicalVerifierTest()
      : db_(ThreeColorDb()),
        query_(PentagonQuery()),
        plan_(BucketEliminationPlanMcs(query_, nullptr)),
        compiled_(std::move(
            PhysicalPlan::Compile(query_, plan_, db_).value())) {}

  Database db_;
  ConjunctiveQuery query_;
  Plan plan_;
  PhysicalPlan compiled_;

  // First internal physical node (joins nonempty), paired logical node.
  static std::pair<PhysicalNode*, const PlanNode*> FirstJoin(
      PhysicalNode& phys, const PlanNode* logical) {
    if (!phys.joins.empty()) return {&phys, logical};
    for (size_t i = 0; i < phys.children.size(); ++i) {
      auto found =
          FirstJoin(*phys.children[i], logical->children[i].get());
      if (found.first != nullptr) return found;
    }
    return {nullptr, nullptr};
  }

  static PhysicalNode* FirstProjection(PhysicalNode& phys) {
    if (phys.has_project) return &phys;
    for (auto& child : phys.children) {
      PhysicalNode* found = FirstProjection(*child);
      if (found != nullptr) return found;
    }
    return nullptr;
  }

  static PhysicalNode* FirstLeaf(PhysicalNode& phys) {
    if (phys.IsLeaf()) return &phys;
    return FirstLeaf(*phys.children.front());
  }
};

TEST_F(PhysicalVerifierTest, AcceptsCompiledPlan) {
  EXPECT_TRUE(VerifyPhysicalPlan(query_, plan_, db_, compiled_).ok());
}

TEST_F(PhysicalVerifierTest, RejectsKeyMapOutOfBounds) {
  auto [node, logical] = FirstJoin(compiled_.mutable_root(), plan_.root());
  ASSERT_NE(node, nullptr);
  node->joins[0].left_key_cols[0] = 99;
  Status s = VerifyPhysicalPlan(query_, plan_, db_, compiled_);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("key column out of bounds"), std::string::npos)
      << s.ToString();
}

TEST_F(PhysicalVerifierTest, RejectsDroppedJoinKey) {
  auto [node, logical] = FirstJoin(compiled_.mutable_root(), plan_.root());
  ASSERT_NE(node, nullptr);
  ASSERT_FALSE(node->joins[0].left_key_cols.empty());
  // Forgetting a key turns the join into a partial cross product.
  node->joins[0].left_key_cols.pop_back();
  node->joins[0].right_key_cols.pop_back();
  EXPECT_FALSE(VerifyPhysicalPlan(query_, plan_, db_, compiled_).ok());
}

TEST_F(PhysicalVerifierTest, RejectsMismatchedKeyMapLengths) {
  auto [node, logical] = FirstJoin(compiled_.mutable_root(), plan_.root());
  ASSERT_NE(node, nullptr);
  node->joins[0].right_key_cols.push_back(0);
  EXPECT_FALSE(VerifyPhysicalPlan(query_, plan_, db_, compiled_).ok());
}

TEST_F(PhysicalVerifierTest, RejectsMaskOutOfBounds) {
  PhysicalNode* node = FirstProjection(compiled_.mutable_root());
  ASSERT_NE(node, nullptr);
  node->project.cols[0] = 99;
  Status s = VerifyPhysicalPlan(query_, plan_, db_, compiled_);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("out of bounds"), std::string::npos)
      << s.ToString();
}

TEST_F(PhysicalVerifierTest, RejectsMaskSchemaMismatch) {
  PhysicalNode* node = FirstProjection(compiled_.mutable_root());
  ASSERT_NE(node, nullptr);
  // Keep the mask in bounds but break its attribute correspondence.
  node->project.out_schema = Schema({41});
  EXPECT_FALSE(VerifyPhysicalPlan(query_, plan_, db_, compiled_).ok());
}

TEST_F(PhysicalVerifierTest, RejectsDroppedProjection) {
  PhysicalNode* node = FirstProjection(compiled_.mutable_root());
  ASSERT_NE(node, nullptr);
  node->has_project = false;
  node->output_schema = node->project.out_schema;
  EXPECT_FALSE(VerifyPhysicalPlan(query_, plan_, db_, compiled_).ok());
}

TEST_F(PhysicalVerifierTest, RejectsForeignStoredRelation) {
  db_.Put("other", ColoringEdgeRelation(3));
  PhysicalNode* leaf = FirstLeaf(compiled_.mutable_root());
  leaf->stored = *db_.Get("other");
  Status s = VerifyPhysicalPlan(query_, plan_, db_, compiled_);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("catalog"), std::string::npos) << s.ToString();
}

TEST(WidthAnalyzerTest, PredictionMatchesExecutedArity) {
  Database db = ThreeColorDb();
  Rng rng(11);
  for (int n : {6, 8, 10, 12}) {
    ConjunctiveQuery q = KColorQuery(ConnectedRandomGraph(n, n + 5, rng));
    for (StrategyKind kind : AllStrategies()) {
      Plan plan = BuildStrategyPlan(kind, q, 5);
      StaticAnalysis analysis = AnalyzePlan(q, plan, db);
      ASSERT_TRUE(analysis.status.ok());
      ExecutionResult run = ExecutePlan(q, plan, db);
      ASSERT_TRUE(run.status.ok());
      EXPECT_EQ(analysis.max_intermediate_arity,
                run.stats.max_intermediate_arity)
          << StrategyName(kind) << " on n=" << n;
      EXPECT_EQ(analysis.max_intermediate_arity, plan.Width());
      // Size bounds are sound.
      EXPECT_LE(static_cast<double>(run.stats.max_intermediate_rows),
                analysis.max_intermediate_rows_bound);
      EXPECT_LE(static_cast<double>(run.stats.tuples_produced),
                analysis.tuples_produced_bound);
    }
  }
}

TEST(WidthAnalyzerTest, PredictionMatchesOnSatQueries) {
  Database db;
  AddSatRelations(3, &db);
  Rng rng(23);
  for (int trial = 0; trial < 6; ++trial) {
    Cnf cnf = RandomKSat(8, 12, 3, rng);
    ConjunctiveQuery q = trial % 2 == 0
                             ? SatQuery(cnf)
                             : SatQueryNonBoolean(cnf, 0.2, rng);
    for (StrategyKind kind : AllStrategies()) {
      Plan plan = BuildStrategyPlan(kind, q, trial);
      StaticAnalysis analysis = AnalyzePlan(q, plan, db);
      ASSERT_TRUE(analysis.status.ok());
      ExecutionResult run = ExecutePlan(q, plan, db);
      ASSERT_TRUE(run.status.ok());
      EXPECT_EQ(analysis.max_intermediate_arity,
                run.stats.max_intermediate_arity)
          << StrategyName(kind) << " trial " << trial;
      EXPECT_LE(static_cast<double>(run.stats.max_intermediate_rows),
                analysis.max_intermediate_rows_bound);
      EXPECT_LE(static_cast<double>(run.stats.tuples_produced),
                analysis.tuples_produced_bound);
    }
  }
}

TEST(WidthAnalyzerTest, SufficientBudgetNeverExhausts) {
  // tuples_produced_bound is a static sufficient budget: running with a
  // budget above it must not time out.
  Database db = ThreeColorDb();
  ConjunctiveQuery q = KColorQuery(Ladder(4));
  Plan plan = StraightforwardPlan(q);
  StaticAnalysis analysis = AnalyzePlan(q, plan, db);
  ASSERT_TRUE(analysis.status.ok());
  ASSERT_LT(analysis.tuples_produced_bound, 1e15);
  const Counter budget =
      static_cast<Counter>(analysis.tuples_produced_bound) + 1;
  EXPECT_TRUE(ExecutePlan(q, plan, db, budget).status.ok());
}

// Test-only reference analyzer: the straightforward form of AnalyzePlan's
// bounds — statistics recomputed per atom, each operator's atoms below as
// its own concatenated vector, covers over a std::set — the oracle the
// optimized analyzer must match bit for bit. Requires a valid plan.
StaticAnalysis ReferenceAnalyze(const ConjunctiveQuery& query,
                                const Plan& plan, const Database& db) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const OpSchedule schedule = BuildSchedule(query, plan);
  PPR_CHECK(ValidateSchedule(query, schedule).ok());

  std::vector<double> atom_rows;
  std::vector<bool> atom_dup_free;
  std::vector<std::vector<AttrId>> atom_attrs;
  AttrId max_attr = -1;
  for (const Atom& atom : query.atoms()) {
    for (AttrId a : atom.args) max_attr = std::max(max_attr, a);
  }
  std::vector<double> attr_domain(static_cast<size_t>(max_attr + 1), kInf);
  for (const Atom& atom : query.atoms()) {
    const Relation& rel = **db.Get(atom.relation);
    atom_rows.push_back(static_cast<double>(rel.size()));
    std::set<std::vector<Value>> rows;
    for (int64_t i = 0; i < rel.size(); ++i) {
      rows.emplace(rel.row(i).begin(), rel.row(i).end());
    }
    atom_dup_free.push_back(static_cast<int64_t>(rows.size()) == rel.size());
    std::vector<AttrId> attrs = atom.DistinctAttrs();
    std::sort(attrs.begin(), attrs.end());
    atom_attrs.push_back(std::move(attrs));
    for (size_t c = 0; c < atom.args.size(); ++c) {
      std::unordered_set<Value> values;
      for (int64_t i = 0; i < rel.size(); ++i) {
        values.insert(rel.at(i, static_cast<int>(c)));
      }
      double& dom = attr_domain[static_cast<size_t>(atom.args[c])];
      dom = std::min(dom, static_cast<double>(values.size()));
    }
  }
  const auto cover = [&](const std::vector<AttrId>& out,
                         const std::vector<int>& atoms) {
    std::set<AttrId> remaining(out.begin(), out.end());
    double bound = 1.0;
    while (!remaining.empty()) {
      int best = -1;
      int best_covered = 0;
      for (int ai : atoms) {
        int covered = 0;
        for (AttrId a : atom_attrs[static_cast<size_t>(ai)]) {
          covered += remaining.count(a) > 0 ? 1 : 0;
        }
        if (covered > best_covered ||
            (covered == best_covered && covered > 0 &&
             atom_rows[static_cast<size_t>(ai)] <
                 atom_rows[static_cast<size_t>(best)])) {
          best = ai;
          best_covered = covered;
        }
      }
      if (best < 0) return kInf;
      bound *= atom_rows[static_cast<size_t>(best)];
      for (AttrId a : atom_attrs[static_cast<size_t>(best)]) {
        remaining.erase(a);
      }
    }
    return bound;
  };
  const auto domain_cap = [&](const std::vector<AttrId>& attrs) {
    double cap = 1.0;
    for (AttrId a : attrs) cap *= attr_domain[static_cast<size_t>(a)];
    return cap;
  };

  StaticAnalysis analysis;
  const size_t n = static_cast<size_t>(schedule.num_ops());
  std::vector<double> bounds(n, 0.0);
  std::vector<bool> dup_free(n, false);
  std::vector<std::vector<int>> atoms_below(n);
  for (size_t i = 0; i < n; ++i) {
    const ScheduledOp& op = schedule.ops[i];
    const size_t li = static_cast<size_t>(op.left_input);
    const size_t ri = static_cast<size_t>(op.right_input);
    double bound = kInf;
    switch (op.kind) {
      case OpKind::kScan:
        atoms_below[i] = {op.atom_index};
        dup_free[i] = atom_dup_free[static_cast<size_t>(op.atom_index)];
        bound = atom_rows[static_cast<size_t>(op.atom_index)];
        if (dup_free[i]) bound = std::min(bound, domain_cap(op.out_attrs));
        break;
      case OpKind::kJoin:
        atoms_below[i] = atoms_below[li];
        atoms_below[i].insert(atoms_below[i].end(), atoms_below[ri].begin(),
                              atoms_below[ri].end());
        dup_free[i] = dup_free[li] && dup_free[ri];
        bound = bounds[li] * bounds[ri];
        if (dup_free[i]) {
          bound = std::min(bound, cover(op.out_attrs, atoms_below[i]));
          bound = std::min(bound, domain_cap(op.out_attrs));
        }
        break;
      case OpKind::kProject:
        atoms_below[i] = atoms_below[li];
        dup_free[i] = true;
        bound = std::min(bounds[li], cover(op.out_attrs, atoms_below[i]));
        bound = std::min(bound, domain_cap(op.out_attrs));
        break;
    }
    bounds[i] = bound;
    analysis.per_op.push_back(OpBound{op.arity(), bound});
    analysis.max_intermediate_arity =
        std::max(analysis.max_intermediate_arity, op.arity());
    analysis.max_intermediate_rows_bound =
        std::max(analysis.max_intermediate_rows_bound, bound);
    analysis.tuples_produced_bound += bound;
  }
  return analysis;
}

uint64_t Bits(double d) { return std::bit_cast<uint64_t>(d); }

// AnalyzePlan equals ReferenceAnalyze bit for bit on `plan`.
void ExpectSameBounds(const ConjunctiveQuery& q, const Plan& plan,
                      const Database& db) {
  const StaticAnalysis got = AnalyzePlan(q, plan, db);
  ASSERT_TRUE(got.status.ok()) << got.status.ToString();
  const StaticAnalysis want = ReferenceAnalyze(q, plan, db);
  ASSERT_EQ(got.per_op.size(), want.per_op.size());
  for (size_t i = 0; i < want.per_op.size(); ++i) {
    EXPECT_EQ(got.per_op[i].arity, want.per_op[i].arity) << "op " << i;
    EXPECT_EQ(Bits(got.per_op[i].size_bound), Bits(want.per_op[i].size_bound))
        << "op " << i << ": " << got.per_op[i].size_bound << " vs "
        << want.per_op[i].size_bound;
  }
  EXPECT_EQ(Bits(got.max_intermediate_rows_bound),
            Bits(want.max_intermediate_rows_bound));
  EXPECT_EQ(Bits(got.tuples_produced_bound), Bits(want.tuples_produced_bound));
  EXPECT_EQ(got.max_intermediate_arity, want.max_intermediate_arity);
}

// ExpectSameBounds under every strategy's plan for `q`.
void ExpectMatchesReference(const ConjunctiveQuery& q, const Database& db,
                            int seed) {
  for (StrategyKind kind : AllStrategies()) {
    SCOPED_TRACE(StrategyName(kind));
    ExpectSameBounds(q, BuildStrategyPlan(kind, q, seed), db);
  }
}

Relation BinaryRelation(std::initializer_list<std::pair<Value, Value>> rows) {
  Relation rel{Schema({0, 1})};
  for (const auto& [a, b] : rows) rel.AddTuple({a, b});
  return rel;
}

TEST(WidthAnalyzerTest, MatchesReferenceAnalyzer) {
  Rng rng(29);
  {
    SCOPED_TRACE("3-COLOR");
    const Database db = ThreeColorDb();
    for (int n : {6, 9, 12}) {
      const Graph g = ConnectedRandomGraph(n, n + 5, rng);
      ExpectMatchesReference(KColorQuery(g), db, n);
      ExpectMatchesReference(KColorQueryNonBoolean(g, 0.2, rng), db, n);
    }
  }
  {
    SCOPED_TRACE("3-SAT");
    Database db;
    AddSatRelations(3, &db);
    for (int trial = 0; trial < 4; ++trial) {
      const Cnf cnf = RandomKSat(8, 12, 3, rng);
      ExpectMatchesReference(SatQuery(cnf), db, trial);
      ExpectMatchesReference(SatQueryNonBoolean(cnf, 0.2, rng), db, trial);
    }
  }
  {
    SCOPED_TRACE("duplicate rows");
    Relation edge = ColoringEdgeRelation(3);
    edge.AddTuple({1, 2});
    Database db;
    db.Put(kEdgeRelationName, std::move(edge));
    const Graph g = ConnectedRandomGraph(9, 14, rng);
    ExpectMatchesReference(KColorQuery(g), db, 3);
    ExpectMatchesReference(KColorQueryNonBoolean(g, 0.3, rng), db, 3);
  }
  {
    // Two relations with different sizes, domains and duplicate-freeness
    // read by alternating atoms: statistics shared per relation must
    // never cross between them.
    SCOPED_TRACE("interleaved relations");
    Database db;
    db.Put("r", ColoringEdgeRelation(3));
    db.Put("s", BinaryRelation({{1, 1}, {1, 2}, {1, 3}, {2, 1}, {2, 1}}));
    db.Put("t", BinaryRelation({{1, 2}, {2, 3}, {3, 4}, {4, 1}}));
    std::vector<Atom> atoms;
    const char* names[] = {"r", "t", "r", "s", "t", "r", "t", "s"};
    for (int i = 0; i < 8; ++i) {
      atoms.push_back(Atom{names[i], {i, (i + 1) % 8}});
    }
    atoms.push_back(Atom{"t", {0, 4}});
    atoms.push_back(Atom{"r", {2, 6}});
    ExpectMatchesReference(ConjunctiveQuery(atoms, {}), db, 1);
    ExpectMatchesReference(ConjunctiveQuery(atoms, {0, 3, 5}), db, 2);
    // An atom wider than its stored relation is refused, not read past
    // the relation's columns.
    const ConjunctiveQuery wide({Atom{"r", {0, 1, 2}}}, {});
    EXPECT_EQ(AnalyzePlan(wide, StraightforwardPlan(wide), db).status.code(),
              StatusCode::kInvalidArgument);
  }
  {
    // Equal-size atoms: a and b tie on coverage and size. Covering
    // {x0,x1,x2} with a first (schedule order) leaves x2 to the 2-row c,
    // 4 * 2; b first would leave x0 to a, 4 * 4, since d is larger.
    SCOPED_TRACE("greedy ties");
    Database db;
    db.Put("a", BinaryRelation({{1, 1}, {2, 2}, {3, 3}, {4, 4}}));
    db.Put("b", BinaryRelation({{1, 1}, {2, 2}, {3, 3}, {4, 4}}));
    db.Put("c", BinaryRelation({{1, 1}, {2, 2}}));
    db.Put("d", BinaryRelation({{1, 1}, {1, 2}, {1, 3}, {2, 1}, {2, 2},
                                {2, 3}, {3, 1}, {3, 2}, {3, 3}}));
    const ConjunctiveQuery q({Atom{"a", {0, 1}}, Atom{"b", {1, 2}},
                              Atom{"c", {2, 3}}, Atom{"d", {0, 4}}},
                             {0, 1, 2});
    std::vector<std::unique_ptr<PlanNode>> leaves;
    for (int i = 0; i < 4; ++i) leaves.push_back(MakeLeaf(q, i));
    const Plan plan(MakeJoin(std::move(leaves), {0, 1, 2}));
    ExpectSameBounds(q, plan, db);
    const StaticAnalysis analysis = AnalyzePlan(q, plan, db);
    ASSERT_EQ(analysis.per_op.size(), 8u);
    EXPECT_EQ(analysis.per_op.back().size_bound, 8.0);
    ExpectMatchesReference(q, db, 1);
  }
}

TEST(WidthAnalyzerTest, CrossCheckAcceptsStrategiesAndTracksTheory) {
  Database db = ThreeColorDb();
  Rng rng(3);
  ConjunctiveQuery q = KColorQuery(ConnectedRandomGraph(9, 14, rng));
  for (StrategyKind kind : AllStrategies()) {
    Plan plan = BuildStrategyPlan(kind, q, 1);
    EXPECT_TRUE(CrossCheckWidth(q, plan).ok()) << StrategyName(kind);
  }
}

TEST(WidthAnalyzerTest, WidthGuaranteeFromDecomposition) {
  // Lemma 3: a plan built from a decomposition of width k has join width
  // <= k + 1, and the analyzer proves it statically.
  Rng rng(17);
  ConjunctiveQuery q = KColorQuery(ConnectedRandomGraph(10, 16, rng));
  const Graph join_graph = BuildJoinGraph(q);
  EliminationOrder order = McsEliminationOrder(join_graph, {}, nullptr);
  Plan plan = TreewidthPlan(q, order);
  const int k = InducedWidth(join_graph, order);
  EXPECT_TRUE(CheckWidthGuarantee(q, plan, k + 1).ok());
  // An impossible claim is refuted.
  EXPECT_FALSE(CheckWidthGuarantee(q, plan, 1).ok());
}

TEST(VerifierFacadeTest, VerdictAggregatesAndRenders) {
  Database db = ThreeColorDb();
  ConjunctiveQuery q = PentagonQuery();
  Plan plan = EarlyProjectionPlan(q);
  Result<PhysicalPlan> compiled = PhysicalPlan::Compile(q, plan, db);
  ASSERT_TRUE(compiled.ok());
  PlanVerdict verdict = VerifyCompiledPlan(q, plan, db, *compiled);
  EXPECT_TRUE(verdict.ok()) << verdict.ToString();
  EXPECT_TRUE(verdict.FirstError().ok());
  EXPECT_NE(verdict.ToString().find("max_intermediate_arity"),
            std::string::npos);

  Plan corrupt = PathPlan();
  PlanVerdict bad = VerifyPlan(PathQuery(), corrupt, Database());
  EXPECT_FALSE(bad.ok());
  EXPECT_FALSE(bad.FirstError().ok());
}

class HookTest : public ::testing::Test {
 protected:
  void TearDown() override { UninstallPlanVerifier(); }
};

TEST_F(HookTest, CompileRejectsCorruptPlansWhenInstalled) {
  Database db = ThreeColorDb();
  ConjunctiveQuery q = PathQuery();
  Plan corrupt = PathPlan();
  corrupt.mutable_root()->projected = {0, 1};  // root != target schema

  // Without the verifier the compiler happily lowers the corrupt tree.
  EXPECT_TRUE(PhysicalPlan::Compile(q, corrupt, db).ok());

  InstallPlanVerifier();
  EXPECT_FALSE(PhysicalPlan::Compile(q, corrupt, db).ok());
  // Valid plans still compile and execute.
  Plan plan = PathPlan();
  Result<PhysicalPlan> compiled = PhysicalPlan::Compile(q, plan, db);
  ASSERT_TRUE(compiled.ok());
  EXPECT_TRUE(compiled->Execute().status.ok());

  // The flag gates the hook without uninstalling it.
  EnablePlanVerification(false);
  EXPECT_TRUE(PhysicalPlan::Compile(q, corrupt, db).ok());
}

TEST_F(HookTest, ExplainSurfacesVerdict) {
  Database db = ThreeColorDb();
  ConjunctiveQuery q = PentagonQuery();
  InstallPlanVerifier();
  ExplainResult good = ExplainPlan(q, BucketEliminationPlanMcs(q, nullptr),
                                   db, 3.0);
  ASSERT_TRUE(good.status.ok());
  EXPECT_EQ(good.verifier_verdict, "OK");
  EXPECT_NE(good.ToString().find("verifier: OK"), std::string::npos);

  Plan corrupt = StraightforwardPlan(q);
  corrupt.mutable_root()->working.push_back(40);  // unbound attribute
  ExplainResult bad = ExplainPlan(q, corrupt, db, 3.0);
  EXPECT_FALSE(bad.status.ok());
  EXPECT_NE(bad.verifier_verdict, "OK");
  EXPECT_FALSE(bad.verifier_verdict.empty());
  EXPECT_TRUE(bad.nodes.empty());  // rejected plans are never executed
}

TEST(PeakBytesRegressionTest, EmptyDatabaseReportsZeroPeakBytes) {
  // Regression: scans and projections used to charge their fixed arena
  // scratch (key/tuple buffers) even when the input was empty, so a run
  // against an empty database reported a small nonzero peak_bytes.
  Database db;
  db.Put("edge", Relation{Schema({0, 1})});  // present but empty
  ConjunctiveQuery q = PentagonQuery();
  for (StrategyKind kind : AllStrategies()) {
    Plan plan = BuildStrategyPlan(kind, q, 1);
    Result<PhysicalPlan> compiled = PhysicalPlan::Compile(q, plan, db);
    ASSERT_TRUE(compiled.ok());
    ExecutionResult run = compiled->Execute();
    ASSERT_TRUE(run.status.ok());
    EXPECT_TRUE(run.output.empty());
    EXPECT_EQ(run.stats.peak_bytes, 0) << StrategyName(kind);
    // Still zero on re-execution of the compiled plan (no stale arena
    // high-water mark leaking through).
    EXPECT_EQ(compiled->Execute().stats.peak_bytes, 0) << StrategyName(kind);
  }
  ExplainResult explain = ExplainPlan(q, StraightforwardPlan(q), db, 3.0);
  ASSERT_TRUE(explain.status.ok());
  EXPECT_EQ(explain.stats.peak_bytes, 0);
  EXPECT_NE(explain.ToString().find("peak_bytes=0"), std::string::npos);
}

}  // namespace
}  // namespace ppr
