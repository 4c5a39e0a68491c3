#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>

#include "common/rng.h"
#include "analysis/verifier.h"
#include "benchlib/harness.h"
#include "core/strategies.h"
#include "encode/kcolor.h"
#include "encode/sat.h"
#include "exec/executor.h"
#include "exec/explain.h"
#include "exec/verify_hook.h"
#include "graph/generators.h"
#include "obs/trace.h"
#include "test_util.h"

namespace ppr {
namespace {

Database ThreeColorDb() {
  Database db;
  AddColoringRelations(3, &db);
  return db;
}

TEST(ExplainTest, LeafEstimatesAreExact) {
  // A single bound atom: 6 rows estimated and actual.
  Database db = ThreeColorDb();
  ConjunctiveQuery q({Atom{"edge", {0, 1}}}, {0, 1});
  ExplainResult r = ExplainPlan(q, StraightforwardPlan(q), db, 3.0);
  ASSERT_TRUE(r.status.ok());
  // Root (projection to {0,1}) + leaf.
  ASSERT_EQ(r.nodes.size(), 2u);
  EXPECT_EQ(r.nodes[1].label, "edge(x0, x1)");
  EXPECT_EQ(r.nodes[1].actual_rows, 6);
  EXPECT_DOUBLE_EQ(r.nodes[1].estimated_rows, 6.0);
}

TEST(ExplainTest, PentagonProfileMatchesDirectExecution) {
  Database db = ThreeColorDb();
  ConjunctiveQuery q = PentagonQuery();
  Plan plan = BucketEliminationPlanMcs(q, nullptr);
  ExplainResult r = ExplainPlan(q, plan, db, 3.0);
  ASSERT_TRUE(r.status.ok());

  ExecutionResult direct = ExecutePlan(q, plan, db);
  ASSERT_TRUE(direct.status.ok());
  // The root profile's actual rows equal the query answer size.
  EXPECT_EQ(r.nodes.front().actual_rows, direct.output.size());
  EXPECT_EQ(r.nodes.front().depth, 0);
  // One profile per plan node.
  EXPECT_EQ(r.nodes.size(), static_cast<size_t>(plan.NumNodes()));
}

TEST(ExplainTest, ToStringRendersTree) {
  Database db = ThreeColorDb();
  ConjunctiveQuery q = PentagonQuery();
  ExplainResult r = ExplainPlan(q, EarlyProjectionPlan(q), db, 3.0);
  ASSERT_TRUE(r.status.ok());
  const std::string text = r.ToString();
  EXPECT_NE(text.find("edge(x0, x1)"), std::string::npos);
  EXPECT_NE(text.find("est="), std::string::npos);
  EXPECT_NE(text.find("actual="), std::string::npos);
}

TEST(ExplainTest, EstimatesDriftOnCorrelatedQueries) {
  // The motivation for structural optimization: on correlated constraint
  // patterns (an uncolorable clique) the independence estimate is off by
  // a large factor — the true result is empty while the model predicts
  // rows.
  Database db = ThreeColorDb();
  ConjunctiveQuery q = KColorQuery(Complete(5));
  ExplainResult r = ExplainPlan(q, StraightforwardPlan(q), db, 3.0);
  ASSERT_TRUE(r.status.ok());
  EXPECT_EQ(r.nodes.front().actual_rows, 0);  // K5 is not 3-colorable
  EXPECT_GE(r.WorstEstimateRatio(), 5.0);
}

TEST(ExplainTest, WorstRatioIsOneWhenExact) {
  Database db = ThreeColorDb();
  ConjunctiveQuery q({Atom{"edge", {0, 1}}}, {0, 1});
  ExplainResult r = ExplainPlan(q, StraightforwardPlan(q), db, 3.0);
  EXPECT_DOUBLE_EQ(r.WorstEstimateRatio(), 1.0);
}

TEST(ExplainTest, BudgetExhaustionReported) {
  Database db = ThreeColorDb();
  ConjunctiveQuery q = KColorQuery(AugmentedCircularLadder(5));
  ExplainResult r = ExplainPlan(q, StraightforwardPlan(q), db, 3.0,
                                /*tuple_budget=*/500);
  EXPECT_EQ(r.status.code(), StatusCode::kResourceExhausted);
}

TEST(ExplainTest, InvalidInputsRejected) {
  Database db;
  ConjunctiveQuery q = PentagonQuery();
  ExplainResult r = ExplainPlan(q, StraightforwardPlan(q), db, 3.0);
  EXPECT_FALSE(r.status.ok());
  Plan empty;
  ExplainResult e = ExplainPlan(q, empty, ThreeColorDb(), 3.0);
  EXPECT_FALSE(e.status.ok());
}

TEST(ExplainTest, ActualsIdenticalAcrossStrategiesAtRoot) {
  Database db = ThreeColorDb();
  Rng rng(5);
  ConjunctiveQuery q = KColorQuery(ConnectedRandomGraph(8, 14, rng));
  int64_t expected = -1;
  for (StrategyKind kind :
       {StrategyKind::kStraightforward, StrategyKind::kEarlyProjection,
        StrategyKind::kBucketElimination}) {
    Plan plan = BuildStrategyPlan(kind, q, 1);
    ExplainResult r = ExplainPlan(q, plan, db, 3.0);
    ASSERT_TRUE(r.status.ok());
    if (expected < 0) {
      expected = r.nodes.front().actual_rows;
    } else {
      EXPECT_EQ(r.nodes.front().actual_rows, expected);
    }
  }
}

TEST(ExplainTest, SummaryLineReportsSemijoins) {
  Database db = ThreeColorDb();
  ConjunctiveQuery q = PentagonQuery();
  ExplainResult r = ExplainPlan(q, EarlyProjectionPlan(q), db, 3.0);
  ASSERT_TRUE(r.status.ok());
  EXPECT_NE(r.ToString().find("num_semijoins="), std::string::npos);
}

TEST(ExplainTest, SummaryLineGolden) {
  // The summary line is golden against the run's own stats — in
  // particular num_semijoins is always printed, even when zero (plain
  // ExplainPlan runs no reduction pass, so it is zero here).
  Database db = ThreeColorDb();
  ConjunctiveQuery q = PentagonQuery();
  ExplainResult r = ExplainPlan(q, EarlyProjectionPlan(q), db, 3.0);
  ASSERT_TRUE(r.status.ok());
  ASSERT_EQ(r.stats.num_semijoins, 0);
  const std::string expected =
      "-- tuples_produced=" + std::to_string(r.stats.tuples_produced) +
      " max_intermediate_rows=" +
      std::to_string(r.stats.max_intermediate_rows) +
      " peak_bytes=" + std::to_string(r.stats.peak_bytes) +
      " num_semijoins=0\n";
  const std::string rendered = r.ToString();
  ASSERT_NE(rendered.find(expected), std::string::npos)
      << "summary line drifted from golden form:\n" << rendered;
  // The summary is the final line of an unverified render.
  EXPECT_EQ(rendered.rfind(expected), rendered.size() - expected.size());
}

// RAII guard: installs the analysis verifier for one test and always
// restores the disabled default so tests cannot leak global state.
class ScopedVerifier {
 public:
  ScopedVerifier() { InstallPlanVerifier(/*enable=*/true); }
  ~ScopedVerifier() { EnablePlanVerification(false); }
};

TEST(ExplainTest, VerifierVerdictLineRendered) {
  ScopedVerifier verifier;
  Database db = ThreeColorDb();
  ConjunctiveQuery q = PentagonQuery();
  ExplainResult r = ExplainPlan(q, BucketEliminationPlanMcs(q, nullptr), db,
                                3.0);
  ASSERT_TRUE(r.status.ok());
  EXPECT_EQ(r.verifier_verdict, "OK");
  EXPECT_NE(r.ToString().find("-- verifier: OK"), std::string::npos);
}

TEST(ExplainTest, AnalyzeAnnotatesEveryNode) {
  ScopedVerifier verifier;
  Database db = ThreeColorDb();
  ConjunctiveQuery q = PentagonQuery();
  ExplainResult r =
      ExplainPlan(q, BucketEliminationPlanMcs(q, nullptr), db, 3.0,
                  /*tuple_budget=*/kCounterMax, /*analyze=*/true);
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_TRUE(r.analyzed);
  const std::string text = r.ToString();
  EXPECT_NE(text.find("| actual arity<="), std::string::npos);
  EXPECT_NE(text.find("predicted arity<="), std::string::npos);
  EXPECT_EQ(text.find("!! arity bound violated"), std::string::npos);
  // Every node got span actuals and at least the leaves got predictions.
  bool any_prediction = false;
  for (const NodeProfile& p : r.nodes) {
    EXPECT_FALSE(p.arity_violation);
    if (p.predicted_arity_bound >= 0) {
      any_prediction = true;
      EXPECT_LE(p.actual_max_arity, p.predicted_arity_bound);
    }
  }
  EXPECT_TRUE(any_prediction);
}

// ANALYZE takes each node's actual_bytes from its operator spans, and a
// span's bytes is the operator footprint passed to NotePeakBytes
// (obs/trace.h). So the largest node's actual_bytes is the run's
// peak_bytes, whatever the plan shape.
TEST(ExplainTest, AnalyzeLargestNodeBytesIsPeakBytes) {
  Database db = ThreeColorDb();
  ConjunctiveQuery q = PentagonQuery();
  const std::pair<const char*, Plan> plans[] = {
      {"straightforward", StraightforwardPlan(q)},
      {"early projection", EarlyProjectionPlan(q)},
      {"bucket elimination (MCS)", BucketEliminationPlanMcs(q, nullptr)},
  };
  for (const auto& [name, plan] : plans) {
    const ExplainResult r = ExplainPlan(q, plan, db, 3.0,
                                        /*tuple_budget=*/kCounterMax,
                                        /*analyze=*/true);
    ASSERT_TRUE(r.status.ok()) << name << ": " << r.status.ToString();
    int64_t largest = 0;
    for (const NodeProfile& p : r.nodes) {
      largest = std::max(largest, p.actual_bytes);
    }
    EXPECT_GT(largest, 0) << name;
    EXPECT_EQ(largest, r.stats.peak_bytes) << name;
  }
}

TEST(ExplainTest, NonAnalyzeOutputIdenticalUnderGlobalTracing) {
  Database db = ThreeColorDb();
  ConjunctiveQuery q = PentagonQuery();
  Plan plan = EarlyProjectionPlan(q);
  ASSERT_FALSE(TracingEnabled());
  const std::string off = ExplainPlan(q, plan, db, 3.0).ToString();

  const std::string path =
      ::testing::TempDir() + "ppr_explain_trace_gate.json";
  EnableTracing(path);
  const std::string on = ExplainPlan(q, plan, db, 3.0).ToString();
  DisableTracing();
  std::remove(path.c_str());
  std::remove((path + ".metrics.jsonl").c_str());
  EXPECT_EQ(off, on);  // byte-identical: analyze=false ignores PPR_TRACE
}

// The acceptance check: on the paper's generator families, the measured
// per-node arity never beats the width analyzer's static bound, for all
// five strategies.
void ExpectActualsWithinBounds(const ConjunctiveQuery& q, const Database& db,
                               double domain) {
  for (StrategyKind kind : AllStrategies()) {
    Plan plan = BuildStrategyPlan(kind, q, 1);
    ExplainResult r = ExplainPlan(q, plan, db, domain,
                                  /*tuple_budget=*/kCounterMax,
                                  /*analyze=*/true);
    ASSERT_TRUE(r.status.ok())
        << StrategyName(kind) << ": " << r.status.ToString();
    ASSERT_TRUE(r.analyzed);
    for (size_t i = 0; i < r.nodes.size(); ++i) {
      const NodeProfile& p = r.nodes[i];
      EXPECT_FALSE(p.arity_violation) << StrategyName(kind) << " node " << i;
      if (p.predicted_arity_bound >= 0) {
        EXPECT_LE(p.actual_max_arity, p.predicted_arity_bound)
            << StrategyName(kind) << " node " << i;
      }
    }
  }
}

TEST(ExplainTest, AnalyzeActualArityWithinPredictedBoundOnColoring) {
  ScopedVerifier verifier;
  Database db = ThreeColorDb();
  ExpectActualsWithinBounds(KColorQuery(AugmentedCircularLadder(4)), db, 3.0);
  Rng rng(11);
  ExpectActualsWithinBounds(KColorQuery(ConnectedRandomGraph(8, 14, rng)), db,
                            3.0);
}

TEST(ExplainTest, AnalyzeActualArityWithinPredictedBoundOnSat) {
  ScopedVerifier verifier;
  Database db;
  AddSatRelations(3, &db);
  Rng rng(7);
  ExpectActualsWithinBounds(SatQuery(RandomKSat(8, 12, 3, rng)), db, 2.0);
  ExpectActualsWithinBounds(SatQuery(RandomKSat(10, 20, 3, rng)), db, 2.0);
}

}  // namespace
}  // namespace ppr
