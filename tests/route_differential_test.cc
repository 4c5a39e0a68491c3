// Route differential test: every way this repo can execute a compiled plan
// must give the same answer, and the same work counters, as every other
// way — and the answer must match a nested-loop reference evaluator and
// the independent colorability / satisfiability solvers.
//
// Routes, per (query, strategy, join algorithm):
//   1. PhysicalPlan::ExecuteShared (row kernels)
//   2. ExecuteShared with an inline MorselExec (columnar kernels)
//   3. MorselDriver at 4 workers with 7-row morsels (operators split)
//   4. BatchExecutor (plan cache on, canonicalized jobs)
//   5. in-process QueryService::Execute (hash joins only, as served)
//   6. EXPLAIN ANALYZE, whose root actual_rows must equal route 1's size
//
// All routes run the plan built for the canonical query, which is what
// the batch executor and the service build, so their work counters are
// comparable with the direct routes'.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "benchlib/harness.h"
#include "common/rng.h"
#include "encode/kcolor.h"
#include "encode/reference.h"
#include "encode/sat.h"
#include "exec/explain.h"
#include "exec/physical_plan.h"
#include "query/parser.h"
#include "relational/batch_ops.h"
#include "relational/database.h"
#include "runtime/batch_executor.h"
#include "runtime/morsel_driver.h"
#include "runtime/plan_cache.h"
#include "service/service.h"
#include "test_util.h"

namespace ppr {
namespace {

using Answer = std::set<std::vector<Value>>;

// ---------------------------------------------------------------------------
// Test-only reference: nested loops over the atoms, one stored tuple at a
// time, extending a variable assignment. No hashing, no projection
// pushing, no plan — just the definition of a conjunctive query.

class NestedLoopReference {
 public:
  NestedLoopReference(const ConjunctiveQuery& query, const Database& db)
      : query_(query), free_(query.free_vars()) {
    std::sort(free_.begin(), free_.end());
    for (const Atom& atom : query.atoms()) {
      Result<const Relation*> stored = db.Get(atom.relation);
      PPR_CHECK(stored.ok());
      stored_.push_back(*stored);
    }
  }

  // Answer tuples over the free variables in ascending attribute order.
  Answer Evaluate() {
    answer_.clear();
    binding_.clear();
    Extend(0);
    return answer_;
  }

 private:
  void Extend(size_t atom_index) {
    if (atom_index == query_.atoms().size()) {
      std::vector<Value> tuple;
      tuple.reserve(free_.size());
      for (const AttrId v : free_) tuple.push_back(binding_.at(v));
      answer_.insert(std::move(tuple));
      return;
    }
    const Atom& atom = query_.atoms()[atom_index];
    const Relation& stored = *stored_[atom_index];
    for (int64_t r = 0; r < stored.size(); ++r) {
      std::vector<AttrId> bound_here;
      bool consistent = true;
      for (size_t c = 0; c < atom.args.size() && consistent; ++c) {
        const Value value = stored.at(r, static_cast<int>(c));
        const auto [it, inserted] = binding_.emplace(atom.args[c], value);
        if (inserted) {
          bound_here.push_back(atom.args[c]);
        } else {
          consistent = it->second == value;
        }
      }
      if (consistent) Extend(atom_index + 1);
      for (const AttrId v : bound_here) binding_.erase(v);
    }
  }

  const ConjunctiveQuery& query_;
  std::vector<AttrId> free_;
  std::vector<const Relation*> stored_;
  std::map<AttrId, Value> binding_;
  Answer answer_;
};

// A relation as a set of tuples with columns in ascending attribute order,
// so answers compare independently of each route's column order.
Answer ToAnswer(const Relation& rel) {
  std::vector<int> cols(static_cast<size_t>(rel.arity()));
  for (int c = 0; c < rel.arity(); ++c) cols[static_cast<size_t>(c)] = c;
  std::sort(cols.begin(), cols.end(), [&rel](int a, int b) {
    return rel.schema().attr(a) < rel.schema().attr(b);
  });
  Answer out;
  for (int64_t r = 0; r < rel.size(); ++r) {
    std::vector<Value> tuple;
    tuple.reserve(cols.size());
    for (const int c : cols) tuple.push_back(rel.at(r, c));
    out.insert(std::move(tuple));
  }
  return out;
}

struct RouteOutcome {
  std::string route;
  Answer answer;
  Counter tuples_produced = 0;
  int max_arity = 0;
  Counter max_rows = 0;
};

RouteOutcome FromResult(std::string route, const ExecutionResult& r) {
  EXPECT_TRUE(r.status.ok()) << route << ": " << r.status.ToString();
  return RouteOutcome{std::move(route), ToAnswer(r.output),
                      r.stats.tuples_produced,
                      r.stats.max_intermediate_arity,
                      r.stats.max_intermediate_rows};
}

// One random instance: the query in the parser's normal form (what the
// service would parse from its text), its database, and the independent
// solver's verdict.
struct Instance {
  std::string text;
  ConjunctiveQuery query;
  const Database* db = nullptr;
  QueryService* service = nullptr;
  bool solvable = false;
  double domain = 0.0;
};

Instance Normalize(const ConjunctiveQuery& raw, const Database* db,
                   QueryService* service, bool solvable, double domain) {
  Instance inst;
  inst.text = QueryToText(raw);
  Result<ParsedQuery> parsed = ParseQuery(inst.text);
  PPR_CHECK(parsed.ok());
  inst.query = parsed->query;
  inst.db = db;
  inst.service = service;
  inst.solvable = solvable;
  inst.domain = domain;
  return inst;
}

// Runs every route on one instance and checks them against the reference,
// the solver, and each other.
void CheckAllRoutes(const Instance& inst, uint64_t seed) {
  const Database& db = *inst.db;
  const Answer reference = NestedLoopReference(inst.query, db).Evaluate();
  ASSERT_EQ(!reference.empty(), inst.solvable)
      << "reference disagrees with the solver on " << inst.text;

  const CanonicalQuery canon = CanonicalizeQuery(inst.query);
  const auto remap = [&canon](ExecutionResult r) {
    if (r.status.ok()) {
      r.output = RemapOutputFromCanonical(r.output, canon.from_canonical);
    }
    return r;
  };

  for (const JoinAlgorithm join :
       {JoinAlgorithm::kHash, JoinAlgorithm::kSortMerge}) {
    const std::string algo =
        join == JoinAlgorithm::kHash ? "hash" : "sort-merge";

    BatchExecutor batch(db, BatchOptions{.num_threads = 2,
                                         .join_algorithm = join});
    std::vector<BatchJob> jobs;
    for (const StrategyKind kind : AllStrategies()) {
      jobs.push_back(BatchJob{inst.query, kind, seed, kCounterMax});
    }
    const BatchResult batched = batch.Run(jobs);
    ASSERT_EQ(batched.results.size(), jobs.size());

    for (size_t k = 0; k < jobs.size(); ++k) {
      const StrategyKind kind = jobs[k].strategy;
      const std::string where = inst.text + " / " + StrategyName(kind) +
                                " / " + algo;
      const Plan plan = BuildStrategyPlan(kind, canon.query, seed);
      Result<PhysicalPlan> compiled =
          PhysicalPlan::Compile(canon.query, plan, db, join);
      ASSERT_TRUE(compiled.ok()) << where << ": "
                                 << compiled.status().ToString();

      std::vector<RouteOutcome> routes;
      ExecArena arena;
      const ExecutionResult shared =
          remap(compiled->ExecuteShared(&arena));
      routes.push_back(FromResult("ExecuteShared", shared));

      const MorselExec inline_mx;
      routes.push_back(FromResult(
          "ExecuteShared+MorselExec",
          remap(compiled->ExecuteShared(&arena, kCounterMax, nullptr,
                                        nullptr, nullptr, &inline_mx))));

      MorselDriver driver({.num_threads = 4, .morsel_rows = 7});
      routes.push_back(
          FromResult("MorselDriver", remap(driver.Run(*compiled))));

      routes.push_back(FromResult("BatchExecutor", batched.results[k]));

      ServiceRequest request;
      request.request_id = k + 1;
      request.strategy = static_cast<int32_t>(kind);
      request.seed = seed;
      request.query_text = inst.text;
      const ServiceReply reply = inst.service->Execute(request);
      ASSERT_TRUE(reply.ok()) << where << ": " << reply.detail.ToString();
      routes.push_back(RouteOutcome{"QueryService", ToAnswer(reply.output),
                                    reply.stats.tuples_produced,
                                    reply.stats.max_intermediate_arity,
                                    reply.stats.max_intermediate_rows});

      for (const RouteOutcome& route : routes) {
        EXPECT_EQ(route.answer, reference) << where << " via " << route.route;
        EXPECT_EQ(!route.answer.empty(), inst.solvable)
            << where << " via " << route.route;
        EXPECT_EQ(route.tuples_produced, routes.front().tuples_produced)
            << where << " via " << route.route;
        EXPECT_EQ(route.max_arity, routes.front().max_arity)
            << where << " via " << route.route;
        EXPECT_EQ(route.max_rows, routes.front().max_rows)
            << where << " via " << route.route;
      }

      // EXPLAIN ANALYZE profiles the same plan: its root row count is the
      // answer size, and its summary counters are the run's.
      const ExplainResult explained =
          ExplainPlan(canon.query, plan, db, inst.domain, kCounterMax,
                      /*analyze=*/true);
      ASSERT_TRUE(explained.status.ok())
          << where << ": " << explained.status.ToString();
      ASSERT_FALSE(explained.nodes.empty());
      EXPECT_EQ(explained.nodes.front().actual_rows, shared.output.size())
          << where;
      EXPECT_EQ(explained.stats.tuples_produced,
                routes.front().tuples_produced)
          << where;
      EXPECT_EQ(explained.stats.max_intermediate_rows,
                routes.front().max_rows)
          << where;
    }
  }
}

TEST(RouteDifferentialTest, RandomColoringQueriesAgreeOnEveryRoute) {
  Database db;
  AddColoringRelations(3, &db);
  QueryService service(db, ServiceConfig{});
  int colorable_count = 0;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed);
    const int n = 5 + static_cast<int>(seed % 4);
    const int max_edges = n * (n - 1) / 2;
    const int m = std::min(max_edges, n - 1 + static_cast<int>(seed * 3 % 7));
    const Graph g = ConnectedRandomGraph(n, m, rng);
    const bool colorable = IsKColorable(g, 3);
    colorable_count += colorable ? 1 : 0;
    const ConjunctiveQuery raw =
        seed % 2 == 0 ? KColorQuery(g) : KColorQueryNonBoolean(g, 0.4, rng);
    SCOPED_TRACE("coloring seed " + std::to_string(seed));
    CheckAllRoutes(Normalize(raw, &db, &service, colorable, 3.0), seed);
  }
  // The seeds cover both verdicts, so an empty answer cannot pass for all.
  EXPECT_GT(colorable_count, 0);
  EXPECT_LT(colorable_count, 6);
}

TEST(RouteDifferentialTest, RandomSatQueriesAgreeOnEveryRoute) {
  Database db;
  AddSatRelations(3, &db);
  QueryService service(db, ServiceConfig{});
  int satisfiable_count = 0;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed * 7919);
    const int vars = 5 + static_cast<int>(seed % 3);
    // Clause densities 3 to 6 straddle the 3-SAT threshold (about 4.3).
    const int clauses = vars * (3 + static_cast<int>(seed % 4));
    const Cnf cnf = RandomKSat(vars, clauses, 3, rng);
    const bool satisfiable = IsSatisfiable(cnf);
    satisfiable_count += satisfiable ? 1 : 0;
    const ConjunctiveQuery raw =
        seed % 2 == 0 ? SatQuery(cnf) : SatQueryNonBoolean(cnf, 0.4, rng);
    SCOPED_TRACE("sat seed " + std::to_string(seed));
    CheckAllRoutes(Normalize(raw, &db, &service, satisfiable, 2.0), seed);
  }
  EXPECT_GT(satisfiable_count, 0);
  EXPECT_LT(satisfiable_count, 6);
}

}  // namespace
}  // namespace ppr
