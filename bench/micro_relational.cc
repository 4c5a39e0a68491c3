// google-benchmark microbenchmarks for the relational engine — the
// substrate whose tuple throughput underlies every figure reproduction.

#include <benchmark/benchmark.h>

#include <functional>
#include <vector>

#include "common/hash.h"
#include "common/rng.h"
#include "core/strategies.h"
#include "exec/physical_plan.h"
#include "obs/telemetry/query_log.h"
#include "obs/trace.h"
#include "query/conjunctive_query.h"
#include "runtime/batch_executor.h"
#include "relational/database.h"
#include "relational/exec_context.h"
#include "relational/batch_ops.h"
#include "relational/ops.h"
#include "runtime/thread_pool.h"

namespace ppr {
namespace {

Relation RandomRelation(std::vector<AttrId> attrs, int64_t rows,
                        Value domain, uint64_t seed) {
  Rng rng(seed);
  Relation rel{Schema(std::move(attrs))};
  rel.Reserve(rows);
  std::vector<Value> tuple(static_cast<size_t>(rel.arity()));
  for (int64_t i = 0; i < rows; ++i) {
    for (auto& v : tuple) v = static_cast<Value>(rng.NextBounded(
        static_cast<uint64_t>(domain)));
    rel.AddTuple(tuple);
  }
  return rel;
}

void BM_NaturalJoinSharedAttr(benchmark::State& state) {
  const int64_t rows = state.range(0);
  Relation left = RandomRelation({0, 1}, rows, 100, 1);
  Relation right = RandomRelation({1, 2}, rows, 100, 2);
  int64_t produced = 0;
  for (auto _ : state) {
    ExecContext ctx;
    Relation out = NaturalJoin(left, right, ctx);
    produced += out.size();
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(produced);
}
BENCHMARK(BM_NaturalJoinSharedAttr)->Range(1 << 8, 1 << 14);

void BM_CartesianProduct(benchmark::State& state) {
  const int64_t rows = state.range(0);
  Relation left = RandomRelation({0}, rows, 3, 3);
  Relation right = RandomRelation({1}, rows, 3, 4);
  for (auto _ : state) {
    ExecContext ctx;
    Relation out = NaturalJoin(left, right, ctx);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * rows * rows);
}
BENCHMARK(BM_CartesianProduct)->Range(1 << 4, 1 << 9);

void BM_ProjectDistinct(benchmark::State& state) {
  const int64_t rows = state.range(0);
  Relation input = RandomRelation({0, 1, 2, 3}, rows, 3, 5);
  for (auto _ : state) {
    ExecContext ctx;
    Relation out = Project(input, {0, 2}, ctx);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * rows);
}
BENCHMARK(BM_ProjectDistinct)->Range(1 << 8, 1 << 18);

void BM_SemiJoin(benchmark::State& state) {
  const int64_t rows = state.range(0);
  Relation left = RandomRelation({0, 1}, rows, 50, 6);
  Relation right = RandomRelation({1, 2}, rows / 2, 50, 7);
  for (auto _ : state) {
    ExecContext ctx;
    Relation out = SemiJoin(left, right, ctx);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * rows);
}
BENCHMARK(BM_SemiJoin)->Range(1 << 8, 1 << 14);

// The acceptance workload for the physical layer: a join followed by a
// distinct projection on the same inputs as BM_NaturalJoinSharedAttr.
// items/s counts tuples flowing through both operators.
void BM_JoinProjectPipeline(benchmark::State& state) {
  const int64_t rows = state.range(0);
  Relation left = RandomRelation({0, 1}, rows, 100, 1);
  Relation right = RandomRelation({1, 2}, rows, 100, 2);
  int64_t produced = 0;
  for (auto _ : state) {
    ExecContext ctx;
    Relation joined = NaturalJoin(left, right, ctx);
    Relation out = Project(joined, {0, 2}, ctx);
    produced += joined.size() + out.size();
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(produced);
}
BENCHMARK(BM_JoinProjectPipeline)->Range(1 << 8, 1 << 14);

// Compile-once / execute-many: the PhysicalPlan steady state, where the
// scratch arena's blocks are recycled across runs and execution performs
// no schema or catalog work at all.
void BM_CompiledPlanExecute(benchmark::State& state) {
  const int64_t rows = state.range(0);
  Database db;
  db.Put("R", RandomRelation({0, 1}, rows, 100, 11));
  db.Put("S", RandomRelation({1, 2}, rows, 100, 12));
  ConjunctiveQuery query({{"R", {0, 1}}, {"S", {1, 2}}}, {0, 2});
  const Plan plan = EarlyProjectionPlan(query);
  auto compiled = PhysicalPlan::Compile(query, plan, db);
  int64_t produced = 0;
  for (auto _ : state) {
    ExecutionResult result = compiled->Execute();
    produced += static_cast<int64_t>(result.stats.tuples_produced);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(produced);
}
BENCHMARK(BM_CompiledPlanExecute)->Range(1 << 8, 1 << 13);

// Same workload with per-operator span recording into an explicit sink:
// the enabled-path cost of the trace layer. Comparing against
// BM_CompiledPlanExecute (whose null sink costs one branch per operator)
// is the overhead check the observability layer is held to.
void BM_CompiledPlanExecuteTraced(benchmark::State& state) {
  const int64_t rows = state.range(0);
  Database db;
  db.Put("R", RandomRelation({0, 1}, rows, 100, 11));
  db.Put("S", RandomRelation({1, 2}, rows, 100, 12));
  ConjunctiveQuery query({{"R", {0, 1}}, {"S", {1, 2}}}, {0, 2});
  const Plan plan = EarlyProjectionPlan(query);
  auto compiled = PhysicalPlan::Compile(query, plan, db);
  TraceSink sink;
  int64_t produced = 0;
  for (auto _ : state) {
    ExecutionResult result = compiled->Execute(kCounterMax, &sink);
    produced += static_cast<int64_t>(result.stats.tuples_produced);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(produced);
}
BENCHMARK(BM_CompiledPlanExecuteTraced)->Range(1 << 8, 1 << 13);

// BM_CompiledPlanExecute under the morsel driver's default partition,
// run inline: ExecuteShared with a MorselExec of the env-default morsel
// size, so the join output (up to ~670K rows) is projected in several
// 64K-row morsels. The gap to BM_CompiledPlanExecute, whose operators
// each run as one whole-input morsel, is the cost of morsel-local
// indexes and the serial merge that only intra-query parallelism pays
// back.
void BM_CompiledPlanExecuteInlineMorsel(benchmark::State& state) {
  const int64_t rows = state.range(0);
  Database db;
  db.Put("R", RandomRelation({0, 1}, rows, 100, 11));
  db.Put("S", RandomRelation({1, 2}, rows, 100, 12));
  ConjunctiveQuery query({{"R", {0, 1}}, {"S", {1, 2}}}, {0, 2});
  const Plan plan = EarlyProjectionPlan(query);
  auto compiled = PhysicalPlan::Compile(query, plan, db);
  const MorselExec mx;  // inline, env-default morsel size
  ExecArena arena;
  int64_t produced = 0;
  for (auto _ : state) {
    ExecutionResult result = compiled->ExecuteShared(
        &arena, kCounterMax, nullptr, nullptr, nullptr, &mx);
    produced += static_cast<int64_t>(result.stats.tuples_produced);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(produced);
}
BENCHMARK(BM_CompiledPlanExecuteInlineMorsel)->Range(1 << 8, 1 << 13);

// Telemetry twins: the BM_CompiledPlanExecute workload submitted through
// BatchExecutor one job at a time, with the query log off (the disabled
// path costs one null-check branch per job) and on (record assembly,
// sharded append, latency-bucket fold; the flush is a no-op because the
// in-memory log has no export path). The acceptance bar for the
// telemetry pillar: On within 2% of Off.
void BM_BatchExecuteTelemetryOff(benchmark::State& state) {
  const int64_t rows = state.range(0);
  DisableQueryLog();
  Database db;
  db.Put("R", RandomRelation({0, 1}, rows, 100, 11));
  db.Put("S", RandomRelation({1, 2}, rows, 100, 12));
  std::vector<BatchJob> jobs(1);
  jobs[0].query = ConjunctiveQuery({{"R", {0, 1}}, {"S", {1, 2}}}, {0, 2});
  jobs[0].strategy = StrategyKind::kEarlyProjection;
  BatchOptions options;
  MetricsRegistry scratch;
  options.metrics = &scratch;
  BatchExecutor executor(db, options);
  int64_t produced = 0;
  for (auto _ : state) {
    BatchResult result = executor.Run(jobs);
    produced += static_cast<int64_t>(result.totals.tuples_produced);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(produced);
}
BENCHMARK(BM_BatchExecuteTelemetryOff)->Range(1 << 8, 1 << 13);

void BM_BatchExecuteTelemetryOn(benchmark::State& state) {
  const int64_t rows = state.range(0);
  EnableQueryLog("");  // in-memory: no JSONL export in the loop
  Database db;
  db.Put("R", RandomRelation({0, 1}, rows, 100, 11));
  db.Put("S", RandomRelation({1, 2}, rows, 100, 12));
  std::vector<BatchJob> jobs(1);
  jobs[0].query = ConjunctiveQuery({{"R", {0, 1}}, {"S", {1, 2}}}, {0, 2});
  jobs[0].strategy = StrategyKind::kEarlyProjection;
  BatchOptions options;
  MetricsRegistry scratch;
  options.metrics = &scratch;
  BatchExecutor executor(db, options);
  int64_t produced = 0;
  for (auto _ : state) {
    BatchResult result = executor.Run(jobs);
    produced += static_cast<int64_t>(result.totals.tuples_produced);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(produced);
  DisableQueryLog();
}
BENCHMARK(BM_BatchExecuteTelemetryOn)->Range(1 << 8, 1 << 13);

// Multi-morsel HashJoin on 4 pool workers, the shape of
// morsel_wide's big joins: 512K probe rows in 8 morsels of 64K, ~8M
// output rows (~96 MB). Sizing the output, faulting its pages in and
// freeing it are part of each iteration, as they are in a plan walk.
void BM_HashJoinColumnarMorsels(benchmark::State& state) {
  constexpr int kWorkers = 4;
  constexpr int64_t kRows = int64_t{1} << 19;
  Relation left = RandomRelation({0, 1}, kRows, 1 << 15, 1);
  Relation right = RandomRelation({1, 2}, kRows, 1 << 15, 2);
  const JoinSpec spec = PlanJoin(left.schema(), right.schema());
  ThreadPool pool(kWorkers);
  std::vector<ExecArena> arenas(kWorkers);
  MorselExec mx;
  mx.morsel_rows = int64_t{1} << 16;
  mx.num_workers = kWorkers;
  for (ExecArena& arena : arenas) mx.worker_arenas.push_back(&arena);
  mx.parallel_for = [&pool](int64_t count,
                            const std::function<void(int64_t, int)>& body) {
    for (int64_t m = 0; m < count; ++m) {
      pool.Submit([m, &body](int worker) { body(m, worker); });
    }
    pool.Wait();
  };
  int64_t produced = 0;
  int64_t out_bytes = 0;
  for (auto _ : state) {
    ExecContext ctx;
    Relation out = HashJoin(left, right, spec, ctx, mx);
    produced += out.size();
    out_bytes = out.byte_size();
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(produced);
  state.counters["out_mb"] = static_cast<double>(out_bytes) / (1 << 20);
}
BENCHMARK(BM_HashJoinColumnarMorsels)->Unit(benchmark::kMillisecond);

void BM_BindAtom(benchmark::State& state) {
  const int64_t rows = state.range(0);
  Relation stored = RandomRelation({0, 1}, rows, 10, 8);
  for (auto _ : state) {
    ExecContext ctx;
    Relation out = BindAtom(stored, {7, 7}, ctx);  // repeated attribute
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * rows);
}
BENCHMARK(BM_BindAtom)->Range(1 << 8, 1 << 14);

// Wide keys, at the shape bucket elimination runs on batch_paper: each
// step projects one variable out of a 9-17 column intermediate, so the
// dedup key is nearly the whole row. The 2-value keys above hide that
// cost. Inputs are 3-colour values; the arena is reused across
// iterations, as a compiled plan's is.

// `rows` rows over attrs 0..14 whose first 14 columns repeat an earlier
// row's about 10% of the time, so projecting attr 14 away keeps ~90%.
Relation WideProjectInput(int64_t rows) {
  Rng rng(31);
  std::vector<AttrId> attrs(15);
  for (int c = 0; c < 15; ++c) attrs[static_cast<size_t>(c)] = c;
  Relation rel{Schema(std::move(attrs))};
  std::vector<Value> tuple(15);
  for (int64_t i = 0; i < rows; ++i) {
    if (i > 0 && rng.NextBounded(10) == 0) {
      const auto prev = rel.row(static_cast<int64_t>(
          rng.NextBounded(static_cast<uint64_t>(i))));
      std::copy(prev.begin(), prev.end(), tuple.begin());
    } else {
      for (int c = 0; c < 14; ++c) {
        tuple[static_cast<size_t>(c)] = static_cast<Value>(rng.NextBounded(3));
      }
    }
    tuple[14] = static_cast<Value>(rng.NextBounded(3));
    rel.AddTuple(tuple);
  }
  return rel;
}

std::vector<AttrId> WideProjectAttrs() {
  std::vector<AttrId> attrs(14);
  for (int c = 0; c < 14; ++c) attrs[static_cast<size_t>(c)] = c;
  return attrs;
}

void BM_ProjectWide(benchmark::State& state) {
  const Relation input = WideProjectInput(state.range(0));
  const ProjectSpec spec = PlanProject(input.schema(), WideProjectAttrs());
  ExecArena arena;
  for (auto _ : state) {
    ExecContext ctx(kCounterMax, &arena);
    Relation out = ProjectColumns(input, spec, ctx, WholeInputMorsel());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * input.size());
}
// At 2^18 rows the slot array (2^19 slots, 4 MiB) outgrows L2, as the
// largest batch_paper projections' do; BM_ProjectDistinct* (9 keys) is
// the low-distinct control.
BENCHMARK(BM_ProjectWide)->Range(1 << 8, 1 << 16)->Arg(1 << 18);

// Arity-14 relations sharing attrs 11..13. The shared columns draw from
// a domain of about cbrt(rows) values, so the join emits about `rows`
// rows of arity 25.
std::pair<Relation, Relation> WideJoinInputs(int64_t rows) {
  Value domain = 1;
  while (int64_t{domain} * domain * domain < rows) ++domain;
  Rng rng(37);
  const auto make = [&](AttrId first) {
    std::vector<AttrId> attrs(14);
    for (int c = 0; c < 14; ++c) attrs[static_cast<size_t>(c)] = first + c;
    Relation rel{Schema(std::move(attrs))};
    std::vector<Value> tuple(14);
    for (int64_t i = 0; i < rows; ++i) {
      for (int c = 0; c < 14; ++c) {
        const bool shared = first + c >= 11 && first + c <= 13;
        tuple[static_cast<size_t>(c)] = static_cast<Value>(
            rng.NextBounded(static_cast<uint64_t>(shared ? domain : 3)));
      }
      rel.AddTuple(tuple);
    }
    return rel;
  };
  Relation left = make(0);
  Relation right = make(11);
  return {std::move(left), std::move(right)};
}

void BM_JoinWide(benchmark::State& state) {
  const auto [left, right] = WideJoinInputs(state.range(0));
  const JoinSpec spec = PlanJoin(left.schema(), right.schema());
  ExecArena arena;
  int64_t produced = 0;
  for (auto _ : state) {
    ExecContext ctx(kCounterMax, &arena);
    Relation out = HashJoin(left, right, spec, ctx, WholeInputMorsel());
    produced += out.size();
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(produced);
}
BENCHMARK(BM_JoinWide)->Range(1 << 8, 1 << 14);

// Key hashing alone, per key width (items = keys hashed).
void BM_HashPackedKey(benchmark::State& state) {
  const int width = static_cast<int>(state.range(0));
  constexpr int64_t kKeys = 4096;
  Rng rng(41);
  std::vector<Value> keys(static_cast<size_t>(kKeys * width));
  for (Value& v : keys) v = static_cast<Value>(rng.NextBounded(3));
  for (auto _ : state) {
    uint64_t acc = 0;
    for (int64_t k = 0; k < kKeys; ++k) {
      acc ^= HashPackedKey(keys.data() + k * width, width);
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * kKeys);
}
BENCHMARK(BM_HashPackedKey)->DenseRange(1, 4)->Arg(8)->Arg(9)->Arg(14)
    ->Arg(15)->Arg(17)->Arg(24);

}  // namespace
}  // namespace ppr

BENCHMARK_MAIN();
