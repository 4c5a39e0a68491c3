// morsel_wide: MorselDriver runs over dense 3-COLOR instances (order 18 to
// 20, density 3) planned with the paper's straightforward and
// early-projection strategies — the only workload on the columnar kernels
// and intra-query parallelism.
//
// Random dense graphs differ in work by two orders of magnitude, and four
// instances drawn per run would move the median run time between seeds by
// more than any bound. The instances are therefore four fixed graphs of a
// pinned candidate stream, and --seed renames their vertices and orders
// the runs: the same work under other names for every seed.
//
// The traced run times MorselDriver::Run at one thread and at the fixed
// thread count, untraced and with a TraceSink, and takes the morsel count
// from MorselAccounting.

#include <algorithm>
#include <memory>
#include <thread>
#include <vector>

#include "benchlib/harness.h"
#include "common/check.h"
#include "common/rng.h"
#include "encode/kcolor.h"
#include "exec/physical_plan.h"
#include "graph/generators.h"
#include "runtime/morsel_driver.h"
#include "runtime/thread_pool.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace ppr;

constexpr int kMaxThreads = 4;
constexpr double kDensity = 3.0;
/// Seed of the candidate stream: candidate c is a density-3 graph of
/// order 18 + c % 3.
constexpr uint64_t kPoolSeed = 2004;
/// The kept candidates and their strategies. Row-path work on one thread,
/// measured on a 4-core shared VM: #18 (order 18) 3.6M tuples,
/// 0.88M-row peak, 0.30 s; #22 (order 19) 2.7M, 0.59M, 0.33 s; #5 (order
/// 20) 7.2M, 2.24M, 0.59 s; #23 (order 20) 6.3M, 1.11M, 0.49 s — every
/// peak intermediate spans at least 8 default 64K-row morsels.
struct Candidate {
  int index;
  StrategyKind strategy;
};
constexpr Candidate kCandidates[] = {
    {18, StrategyKind::kStraightforward},
    {22, StrategyKind::kEarlyProjection},
    {5, StrategyKind::kStraightforward},
    {23, StrategyKind::kEarlyProjection},
};

int Threads() {
  return std::min(kMaxThreads, std::max(1, ThreadPool::HardwareThreads()));
}

struct Instance {
  PhysicalPlan physical;
  /// ExecuteShared's answer: the morsel runs must match it byte for byte.
  Relation reference;
};

struct MorselInputs {
  Database db;
  std::vector<std::unique_ptr<Instance>> instances;
  std::unique_ptr<MorselDriver> driver;
};

/// `query` with its attribute ids permuted by `rng` and its atoms kept in
/// their listed order, which the straightforward and early-projection
/// plans follow: the same work under other names.
ConjunctiveQuery Rename(const ConjunctiveQuery& query, Rng& rng) {
  const std::vector<AttrId> attrs = query.AllAttrs();
  std::vector<AttrId> image = attrs;
  rng.Shuffle(image);
  const auto map = [&](AttrId a) {
    return image[static_cast<size_t>(
        std::lower_bound(attrs.begin(), attrs.end(), a) - attrs.begin())];
  };
  ConjunctiveQuery out;
  for (const Atom& atom : query.atoms()) {
    Atom renamed{atom.relation, {}};
    for (const AttrId a : atom.args) renamed.args.push_back(map(a));
    out.AddAtom(std::move(renamed));
  }
  std::vector<AttrId> free_vars;
  for (const AttrId a : query.free_vars()) free_vars.push_back(map(a));
  out.SetFreeVars(std::move(free_vars));
  return out;
}

std::unique_ptr<Instance> Compile(const ConjunctiveQuery& query,
                                  StrategyKind strategy, const Database& db) {
  Result<PhysicalPlan> compiled = PhysicalPlan::Compile(
      query, BuildStrategyPlan(strategy, query, 0), db);
  PPR_CHECK(compiled.ok());
  return std::make_unique<Instance>(std::move(*compiled));
}

std::unique_ptr<MorselInputs> SetUp(uint64_t seed) {
  auto in = std::make_unique<MorselInputs>();
  AddColoringRelations(3, &in->db);
  int last = 0;
  for (const Candidate& c : kCandidates) last = std::max(last, c.index);
  std::vector<ConjunctiveQuery> stream;
  Rng pool(kPoolSeed);
  for (int c = 0; c <= last; ++c) {
    stream.push_back(
        KColorQuery(RandomGraphWithDensity(18 + c % 3, kDensity, pool)));
  }
  Rng rng(seed * 0xd1342543de82ef95ULL + 11);
  for (const Candidate& c : kCandidates) {
    in->instances.push_back(Compile(
        Rename(stream[static_cast<size_t>(c.index)], rng), c.strategy, in->db));
  }
  rng.Shuffle(in->instances);
  // Row-path references, one thread per instance.
  std::vector<std::thread> refs;
  for (const std::unique_ptr<Instance>& inst : in->instances) {
    refs.emplace_back([&inst] {
      ExecArena arena;
      ExecutionResult r = inst->physical.ExecuteShared(&arena);
      PPR_CHECK(r.status.ok());
      inst->reference = std::move(r.output);
    });
  }
  for (std::thread& t : refs) t.join();
  in->driver = std::make_unique<MorselDriver>(
      MorselDriverOptions{.num_threads = Threads(), .morsel_rows = 0});
  return in;
}

/// One MorselDriver::Run, answer checked against the row path.
ExecutionResult RunInstance(MorselDriver* driver, const Instance& inst,
                            TraceSink* trace, MorselAccounting* accounting,
                            Tally* tally) {
  ExecutionResult r = driver->Run(inst.physical, kCounterMax, trace, nullptr,
                                  nullptr, accounting);
  tally->Record(r.status.ok(), SameRelation(r.output, inst.reference));
  return r;
}

/// One pass over every instance with spans around each Run; returns the
/// pass's wall seconds.
double Pass(MorselInputs* in, MorselDriver* driver, SpanLog* log,
            TraceSink* trace, const char* name, MorselAccounting* accounting,
            ExecStats* totals, Tally* tally) {
  const double start = NowSeconds();
  for (size_t i = 0; i < in->instances.size(); ++i) {
    const int64_t span = log->Begin(name, SpanLog::kNoParent, i);
    MorselAccounting local;
    const ExecutionResult r =
        RunInstance(driver, *in->instances[i], trace, &local, tally);
    log->End(span);
    log->AdoptKernelSpans(span, i);
    if (accounting != nullptr) {
      accounting->ops.insert(accounting->ops.end(), local.ops.begin(),
                             local.ops.end());
    }
    if (totals != nullptr) {
      totals->tuples_produced += r.stats.tuples_produced;
      totals->NoteIntermediate(r.stats.max_intermediate_arity,
                               r.stats.max_intermediate_rows);
      totals->NotePeakBytes(r.stats.peak_bytes);
    }
  }
  return NowSeconds() - start;
}

void TracedMorsel(MorselInputs* in, const RunOptions& options,
                  RunResult* out) {
  MetricSheet& m = out->metrics;
  InitLayerMetrics(&m);
  SpanLog log;
  MorselDriver one({.num_threads = 1, .morsel_rows = 0});

  MorselAccounting accounting;
  const double one_s = Pass(in, &one, &log, nullptr, "runtime.morsel_run_1",
                            &accounting, nullptr, &out->tally);
  ExecStats totals;
  std::vector<double> plain_s;
  std::vector<double> traced_s;
  for (int rep = 0; rep < 2; ++rep) {
    plain_s.push_back(Pass(in, in->driver.get(), &log, nullptr,
                           "runtime.morsel_run", nullptr,
                           rep == 0 ? &totals : nullptr, &out->tally));
  }
  for (int rep = 0; rep < 2; ++rep) {
    traced_s.push_back(Pass(in, in->driver.get(), &log, log.clock(),
                            "runtime.morsel_run_traced", nullptr, nullptr,
                            &out->tally));
  }
  int64_t morsels = 0;
  for (const MorselOpAccount& op : accounting.ops) {
    morsels += static_cast<int64_t>(op.morsel_rows.size());
  }
  const double plain = Percentile(plain_s, 0.5);
  m.Set("morsel.morsels", static_cast<double>(morsels), "count");
  m.Set("morsel.speedup", one_s / plain, "ratio");
  m.Set("obs.trace_overhead", Percentile(traced_s, 0.5) / plain - 1.0, "ratio");
  const std::vector<double> run_us = log.DurationsUs("runtime.morsel_run");
  m.Set("exec.execute_us_p50", Percentile(run_us, 0.5), "us");
  m.Set("exec.execute_us_p99", Percentile(run_us, 0.99), "us");
  m.SetDetail("exec.execute_us_p99.samples",
              static_cast<double>(run_us.size()));
  m.Set("exec.tuples_produced", static_cast<double>(totals.tuples_produced),
        "count");
  m.Set("exec.max_intermediate_rows",
        static_cast<double>(totals.max_intermediate_rows), "count");
  m.Set("exec.peak_bytes", static_cast<double>(totals.peak_bytes), "bytes");
  SetRelationalMetrics(log, &m);

  const std::vector<Guard> guards = {
      {"morsel_wide.largest_intermediate_at_least_8_morsels",
       totals.max_intermediate_rows >= 8 * in->driver->morsel_rows(), true},
  };
  out->guards_ok = ReportGuards(guards);
  DumpSpans(options, log);
}

}  // namespace

RunResult RunMorsel(const RunOptions& options) {
  RunResult out;
  double setup_s = 0.0;
  const std::unique_ptr<MorselInputs> in =
      TimedSetUp([&] { return SetUp(options.seed); }, &setup_s);
  if (options.trace) {
    TracedMorsel(in.get(), options, &out);
    return out;
  }
  // One round per pass over the instances.
  std::vector<Round> rounds;
  WindowClock window(options.seconds, kMaxWindowFactor);
  do {
    Round round;
    const int64_t ok_before = out.tally.ok;
    const CpuSample cpu = SampleCpu();
    for (const std::unique_ptr<Instance>& inst : in->instances) {
      const double t0 = NowSeconds();
      RunInstance(in->driver.get(), *inst, nullptr, nullptr, &out.tally);
      const double run_s = NowSeconds() - t0;
      round.seconds += run_s;
      round.latencies_ms.push_back(run_s * 1e3);
    }
    round.steal = StealShare(cpu, SampleCpu());
    round.ok = out.tally.ok - ok_before;
    window.AddRound(round.seconds, round.steal);
    rounds.push_back(std::move(round));
  } while (!window.Done());
  SetEndToEnd(out.tally, rounds, setup_s, &out.metrics);
  return out;
}

}  // namespace perfbench
