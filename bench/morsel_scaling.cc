// Thread-scaling harness for morsel-driven intra-query parallelism: one
// heavy 3-COLOR query (bucket-elimination plan), executed by the
// MorselDriver at each requested worker count, against the inline
// baseline (PhysicalPlan::Execute, one whole-input morsel per operator).
// Every sweep point's answer relation is checked byte-identical to the
// inline path — the determinism contract, enforced, not sampled — and
// the summary metrics land in BENCH_morsel.json.
//
// On machines with >= 8 hardware threads the sweep enforces the
// acceptance gate: >= 3x speedup at 8 workers over the single-thread
// columnar run. Below that the gate is reported as skipped (the same
// hardware-gating policy as the batch-runtime scaling tests).
//
// Flags:
//   --threads=1,2,4,8   worker counts to sweep (default)
//   --vertices=16       vertices of the random base graph
//   --density=1.5       edges per vertex
//   --morsel-size=0     rows per morsel; 0 uses PPR_MORSEL_SIZE (64K)
//   --budget=50000000   tuple budget
//   --repeats=3         timed repetitions per sweep point (best kept)
//   --seed=7
//   --csv               machine-readable table

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "benchlib/harness.h"
#include "common/env.h"
#include "common/mutex.h"
#include "common/rng.h"
#include "core/strategies.h"
#include "encode/kcolor.h"
#include "exec/physical_plan.h"
#include "graph/generators.h"
#include "obs/metrics.h"
#include "runtime/morsel_driver.h"
#include "runtime/thread_pool.h"

namespace {

using namespace ppr;

int64_t FlagValue(int argc, char** argv, const char* name, int64_t fallback) {
  const std::string prefix = std::string("--") + name + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return std::atoll(argv[i] + prefix.size());
    }
  }
  return fallback;
}

double FlagDouble(int argc, char** argv, const char* name, double fallback) {
  const std::string prefix = std::string("--") + name + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return std::atof(argv[i] + prefix.size());
    }
  }
  return fallback;
}

std::vector<int> ThreadCounts(int argc, char** argv) {
  std::vector<int> counts;
  const std::string prefix = "--threads=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      const char* p = argv[i] + prefix.size();
      while (*p != '\0') {
        const int n = std::atoi(p);
        if (n > 0) counts.push_back(n);
        while (*p != '\0' && *p != ',') ++p;
        if (*p == ',') ++p;
      }
    }
  }
  if (counts.empty()) counts = {1, 2, 4, 8};
  return counts;
}

bool HasFlag(int argc, char** argv, const char* name) {
  const std::string flag = std::string("--") + name;
  for (int i = 1; i < argc; ++i) {
    if (flag == argv[i]) return true;
  }
  return false;
}

bool SameRows(const Relation& a, const Relation& b) {
  if (a.arity() != b.arity() || a.size() != b.size()) return false;
  for (int64_t i = 0; i < a.size(); ++i) {
    for (int c = 0; c < a.arity(); ++c) {
      if (a.at(i, c) != b.at(i, c)) return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const int vertices = static_cast<int>(FlagValue(argc, argv, "vertices", 16));
  const double density = FlagDouble(argc, argv, "density", 1.5);
  const int64_t morsel_size = FlagValue(argc, argv, "morsel-size", 0);
  const Counter budget = FlagValue(argc, argv, "budget", 50'000'000);
  const int repeats =
      static_cast<int>(std::max<int64_t>(1, FlagValue(argc, argv, "repeats", 3)));
  const uint64_t seed = static_cast<uint64_t>(FlagValue(argc, argv, "seed", 7));

  Database db;
  AddColoringRelations(3, &db);
  Rng rng(seed);
  const ConjunctiveQuery query = KColorQuery(RandomGraphWithDensity(
      vertices, density, rng));
  const Plan plan = BucketEliminationPlanMcs(query, nullptr);
  Result<PhysicalPlan> compiled = PhysicalPlan::Compile(query, plan, db);
  if (!compiled.ok()) {
    std::fprintf(stderr, "compile: %s\n",
                 compiled.status().ToString().c_str());
    return 1;
  }
  PhysicalPlan& physical = *compiled;

  // Inline baseline: the oracle every sweep point is checked against.
  double inline_seconds = 1e100;
  ExecutionResult inline_run;
  for (int rep = 0; rep < repeats; ++rep) {
    inline_run = physical.Execute(budget);
    if (!inline_run.status.ok()) {
      std::fprintf(stderr, "inline baseline: %s (raise --budget?)\n",
                   inline_run.status.ToString().c_str());
      return 1;
    }
    inline_seconds = std::min(inline_seconds, inline_run.seconds);
  }
  std::printf("morsel scaling: 3-COLOR on %d vertices (density %.2f), "
              "%lld answer rows, morsel size %lld\n\n",
              vertices, density,
              static_cast<long long>(inline_run.output.size()),
              static_cast<long long>(morsel_size > 0
                                         ? morsel_size
                                         : ProcessEnv().morsel_rows));

  SeriesTable table("threads", {"seconds", "speedup_vs_inline",
                                "speedup_vs_1thr", "identical"});
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", 1.0);
  table.AddRow("inline", {FormatSeconds(inline_seconds), "1.000", "-", "-"});

  double columnar_base = 0.0;
  double best_at_8 = 0.0;
  bool all_identical = true;
  for (const int threads : ThreadCounts(argc, argv)) {
    MorselDriver driver({.num_threads = threads, .morsel_rows = morsel_size});
    double best = 1e100;
    ExecutionResult result;
    for (int rep = 0; rep < repeats; ++rep) {
      result = driver.Run(physical, budget);
      if (!result.status.ok()) {
        std::fprintf(stderr, "morsel run (%d threads): %s\n", threads,
                     result.status.ToString().c_str());
        return 1;
      }
      best = std::min(best, result.seconds);
    }
    const bool identical = SameRows(inline_run.output, result.output);
    all_identical &= identical;
    if (columnar_base == 0.0) columnar_base = best;
    if (threads == 8) best_at_8 = best;

    char vs_inline[32];
    std::snprintf(vs_inline, sizeof(vs_inline), "%.3f",
                  inline_seconds / best);
    char vs_one[32];
    std::snprintf(vs_one, sizeof(vs_one), "%.3f", columnar_base / best);
    table.AddRow(std::to_string(threads),
                 {FormatSeconds(best), vs_inline, vs_one,
                  identical ? "yes" : "NO"});

    MutexLock lock(GlobalObsMutex());
    GlobalMetrics().RaiseMax(
        "morsel.best_ns.threads_" + std::to_string(threads),
        static_cast<int64_t>(best * 1e9));
  }

  if (HasFlag(argc, argv, "csv")) {
    table.PrintCsv();
  } else {
    table.Print();
  }

  if (!all_identical) {
    std::fprintf(stderr,
                 "\nFAIL: a sweep point's answer differed from the inline "
                 "path — the determinism contract is broken\n");
    return 1;
  }
  std::printf("\nall sweep points byte-identical to the inline path\n");

  {
    MutexLock lock(GlobalObsMutex());
    GlobalMetrics().RaiseMax("morsel.answer_rows", inline_run.output.size());
    GlobalMetrics().RaiseMax("morsel.inline_path_ns",
                             static_cast<int64_t>(inline_seconds * 1e9));
    GlobalMetrics().AddCounter("morsel.bench.runs", 1);
  }
  const Status written = WriteBenchMetrics("BENCH_morsel.json");
  if (!written.ok()) {
    std::fprintf(stderr, "BENCH_morsel.json: %s\n",
                 written.ToString().c_str());
    return 1;
  }
  std::printf("wrote BENCH_morsel.json\n");

  // Acceptance gate, hardware-gated like the runtime scaling tests.
  const int hw = ThreadPool::HardwareThreads();
  if (hw >= 8 && best_at_8 > 0.0 && columnar_base > 0.0) {
    const double speedup = columnar_base / best_at_8;
    if (speedup < 3.0) {
      std::fprintf(stderr,
                   "FAIL: %.3fx speedup at 8 workers (gate: >= 3x)\n",
                   speedup);
      return 1;
    }
    std::printf("gate: %.3fx speedup at 8 workers (>= 3x) OK\n", speedup);
  } else {
    std::printf("gate: skipped (%d hardware threads)\n", hw);
  }
  return 0;
}
