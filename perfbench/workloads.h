// The benchmark's workloads. Each runs one named workload from a seed,
// checks every answer, and fills the end-to-end metrics (untraced run) or
// the per-layer metrics (traced run).

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <vector>

#include "bench_common.h"

namespace perfbench {

struct RunResult {
  Tally tally;
  MetricSheet metrics;
  /// False when an enforced guard of a traced run failed.
  bool guards_ok = true;
};

/// Steal share at or under which a round counts as quiet. At 5% a 1 s
/// serve slice still held enough multi-millisecond stalls to move p99.
constexpr double kQuietSteal = 0.02;

/// The steal share up to which a round or setup repetition is kept: at
/// most kQuietSteal or the lower quartile of `steal`, whichever is larger.
double StealCut(const std::vector<double>& steal);

/// Builds a workload's inputs with `make` at least three times and for at
/// least a second in all, and returns the last build. `*setup_s` receives
/// the median build time over the repetitions StealCut keeps; each earlier
/// build is destroyed before the next starts, outside the timing.
template <typename Make>
auto TimedSetUp(Make make, double* setup_s) {
  constexpr size_t kMinReps = 3;
  constexpr double kMinSeconds = 1.0;
  std::vector<double> times;
  std::vector<double> steal;
  double total = 0.0;
  decltype(make()) built;
  while (times.size() < kMinReps || total < kMinSeconds) {
    built.reset();
    const CpuSample cpu = SampleCpu();
    const double start = NowSeconds();
    built = make();
    times.push_back(NowSeconds() - start);
    steal.push_back(StealShare(cpu, SampleCpu()));
    total += times.back();
  }
  const double cut = StealCut(steal);
  std::vector<double> kept;
  for (size_t i = 0; i < times.size(); ++i) {
    if (steal[i] <= cut) kept.push_back(times[i]);
  }
  *setup_s = Percentile(kept, 0.5);
  return built;
}

/// One stretch of the timed window: a fixed-length slice of a closed
/// loop, one batch, or one pass over a workload's instances.
struct Round {
  double seconds = 0.0;
  int64_t ok = 0;
  std::vector<double> latencies_ms;
  /// Share of the host's CPU time stolen by other guests meanwhile.
  double steal = 0.0;
};

/// Decides when the timed window ends. It runs for `seconds`, then goes
/// on, up to `max_factor` times `seconds`, until quiet rounds add up to
/// half of `seconds`: on a shared host, periods in which other guests take
/// the CPUs come and go, and the window waits out a short one.
class WindowClock {
 public:
  WindowClock(double seconds, double max_factor);
  void AddRound(double round_seconds, double steal);
  bool Done() const;

 private:
  double seconds_;
  double max_factor_;
  double start_;
  double quiet_ = 0.0;
};

/// The window limit of the untraced runs, as a multiple of --seconds.
constexpr double kMaxWindowFactor = 2.5;

/// Fills the end-to-end metrics every workload reports, and p99_ms on the
/// detail line. qps, p50_ms and p99_ms are each the median, over the
/// rounds StealCut keeps, of the round's value: rounds in which other
/// guests took the CPUs are left out, and a short stall moves a few
/// rounds, not the result.
void SetEndToEnd(const Tally& tally, const std::vector<Round>& rounds,
                 double setup_s, MetricSheet* sheet);

RunResult RunServe(const RunOptions& options, bool cold);
RunResult RunBatch(const RunOptions& options);
RunResult RunMorsel(const RunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
