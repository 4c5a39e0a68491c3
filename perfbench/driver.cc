// Benchmark driver: runs one named workload from a seed for a fixed
// number of seconds, checks every answer, and prints the metrics as the
// last line of standard output:
//
//   perfbench_driver --workload serve_hot --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// run is a separate traced run that prints the per-layer metrics. The
// exit code is non-zero when an answer was wrong or an enforced guard
// failed. perfbench/run.py builds this binary and wraps it with the host
// record.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.h"

namespace perfbench {

WindowClock::WindowClock(double seconds, double max_factor)
    : seconds_(seconds), max_factor_(max_factor), start_(NowSeconds()) {}

void WindowClock::AddRound(double round_seconds, double steal) {
  if (steal <= kQuietSteal) quiet_ += round_seconds;
}

bool WindowClock::Done() const {
  const double elapsed = NowSeconds() - start_;
  return elapsed >= seconds_ &&
         (quiet_ >= seconds_ / 2 || elapsed >= max_factor_ * seconds_);
}

double StealCut(const std::vector<double>& steal) {
  return std::max(kQuietSteal, Percentile(steal, 0.25));
}

void SetEndToEnd(const Tally& tally, const std::vector<Round>& rounds,
                 double setup_s, MetricSheet* sheet) {
  std::vector<double> steal;
  for (const Round& r : rounds) steal.push_back(r.steal);
  const double steal_cut = StealCut(steal);
  std::vector<double> qps;
  std::vector<double> p50;
  std::vector<double> p99;
  std::vector<double> kept_steal;
  int64_t samples = 0;
  for (const Round& r : rounds) {
    if (r.steal > steal_cut) continue;
    qps.push_back(r.seconds > 0.0 ? static_cast<double>(r.ok) / r.seconds
                                  : 0.0);
    p50.push_back(Percentile(r.latencies_ms, 0.5));
    p99.push_back(Percentile(r.latencies_ms, 0.99));
    kept_steal.push_back(r.steal);
    samples += static_cast<int64_t>(r.latencies_ms.size());
  }
  sheet->Set("qps", Percentile(qps, 0.5), "1/s");
  sheet->Set("p50_ms", Percentile(p50, 0.5), "ms");
  // Reported, not gated: see README.md.
  sheet->SetDetail("p99_ms", Percentile(p99, 0.5));
  sheet->Set("ok_ratio",
             tally.attempted > 0 ? static_cast<double>(tally.ok) /
                                       static_cast<double>(tally.attempted)
                                 : 0.0,
             "ratio");
  sheet->Set("setup_s", setup_s, "s");
  sheet->Set("peak_rss_mb", PeakRssMb(), "MB");
  sheet->SetDetail("rounds", static_cast<double>(rounds.size()));
  sheet->SetDetail("rounds_kept", static_cast<double>(qps.size()));
  sheet->SetDetail("latency_samples_kept", static_cast<double>(samples));
  sheet->SetDetail("steal_median_all_rounds", Percentile(steal, 0.5));
  double window = 0.0;
  for (const Round& r : rounds) window += r.seconds;
  sheet->SetDetail("window_seconds", window);
  sheet->SetDetail("steal_median_kept_rounds", Percentile(kept_steal, 0.5));
}

}  // namespace perfbench

namespace {

using perfbench::RunOptions;
using perfbench::RunResult;

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload serve_hot|serve_cold|batch_paper|"
               "morsel_wide --seed N --seconds S --trace 0|1 [--out DIR]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value);
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--out") {
      options.out_dir = value;
    } else {
      return Usage(argv[0]);
    }
  }
  if (argc % 2 == 0 || options.seconds <= 0.0) return Usage(argv[0]);

  RunResult result;
  if (options.workload == "serve_hot" || options.workload == "serve_cold") {
    result = perfbench::RunServe(options, options.workload == "serve_cold");
  } else if (options.workload == "batch_paper") {
    result = perfbench::RunBatch(options);
  } else if (options.workload == "morsel_wide") {
    result = perfbench::RunMorsel(options);
  } else {
    return Usage(argv[0]);
  }

  const perfbench::Tally& t = result.tally;
  const bool correct = t.mismatches == 0;
  std::printf(
      "{\"detail\": {\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
      "\"mismatches\": %lld, \"error_rate\": %.6g, \"values\": %s}}\n",
      options.workload.c_str(), static_cast<unsigned long long>(options.seed),
      options.trace ? 1 : 0, static_cast<long long>(t.mismatches),
      t.attempted > 0 ? static_cast<double>(t.failed) /
                            static_cast<double>(t.attempted)
                      : 0.0,
      result.metrics.DetailJson().c_str());
  std::printf(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"metrics\": %s}\n",
      correct ? "true" : "false", static_cast<long long>(t.attempted),
      static_cast<long long>(t.failed), result.metrics.MetricsJson().c_str());
  std::fflush(stdout);
  if (!correct) return 1;
  if (!result.guards_ok) return 3;
  return 0;
}
