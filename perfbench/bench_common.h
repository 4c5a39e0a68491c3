// Shared pieces of the benchmark driver: run options, exact percentiles,
// the in-memory span store of traced runs, and the metric sheet printed
// as the driver's final JSON line.

#ifndef PERFBENCH_BENCH_COMMON_H_
#define PERFBENCH_BENCH_COMMON_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "relational/relation.h"

namespace perfbench {

/// Command-line options of one benchmark run.
struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for the span dump of a traced run ("" skips the dump).
  std::string out_dir;
};

/// Steady-clock seconds since an arbitrary process-wide origin.
double NowSeconds();

/// Exact nearest-rank percentile (q in [0, 1]) of raw samples; 0 for an
/// empty set. Sorts a copy, so callers keep their sample order.
double Percentile(std::vector<double> samples, double q);

/// Process peak resident set size in MiB (getrusage ru_maxrss).
double PeakRssMb();

/// Cumulative CPU time of all the host's CPUs from /proc/stat, in clock
/// ticks: the part stolen by the hypervisor for other guests, and the
/// total. Zeros where /proc/stat is unreadable.
struct CpuSample {
  int64_t steal = 0;
  int64_t total = 0;
};
CpuSample SampleCpu();
/// Share of CPU time stolen between two samples (0 when none elapsed).
double StealShare(const CpuSample& before, const CpuSample& after);

/// Byte-identical relation comparison: schema attributes, row count and
/// the raw value buffer.
bool SameRelation(const ppr::Relation& a, const ppr::Relation& b);

/// Outcome counts of the operations a run attempted.
struct Tally {
  int64_t attempted = 0;
  int64_t ok = 0;         // OK status and the answer matched the reference
  int64_t failed = 0;     // transport error, non-OK status or mismatch
  int64_t mismatches = 0;  // subset of `failed`: wrong answers

  /// Counts one operation: `succeeded` is an OK status, `right` whether
  /// its answer matched the reference (only read when it succeeded).
  void Record(bool succeeded, bool right) {
    ++attempted;
    if (succeeded && right) {
      ++ok;
    } else {
      ++failed;
      if (succeeded) ++mismatches;
    }
  }

  void Add(const Tally& other) {
    attempted += other.attempted;
    ok += other.ok;
    failed += other.failed;
    mismatches += other.mismatches;
  }
};

/// Metric values and units, printed in insertion order, plus detail values
/// (sample counts, steal shares) printed on a separate line so the final
/// line keeps its fixed schema.
class MetricSheet {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  void SetDetail(const std::string& name, double value);

  /// {"name": {"value": v, "unit": u}, ...}
  std::string MetricsJson() const;
  /// {"name": value, ...}
  std::string DetailJson() const;

 private:
  struct Entry {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Entry> entries_;
  std::map<std::string, double> detail_;
};

/// In-memory spans of a traced run: name, start, end, parent and request
/// id, kept until the run ends and then written once. Times come from the
/// clock of `clock()`, the TraceSink handed to the engine's execute
/// calls, so the engine's operator spans share the timeline and can be
/// attached as children of the benchmark's own spans.
class SpanLog {
 public:
  static constexpr int64_t kNoParent = -1;

  /// A disabled log records nothing and hands the engine no sink, so the
  /// same code path runs untraced.
  explicit SpanLog(bool enabled = true);

  /// The sink for the engine's execute calls; null when disabled.
  ppr::TraceSink* clock() { return enabled_ ? &sink_ : nullptr; }
  int64_t NowNs() const { return sink_.NowNs(); }

  /// Opens a span and returns its id; End() closes it. Disabled logs
  /// return kNoParent and ignore End().
  int64_t Begin(const std::string& name, int64_t parent, uint64_t request);
  void End(int64_t id);
  void Rename(int64_t id, const std::string& name);
  /// Records an already-timed span.
  int64_t Add(const std::string& name, int64_t parent, uint64_t request,
              int64_t start_ns, int64_t end_ns);

  /// Moves the operator spans the sink recorded since the last call under
  /// `parent` (named "relational.<op>") and empties the sink.
  void AdoptKernelSpans(int64_t parent, uint64_t request);

  int64_t DurationNs(int64_t id) const;
  /// Per span: its duration minus the part of it its children cover.
  std::vector<int64_t> SelfNs() const;

  /// Ids of the spans called `name`.
  std::vector<int64_t> Named(const std::string& name) const;
  /// Durations in microseconds of the spans called `name`.
  std::vector<double> DurationsUs(const std::string& name) const;
  /// Sum over the spans called `name` of `self_ns` (from SelfNs()), in
  /// milliseconds.
  double SelfMs(const std::string& name,
                const std::vector<int64_t>& self_ns) const;
  /// Sum of rows_out of the adopted operator spans called `name`.
  int64_t RowsOut(const std::string& name) const;

  size_t size() const { return spans_.size(); }

  /// Writes one JSON object per span to `path`.
  bool WriteJsonl(const std::string& path) const;

 private:
  struct Span {
    int32_t name = 0;
    int64_t parent = kNoParent;
    uint64_t request = 0;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int64_t rows_out = 0;
  };
  int32_t Intern(const std::string& name);

  bool enabled_;
  ppr::TraceSink sink_;
  std::vector<std::string> names_;
  std::map<std::string, int32_t> name_ids_;
  std::vector<Span> spans_;
};

/// Every per-layer metric the traced run prints, with its unit. Layers a
/// workload does not exercise report 0.
void InitLayerMetrics(MetricSheet* sheet);

/// Fills the relational.* metrics from the operator spans in `log`.
void SetRelationalMetrics(const SpanLog& log, MetricSheet* sheet);

/// Writes the spans of a traced run to
/// `<out_dir>/trace-<workload>-<seed>.jsonl` and prints the path on stderr.
void DumpSpans(const RunOptions& options, const SpanLog& log);

/// A named pass/fail check of a traced run.
struct Guard {
  std::string name;
  bool pass = false;
  /// Deterministic guards fail the run; timing guards are only reported
  /// here and enforced by the guard test.
  bool enforced = true;
};

/// Prints one line per guard and returns false if an enforced guard
/// failed.
bool ReportGuards(const std::vector<Guard>& guards);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_COMMON_H_
