#ifndef PPR_OBS_TRACE_H_
#define PPR_OBS_TRACE_H_

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/annotations.h"
#include "common/timer.h"
#include "obs/obs_lock.h"

namespace ppr {

/// Kind of traced operator. Mirrors the engine's four kernels
/// (relational/ops.h); sort-merge joins trace as kJoin.
enum class TraceOp : uint8_t {
  kScan = 0,
  kJoin = 1,
  kProject = 2,
  kSemiJoin = 3,
};

/// Short stable name ("scan", "join", "project", "semijoin") used by the
/// exporters and the EXPLAIN ANALYZE rendering.
const char* TraceOpName(TraceOp op);

/// One operator execution, recorded by the kernels when a TraceSink is
/// attached to the ExecContext. Times are nanoseconds relative to the
/// sink's epoch (its construction), so spans from one sink form a
/// consistent timeline.
struct TraceSpan {
  TraceOp op = TraceOp::kScan;
  /// Pre-order plan-node id the operator belongs to (root = 0, children
  /// left to right) — the numbering of ExplainResult::nodes and of
  /// compiled PhysicalNodes. -1 when the caller did not attribute the
  /// operator to a plan node (one-shot kernel invocations).
  int32_t node_id = -1;
  int64_t start_ns = 0;
  int64_t duration_ns = 0;
  /// Total input rows (both sides for joins/semijoins); a per-morsel
  /// span counts the rows of its morsel.
  int64_t rows_in = 0;
  /// Output rows materialized (post budget truncation).
  int64_t rows_out = 0;
  /// Widest input arity / output arity.
  int32_t arity_in = 0;
  int32_t arity_out = 0;
  /// Operator footprint: arena scratch high-water mark plus materialized
  /// output bytes (the quantity ExecStats::NotePeakBytes maximizes); a
  /// per-morsel span reports its morsel's scratch.
  int64_t bytes = 0;
  /// Rows inserted into the operator's hash structure (join build side,
  /// semijoin filter keys, projection dedup inserts).
  int64_t ht_build_rows = 0;
  /// Lookup operations against the hash structure (join probe passes,
  /// semijoin membership tests). 0 for operators without a probe phase.
  int64_t ht_probe_ops = 0;
  /// Morsel index of the span (relational/batch_ops.h). An operator
  /// that runs as one morsel (every operator on the inline route)
  /// records one span, morsel 0, covering the whole operator: both
  /// inputs' rows, the full footprint. A multi-morsel operator records
  /// one span per morsel, merged into the run's sink in morsel-index
  /// order. -1 for operators outside the morsel kernels (the sort-merge
  /// join).
  int32_t morsel_id = -1;
  /// Column batches processed by the span: 1 per morsel span (each
  /// morsel is one ColumnBatch wide), 0 for the sort-merge join.
  int64_t batches = 0;
};

/// Fixed-capacity ring buffer of spans. Recording never allocates once
/// the buffer is full: the oldest span is overwritten and counted as
/// dropped.
///
/// Threading contract: a sink instance is single-threaded — Record()
/// takes no locks, keeping the kernels' enabled path cheap. Concurrent
/// components (src/runtime) attach a private sink *shard* to each
/// worker's ExecContext and fold the shards into the process-wide sink
/// with Merge() from a single thread at batch drain; the global sink is
/// only ever touched from that draining (or otherwise single) thread.
class TraceSink {
 public:
  static constexpr size_t kDefaultCapacity = 8192;

  explicit TraceSink(size_t capacity = kDefaultCapacity);

  /// Appends a span, overwriting the oldest when full.
  void Record(const TraceSpan& span);

  /// Nanoseconds since this sink's epoch (used to stamp span starts).
  int64_t NowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  /// Spans still buffered, oldest first.
  std::vector<TraceSpan> Snapshot() const;

  /// Buffered spans whose record sequence number is >= `seq` (sequence
  /// numbers count all Record() calls from 0), oldest first. Lets a
  /// caller isolate the spans of one run: mark = total_recorded() before,
  /// SnapshotSince(mark) after.
  std::vector<TraceSpan> SnapshotSince(uint64_t seq) const;

  /// Appends `other`'s buffered spans to this sink, rebasing their
  /// start_ns from `other`'s epoch onto this sink's epoch so the merged
  /// timeline stays consistent. The single-point merge of the sharded
  /// design: workers record into private sinks, one thread folds them
  /// into the global sink at drain. Overflows drop the oldest spans, as
  /// with Record().
  void Merge(const TraceSink& other);

  /// Drops all buffered spans and resets the sequence counter.
  void Clear();

  uint64_t total_recorded() const { return total_; }
  /// Spans overwritten before anyone snapshotted them.
  uint64_t dropped() const { return total_ - buffer_.size(); }
  size_t capacity() const { return capacity_; }

 private:
  size_t capacity_;
  std::vector<TraceSpan> buffer_;
  uint64_t total_ = 0;
  std::chrono::steady_clock::time_point epoch_;
};

/// RAII span recorder for the operator kernels. With a null sink the
/// constructor and destructor each cost one predictable branch — no clock
/// read, no span initialization — which is the whole disabled path.
/// Enabled, it stamps the start, times the scope with a ScopedTimer, and
/// records the span on destruction; the kernel fills the data fields
/// through span() before returning.
class SpanRecorder {
 public:
  SpanRecorder(TraceSink* sink, TraceOp op, int32_t node_id) : sink_(sink) {
    if (sink_ == nullptr) return;
    span_.op = op;
    span_.node_id = node_id;
    span_.start_ns = sink_->NowNs();
    timer_.emplace(&seconds_);
  }

  ~SpanRecorder() {
    if (sink_ == nullptr) return;
    timer_->Stop();
    span_.duration_ns = static_cast<int64_t>(seconds_ * 1e9);
    sink_->Record(span_);
  }

  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  /// True when spans are being recorded; guard all span() writes with it.
  bool enabled() const { return sink_ != nullptr; }

  /// The span under construction. Only meaningful when enabled().
  TraceSpan& span() { return span_; }

 private:
  TraceSink* sink_;
  TraceSpan span_;
  double seconds_ = 0.0;
  std::optional<ScopedTimer> timer_;
};

/// Process-wide tracing, gated by the PPR_TRACE environment variable
/// following the PPR_VERIFY_PLANS pattern (exec/verify_hook.h): when the
/// environment sets PPR_TRACE to a non-empty path, tracing starts ON with
/// that file as the export target. EnableTracing/DisableTracing toggle it
/// programmatically (tests, tools); they take GlobalObsMutex() internally
/// to swap the configuration, and the enabled gate itself is an atomic,
/// so a toggle racing a concurrent drain can no longer tear the state.
void EnableTracing(const std::string& path) EXCLUDES(GlobalObsMutex());
void DisableTracing() EXCLUDES(GlobalObsMutex());
bool TracingEnabled();

/// Export target for the Chrome trace ("" when tracing is disabled). The
/// metrics JSONL dump goes to the same path + ".metrics.jsonl". The
/// returned reference is guarded by GlobalObsMutex() (EnableTracing
/// rebinds it), hence the REQUIRES.
const std::string& TracePath() REQUIRES(GlobalObsMutex());

/// The global sink executions record into while tracing is enabled;
/// nullptr when disabled. The null return is the branch operators pay.
/// Lock-free: recording through the returned pointer is thread-confined
/// to the single-threaded traced-Execute contract, which the analysis
/// cannot see — concurrent components record into private shards and
/// fold them in via MergeIntoGlobalSink() instead.
TraceSink* GlobalTraceSinkIfEnabled();

/// Folds a worker shard into the global sink. The drain-side entry point
/// of the sharded design: requiring the obs capability here is what
/// makes two concurrent BatchExecutor drains serialize instead of
/// corrupting the global ring (a race the annotations surfaced).
void MergeIntoGlobalSink(const TraceSink& shard) REQUIRES(GlobalObsMutex());

}  // namespace ppr

#endif  // PPR_OBS_TRACE_H_
