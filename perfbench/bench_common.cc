#include "bench_common.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>

namespace perfbench {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(q * static_cast<double>(samples.size()));
  const size_t index =
      rank < 1.0 ? 0 : std::min(samples.size(), static_cast<size_t>(rank)) - 1;
  return samples[index];
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

CpuSample SampleCpu() {
  CpuSample out;
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  if (cpu != "cpu") return out;
  // user nice system idle iowait irq softirq steal
  for (int field = 0; field < 8; ++field) {
    int64_t ticks = 0;
    if (!(stat >> ticks)) return CpuSample{};
    out.total += ticks;
    if (field == 7) out.steal = ticks;
  }
  return out;
}

double StealShare(const CpuSample& before, const CpuSample& after) {
  const int64_t total = after.total - before.total;
  return total > 0 ? static_cast<double>(after.steal - before.steal) /
                         static_cast<double>(total)
                   : 0.0;
}

bool SameRelation(const ppr::Relation& a, const ppr::Relation& b) {
  if (a.arity() != b.arity() || a.size() != b.size()) return false;
  for (int c = 0; c < a.arity(); ++c) {
    if (a.schema().attr(c) != b.schema().attr(c)) return false;
  }
  const int64_t values = a.size() * a.arity();
  return values == 0 ||
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(values) * sizeof(ppr::Value)) == 0;
}

void MetricSheet::Set(const std::string& name, double value,
                      const std::string& unit) {
  for (Entry& e : entries_) {
    if (e.name == name) {
      e.value = value;
      e.unit = unit;
      return;
    }
  }
  entries_.push_back({name, value, unit});
}

void MetricSheet::SetDetail(const std::string& name, double value) {
  detail_[name] = value;
}

namespace {

std::string FormatNumber(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[64];
  // %.17g keeps every digit the measurement has.
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

}  // namespace

std::string MetricSheet::MetricsJson() const {
  std::string out = "{";
  for (size_t i = 0; i < entries_.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + entries_[i].name + "\": {\"value\": " +
           FormatNumber(entries_[i].value) + ", \"unit\": \"" +
           entries_[i].unit + "\"}";
  }
  return out + "}";
}

std::string MetricSheet::DetailJson() const {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, value] : detail_) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": " + FormatNumber(value);
  }
  return out + "}";
}

SpanLog::SpanLog(bool enabled)
    : enabled_(enabled), sink_(ppr::TraceSink::kDefaultCapacity) {}

int32_t SpanLog::Intern(const std::string& name) {
  auto it = name_ids_.find(name);
  if (it != name_ids_.end()) return it->second;
  const int32_t id = static_cast<int32_t>(names_.size());
  names_.push_back(name);
  name_ids_.emplace(name, id);
  return id;
}

int64_t SpanLog::Begin(const std::string& name, int64_t parent,
                       uint64_t request) {
  if (!enabled_) return kNoParent;
  const int64_t now = NowNs();
  return Add(name, parent, request, now, now);
}

void SpanLog::End(int64_t id) {
  if (id == kNoParent) return;
  spans_[static_cast<size_t>(id)].end_ns = NowNs();
}

void SpanLog::Rename(int64_t id, const std::string& name) {
  if (id == kNoParent) return;
  spans_[static_cast<size_t>(id)].name = Intern(name);
}

int64_t SpanLog::Add(const std::string& name, int64_t parent,
                     uint64_t request, int64_t start_ns, int64_t end_ns) {
  Span span;
  span.name = Intern(name);
  span.parent = parent;
  span.request = request;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  spans_.push_back(span);
  return static_cast<int64_t>(spans_.size()) - 1;
}

void SpanLog::AdoptKernelSpans(int64_t parent, uint64_t request) {
  if (!enabled_) return;
  for (const ppr::TraceSpan& k : sink_.Snapshot()) {
    const int64_t id =
        Add(std::string("relational.") + ppr::TraceOpName(k.op), parent,
            request, k.start_ns, k.start_ns + k.duration_ns);
    spans_[static_cast<size_t>(id)].rows_out = k.rows_out;
  }
  sink_.Clear();
}

int64_t SpanLog::DurationNs(int64_t id) const {
  if (id == kNoParent) return 0;
  const Span& s = spans_[static_cast<size_t>(id)];
  return s.end_ns - s.start_ns;
}

std::vector<int64_t> SpanLog::SelfNs() const {
  // Children intervals per parent, then each parent's duration minus the
  // union of its children's intervals clipped to the parent.
  std::vector<std::vector<std::pair<int64_t, int64_t>>> kids(spans_.size());
  for (const Span& s : spans_) {
    if (s.parent != kNoParent) {
      kids[static_cast<size_t>(s.parent)].emplace_back(s.start_ns, s.end_ns);
    }
  }
  std::vector<int64_t> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::vector<std::pair<int64_t, int64_t>>& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    int64_t covered = 0;
    int64_t cur_lo = 0;
    int64_t cur_hi = -1;
    bool open = false;
    for (auto [lo, hi] : iv) {
      lo = std::max(lo, s.start_ns);
      hi = std::min(hi, s.end_ns);
      if (hi <= lo) continue;
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
      } else {
        if (open) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
        open = true;
      }
    }
    if (open) covered += cur_hi - cur_lo;
    self[i] = (s.end_ns - s.start_ns) - covered;
  }
  return self;
}

std::vector<int64_t> SpanLog::Named(const std::string& name) const {
  std::vector<int64_t> out;
  auto it = name_ids_.find(name);
  if (it == name_ids_.end()) return out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name == it->second) out.push_back(static_cast<int64_t>(i));
  }
  return out;
}

std::vector<double> SpanLog::DurationsUs(const std::string& name) const {
  std::vector<double> out;
  for (const int64_t id : Named(name)) {
    out.push_back(static_cast<double>(DurationNs(id)) / 1e3);
  }
  return out;
}

double SpanLog::SelfMs(const std::string& name,
                       const std::vector<int64_t>& self_ns) const {
  double total = 0.0;
  for (const int64_t id : Named(name)) {
    total += static_cast<double>(self_ns[static_cast<size_t>(id)]);
  }
  return total / 1e6;
}

int64_t SpanLog::RowsOut(const std::string& name) const {
  int64_t total = 0;
  for (const int64_t id : Named(name)) {
    total += spans_[static_cast<size_t>(id)].rows_out;
  }
  return total;
}

bool SpanLog::WriteJsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\": " << i << ", \"parent\": " << s.parent
        << ", \"request\": " << s.request << ", \"name\": \""
        << names_[static_cast<size_t>(s.name)]
        << "\", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
        << "}\n";
  }
  return static_cast<bool>(out);
}

void InitLayerMetrics(MetricSheet* sheet) {
  static const char* const kMetrics[][2] = {
      {"service.dispatch_us_p50", "us"},
      {"service.queue_wait_us_p50", "us"},
      {"service.queue_wait_us_p99", "us"},
      {"service.exec_us_p50", "us"},
      {"service.unattributed_us_p50", "us"},
      {"service.shed", "count"},
      {"service.transport_errors", "count"},
      {"query.parse_us_p50", "us"},
      {"plan_cache.canonicalize_us_p50", "us"},
      {"plan_cache.hit_us_p50", "us"},
      {"plan_cache.hit_ratio", "ratio"},
      {"plan_cache.misses", "count"},
      {"plan_cache.evictions", "count"},
      {"core.plan_build_us_p50", "us"},
      {"analysis.analyze_plan_us_p50", "us"},
      {"exec.compile_us_p50", "us"},
      {"exec.execute_us_p50", "us"},
      {"exec.execute_us_p99", "us"},
      {"exec.tuples_produced", "count"},
      {"exec.max_intermediate_rows", "count"},
      {"exec.peak_bytes", "bytes"},
      {"relational.scan_self_ms", "ms"},
      {"relational.join_self_ms", "ms"},
      {"relational.project_self_ms", "ms"},
      {"relational.semijoin_self_ms", "ms"},
      {"relational.scan_rows_out", "count"},
      {"relational.join_rows_out", "count"},
      {"relational.project_rows_out", "count"},
      {"relational.semijoin_rows_out", "count"},
      {"batch.busy_ratio", "ratio"},
      {"batch.exec_inflation", "ratio"},
      {"morsel.morsels", "count"},
      {"morsel.speedup", "ratio"},
      {"obs.trace_overhead", "ratio"},
  };
  for (const auto& m : kMetrics) sheet->Set(m[0], 0.0, m[1]);
}

void SetRelationalMetrics(const SpanLog& log, MetricSheet* sheet) {
  const std::vector<int64_t> self_ns = log.SelfNs();
  for (const char* op : {"scan", "join", "project", "semijoin"}) {
    const std::string span = std::string("relational.") + op;
    sheet->Set(span + "_self_ms", log.SelfMs(span, self_ns), "ms");
    sheet->Set(span + "_rows_out", static_cast<double>(log.RowsOut(span)),
               "count");
  }
}

void DumpSpans(const RunOptions& options, const SpanLog& log) {
  if (options.out_dir.empty()) return;
  const std::string path = options.out_dir + "/trace-" + options.workload +
                           "-" + std::to_string(options.seed) + ".jsonl";
  if (log.WriteJsonl(path)) {
    std::fprintf(stderr, "spans: %zu written to %s\n", log.size(),
                 path.c_str());
  } else {
    std::fprintf(stderr, "spans: could not write %s\n", path.c_str());
  }
}

bool ReportGuards(const std::vector<Guard>& guards) {
  bool ok = true;
  for (const Guard& g : guards) {
    std::printf("guard %s: %s%s\n", g.name.c_str(), g.pass ? "pass" : "FAIL",
                g.enforced ? "" : " (reported, enforced by the guard test)");
    if (!g.pass && g.enforced) ok = false;
  }
  return ok;
}

}  // namespace perfbench
