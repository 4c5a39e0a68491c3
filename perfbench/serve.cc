// serve_hot and serve_cold: an in-process QueryService behind a
// ServiceServer on loopback, driven closed loop by blocking ServiceClient
// connections with no think time. serve_hot repeats a Zipf-skewed mix of
// isomorphic query families, so every timed request hits the plan cache;
// serve_cold cycles through more structurally distinct queries than the
// cache holds, so every request misses and compiles.
//
// The traced run times each ServiceClient::Call from the client and then
// replays the same request texts through the public calls QueryService
// makes (ParseQuery, CanonicalizeQuery, PlanCache::GetOrCompile with
// BuildStrategyPlan/AnalyzePlan/Compile, ExecuteShared), one span each.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "analysis/width_analyzer.h"
#include "benchlib/batch_workload.h"
#include "common/check.h"
#include "common/rng.h"
#include "encode/kcolor.h"
#include "graph/generators.h"
#include "query/parser.h"
#include "runtime/batch_executor.h"
#include "runtime/plan_cache.h"
#include "service/client.h"
#include "service/server.h"
#include "service/service.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace ppr;

constexpr int kWorkers = 2;
constexpr int kClients = 2;
constexpr Counter kBudget = 2'000'000;
constexpr int kVertices = 12;
constexpr double kDensity = 1.3;
constexpr double kFreeFraction = 0.2;
constexpr int kFamilies = 12;
constexpr int kCopies = 8;
constexpr double kZipf = 1.1;
constexpr uint64_t kHotPoolSeed = 2004;
/// Distinct structures serve_cold cycles through: four times the
/// service's default 1024-entry plan cache, so LRU never keeps a key
/// until its next use.
constexpr size_t kColdPool = 4096;
constexpr size_t kColdWarmup = 256;
constexpr size_t kSequenceLength = size_t{1} << 16;
/// Requests the traced run replays in-process (a fixed prefix of the
/// request sequence, so the replay's counts repeat exactly).
constexpr int64_t kReplayRequests = 4096;
/// Share of --seconds the traced run drives the server; the replays fill
/// most of the rest.
constexpr double kTracedWindowShare = 0.6;

/// The generated inputs: request texts, their parsed queries, reference
/// answers, the query index of each request, and the warm-up requests.
struct ServeInputs {
  std::vector<std::string> texts;
  std::vector<ConjunctiveQuery> queries;
  std::vector<Relation> reference;
  std::vector<uint32_t> sequence;
  std::vector<uint32_t> warmup;
};

void AddQuery(const ConjunctiveQuery& query, ServeInputs* in) {
  std::string text = QueryToText(query);
  // The wire format is the text; keep the parsed query (the parser
  // renumbers attributes) so the reference answers what the server sees.
  Result<ParsedQuery> parsed = ParseQuery(text);
  PPR_CHECK(parsed.ok());
  in->queries.push_back(std::move(parsed->query));
  in->texts.push_back(std::move(text));
}

/// service_load's mix: 12 families of 8 isomorphic copies, even families
/// Boolean, odd families 20%-free, requested Zipf(1.1) by family. The
/// three most requested families take 60% of the requests, so a fresh
/// draw of family graphs per seed moved the executed work by a fifth; the
/// family graphs come from kHotPoolSeed, and the seed draws the copies and
/// the request sequence.
ServeInputs HotInputs(uint64_t seed) {
  ServeInputs in;
  for (int f = 0; f < kFamilies; ++f) {
    Rng pool(kHotPoolSeed + 31 * static_cast<uint64_t>(f));
    const Graph g = RandomGraphWithDensity(kVertices, kDensity, pool);
    const ConjunctiveQuery base =
        f % 2 == 0 ? KColorQuery(g)
                   : KColorQueryNonBoolean(g, kFreeFraction, pool);
    for (const ConjunctiveQuery& q :
         PermutedCopies(base, kCopies, seed + 7 * static_cast<uint64_t>(f))) {
      AddQuery(q, &in);
    }
  }
  std::vector<double> cdf(kFamilies);
  double total = 0.0;
  for (int k = 0; k < kFamilies; ++k) {
    total += std::pow(static_cast<double>(k + 1), -kZipf);
    cdf[static_cast<size_t>(k)] = total;
  }
  Rng rng(seed ^ 0x5eedf00dULL);
  in.sequence.reserve(kSequenceLength);
  for (size_t i = 0; i < kSequenceLength; ++i) {
    const double u = rng.NextDouble() * total;
    size_t family = 0;
    while (family + 1 < cdf.size() && u > cdf[family]) ++family;
    in.sequence.push_back(static_cast<uint32_t>(
        family * kCopies + rng.NextBounded(static_cast<uint64_t>(kCopies))));
  }
  for (uint32_t q = 0; q < in.texts.size(); ++q) in.warmup.push_back(q);
  return in;
}

/// kColdPool random 12-vertex queries, alternating Boolean and 20%-free,
/// deduplicated by canonical structure so no two share a cache key.
ServeInputs ColdInputs(uint64_t seed) {
  ServeInputs in;
  std::unordered_set<std::string> seen;
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 17);
  while (in.texts.size() < kColdPool) {
    const Graph g = RandomGraphWithDensity(kVertices, kDensity, rng);
    const ConjunctiveQuery q =
        in.texts.size() % 2 == 0
            ? KColorQuery(g)
            : KColorQueryNonBoolean(g, kFreeFraction, rng);
    Result<ParsedQuery> parsed = ParseQuery(QueryToText(q));
    PPR_CHECK(parsed.ok());
    if (!seen.insert(CanonicalizeQuery(parsed->query).structure).second) {
      continue;
    }
    AddQuery(q, &in);
  }
  for (uint32_t q = 0; q < kColdPool; ++q) in.sequence.push_back(q);
  for (size_t q = kColdPool - kColdWarmup; q < kColdPool; ++q) {
    in.warmup.push_back(static_cast<uint32_t>(q));
  }
  return in;
}

/// Reference answers from a one-thread BatchExecutor (same strategy, seed
/// and budget as the service's defaults).
void BuildReference(ServeInputs* in) {
  Database db;
  AddColoringRelations(3, &db);
  BatchOptions options;
  options.num_threads = 1;
  BatchExecutor executor(db, options);
  std::vector<BatchJob> jobs;
  jobs.reserve(in->queries.size());
  for (const ConjunctiveQuery& q : in->queries) {
    BatchJob job;
    job.query = q;
    job.strategy = StrategyKind::kBucketElimination;
    job.tuple_budget = kBudget;
    jobs.push_back(std::move(job));
  }
  BatchResult result = executor.Run(jobs);
  for (ExecutionResult& r : result.results) {
    PPR_CHECK(r.status.ok());
    in->reference.push_back(std::move(r.output));
  }
}

ServiceRequest MakeRequest(uint64_t id, uint64_t client,
                           const std::string& text) {
  ServiceRequest request;
  request.request_id = id;
  request.client_id = client;
  request.strategy = -1;
  request.seed = 0;
  request.tuple_budget = static_cast<uint64_t>(kBudget);
  request.query_text = text;
  return request;
}

/// Folds one reply into `tally`; returns whether it was transported.
bool CountReply(const Result<ServiceReply>& reply, const Relation& reference,
                Tally* tally) {
  if (!reply.ok()) {
    tally->Record(false, false);
    return false;
  }
  tally->Record(reply->status == ServiceStatus::kOk,
                SameRelation(reply->output, reference));
  return true;
}

/// A running server with connected clients; destruction stops it.
struct ServeSetup {
  ServeInputs in;
  Database db;
  std::unique_ptr<QueryService> service;
  std::unique_ptr<ServiceServer> server;
  std::vector<ServiceClient> clients;
  Tally warmup;
};

std::unique_ptr<ServeSetup> SetUp(bool cold, uint64_t seed) {
  auto s = std::make_unique<ServeSetup>();
  s->in = cold ? ColdInputs(seed) : HotInputs(seed);
  BuildReference(&s->in);
  AddColoringRelations(3, &s->db);
  ServiceConfig config;
  config.num_workers = kWorkers;
  config.max_tuple_budget = kBudget;
  s->service = std::make_unique<QueryService>(s->db, config);
  s->server = std::make_unique<ServiceServer>(s->service.get(), ServerConfig{});
  const Status started = s->server->Start();
  PPR_CHECK(started.ok());
  for (int c = 0; c < kClients; ++c) {
    Result<ServiceClient> client =
        ServiceClient::Connect("127.0.0.1", s->server->port());
    PPR_CHECK(client.ok());
    s->clients.push_back(std::move(*client));
  }
  // Warm-up: fills the plan cache (serve_hot) and the connection path.
  for (size_t i = 0; i < s->in.warmup.size(); ++i) {
    const uint32_t q = s->in.warmup[i];
    const size_t c = i % s->clients.size();
    CountReply(s->clients[c].Call(MakeRequest(i, c, s->in.texts[q])),
               s->in.reference[q], &s->warmup);
  }
  return s;
}

/// One timed client call, packed small because the window keeps one per
/// request: request index, completion time after the window start, round
/// trip, and the trailer's execution and queue times.
struct CallSample {
  uint32_t request = 0;
  uint32_t end_us = 0;
  uint32_t round_trip_ns = 0;
  uint32_t wall_ns = 0;
  uint32_t queue_ns = 0;
  bool ok = false;  // OK status and the reference answer
};

uint32_t Clamp32(int64_t v) {
  return static_cast<uint32_t>(
      std::clamp<int64_t>(v, 0, std::numeric_limits<uint32_t>::max()));
}

constexpr double kSliceSeconds = 1.0;
/// Call samples each client's buffer holds per second before it grows.
/// The buffers are touched before the window, so the process's peak RSS
/// does not follow throughput.
constexpr double kCallsPerClientSecond = 16000;

struct Window {
  int64_t start_ns = 0;
  /// Per-client transported calls.
  std::vector<std::vector<CallSample>> calls;
  Tally tally;
  /// Host CPU counters at the start and at each slice's end.
  std::vector<CpuSample> cpu;

  template <typename F>
  void ForEachCall(F f) const {
    for (const std::vector<CallSample>& mine : calls) {
      for (const CallSample& c : mine) f(c);
    }
  }
  int64_t transported() const {
    int64_t n = 0;
    for (const std::vector<CallSample>& mine : calls) {
      n += static_cast<int64_t>(mine.size());
    }
    return n;
  }
};

/// Closed loop: every client sends its next request as soon as the
/// previous reply arrives. Request i carries the text of sequence[i mod
/// length], i counted from 0 per window. A controller thread reads the
/// host CPU counters at every slice boundary and ends the window when
/// `window` says so.
Window DriveWindow(ServeSetup* s, double seconds, double max_factor,
                   const SpanLog& clock) {
  const size_t clients = s->clients.size();
  Window w;
  w.calls.resize(clients);
  const size_t capacity = static_cast<size_t>(seconds * kCallsPerClientSecond);
  for (std::vector<CallSample>& mine : w.calls) {
    mine.resize(capacity);
    mine.clear();
  }
  std::vector<Tally> tallies(clients);
  std::atomic<int64_t> next{0};
  std::atomic<bool> stop{false};
  WindowClock window(seconds, max_factor);
  w.start_ns = clock.NowNs();
  w.cpu.push_back(SampleCpu());
  std::vector<std::thread> threads;
  threads.emplace_back([&] {
    const auto origin = std::chrono::steady_clock::now();
    const auto slice = std::chrono::duration_cast<std::chrono::nanoseconds>(
        std::chrono::duration<double>(kSliceSeconds));
    for (int k = 1; !window.Done(); ++k) {
      std::this_thread::sleep_until(origin + k * slice);
      w.cpu.push_back(SampleCpu());
      window.AddRound(kSliceSeconds, StealShare(w.cpu[w.cpu.size() - 2],
                                                w.cpu.back()));
    }
    stop.store(true, std::memory_order_relaxed);
  });
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      std::vector<CallSample>& mine = w.calls[c];
      ServiceClient& client = s->clients[c];
      while (!stop.load(std::memory_order_relaxed)) {
        const int64_t i = next.fetch_add(1);
        const uint32_t q = s->in.sequence[static_cast<size_t>(i) %
                                          s->in.sequence.size()];
        const ServiceRequest request =
            MakeRequest(static_cast<uint64_t>(i), c, s->in.texts[q]);
        const int64_t sent = clock.NowNs();
        Result<ServiceReply> reply = client.Call(request);
        const int64_t received = clock.NowNs();
        const int64_t ok_before = tallies[c].ok;
        if (CountReply(reply, s->in.reference[q], &tallies[c])) {
          CallSample sample;
          sample.request = Clamp32(i);
          sample.end_us = Clamp32((received - w.start_ns) / 1000);
          sample.round_trip_ns = Clamp32(received - sent);
          sample.wall_ns = Clamp32(reply->wall_ns);
          sample.queue_ns = Clamp32(reply->queue_ns);
          sample.ok = tallies[c].ok > ok_before;
          mine.push_back(sample);
        } else {
          // One reconnect attempt after a transport failure.
          Result<ServiceClient> again =
              ServiceClient::Connect("127.0.0.1", s->server->port());
          if (!again.ok()) return;
          client = std::move(*again);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const Tally& t : tallies) w.tally.Add(t);
  return w;
}

/// Cuts a window into its kSliceSeconds slices by completion time; calls
/// that finish after the window ended count in the last slice, which is
/// stretched to cover them.
std::vector<Round> Slices(const Window& w) {
  const size_t n = w.cpu.size() - 1;
  std::vector<Round> rounds(n);
  uint32_t last_end_us = 0;
  w.ForEachCall([&](const CallSample& c) {
    const size_t slice = std::min(
        n - 1, static_cast<size_t>(c.end_us / (kSliceSeconds * 1e6)));
    rounds[slice].latencies_ms.push_back(c.round_trip_ns / 1e6);
    if (c.ok) ++rounds[slice].ok;
    last_end_us = std::max(last_end_us, c.end_us);
  });
  for (size_t k = 0; k < n; ++k) {
    rounds[k].seconds = kSliceSeconds;
    rounds[k].steal = StealShare(w.cpu[k], w.cpu[k + 1]);
  }
  rounds.back().seconds =
      std::max(kSliceSeconds, last_end_us / 1e6 - kSliceSeconds * (n - 1));
  return rounds;
}

/// What the in-process replay of the first kReplayRequests requests
/// produced.
struct Replay {
  /// Replayed stage time (parse through remap) per request index.
  std::vector<int64_t> stage_ns;
  PlanCache::Stats cache;
  int64_t timed_hits = 0;
  ExecStats totals;
  Tally tally;
  double seconds = 0.0;
};

Replay RunReplay(const ServeInputs& in, SpanLog* log) {
  Database db;
  AddColoringRelations(3, &db);
  const uint64_t db_fingerprint = FingerprintDatabase(db);
  PlanCache cache(ServiceConfig{}.cache_capacity);
  ExecArena arena;
  Replay out;

  const auto one = [&](uint32_t q, uint64_t request) -> bool {
    const int64_t root = log->Begin("replay.request", SpanLog::kNoParent,
                                    request);
    int64_t span = log->Begin("query.parse", root, request);
    Result<ParsedQuery> parsed = ParseQuery(in.texts[q]);
    PPR_CHECK(parsed.ok());
    PPR_CHECK(parsed->query.Validate(db).ok());
    log->End(span);

    span = log->Begin("plan_cache.canonicalize", root, request);
    const CanonicalQuery canon = CanonicalizeQuery(parsed->query);
    (void)FingerprintQueryStructure(canon.structure);
    log->End(span);

    PlanCacheKey key;
    key.structure = canon.structure;
    key.strategy = StrategyKind::kBucketElimination;
    key.seed = 0;
    key.join_algorithm = JoinAlgorithm::kHash;
    key.db = &db;
    key.db_fingerprint = db_fingerprint;
    bool compiled_here = false;
    const int64_t lookup = log->Begin("plan_cache.lookup", root, request);
    Result<std::shared_ptr<const CachedPlan>> cached = cache.GetOrCompile(
        key,
        [&]() -> Result<CachedPlan> {
          int64_t s = log->Begin("core.plan_build", lookup, request);
          Plan plan = BuildStrategyPlan(StrategyKind::kBucketElimination,
                                        canon.query, 0);
          const int width = plan.Width();
          log->End(s);
          s = log->Begin("analysis.analyze_plan", lookup, request);
          const StaticAnalysis analysis = AnalyzePlan(canon.query, plan, db);
          log->End(s);
          s = log->Begin("exec.compile", lookup, request);
          Result<PhysicalPlan> compiled = PhysicalPlan::Compile(
              canon.query, plan, db, JoinAlgorithm::kHash);
          log->End(s);
          if (!compiled.ok()) return compiled.status();
          CachedPlan plan_out{canon.query, std::move(*compiled), width};
          plan_out.tuples_bound =
              analysis.status.ok() ? analysis.tuples_produced_bound
                                   : std::numeric_limits<double>::infinity();
          return plan_out;
        },
        &compiled_here);
    log->End(lookup);
    log->Rename(lookup, compiled_here ? "plan_cache.miss" : "plan_cache.hit");
    PPR_CHECK(cached.ok());

    span = log->Begin("exec.execute", root, request);
    const ExecutionResult result =
        (*cached)->physical.ExecuteShared(&arena, kBudget, log->clock());
    log->End(span);
    log->AdoptKernelSpans(span, request);

    span = log->Begin("runtime.remap", root, request);
    const Relation output =
        RemapOutputFromCanonical(result.output, canon.from_canonical);
    log->End(span);
    log->End(root);

    out.totals.tuples_produced += result.stats.tuples_produced;
    out.totals.NoteIntermediate(result.stats.max_intermediate_arity,
                                result.stats.max_intermediate_rows);
    out.totals.NotePeakBytes(result.stats.peak_bytes);
    out.tally.Record(result.status.ok(), SameRelation(output, in.reference[q]));
    out.stage_ns.push_back(log->DurationNs(root));
    return !compiled_here;
  };

  const double start = NowSeconds();
  for (size_t i = 0; i < in.warmup.size(); ++i) {
    one(in.warmup[i], static_cast<uint64_t>(i));
  }
  out.stage_ns.clear();
  for (int64_t i = 0; i < kReplayRequests; ++i) {
    const uint32_t q = in.sequence[static_cast<size_t>(i) % in.sequence.size()];
    if (one(q, static_cast<uint64_t>(i))) ++out.timed_hits;
  }
  out.cache = cache.stats();
  out.seconds = NowSeconds() - start;
  return out;
}

void TracedServe(ServeSetup* s, bool cold, const RunOptions& options,
                 RunResult* out) {
  MetricSheet& m = out->metrics;
  InitLayerMetrics(&m);
  SpanLog log;

  const Window traced =
      DriveWindow(s, options.seconds * kTracedWindowShare, 1.0, log);
  out->tally.Add(traced.tally);
  traced.ForEachCall([&](const CallSample& c) {
    const int64_t end = traced.start_ns + int64_t{c.end_us} * 1000;
    log.Add("client.call", SpanLog::kNoParent, c.request,
            end - c.round_trip_ns, end);
  });
  const ServiceCounters counters = s->service->counters();

  // The replay runs untraced, then traced; the ratio of their wall times
  // is the tracing overhead.
  SpanLog untraced(false);
  const Replay plain = RunReplay(s->in, &untraced);
  out->tally.Add(plain.tally);
  const Replay replay = RunReplay(s->in, &log);
  out->tally.Add(replay.tally);

  std::vector<double> dispatch_us;
  std::vector<double> queue_us;
  std::vector<double> exec_us;
  std::vector<double> unattributed_us;
  std::vector<double> round_trip_us;
  traced.ForEachCall([&](const CallSample& c) {
    const int64_t rt = c.round_trip_ns;
    round_trip_us.push_back(static_cast<double>(rt) / 1e3);
    dispatch_us.push_back(
        static_cast<double>(rt - c.wall_ns - int64_t{c.queue_ns}) / 1e3);
    queue_us.push_back(c.queue_ns / 1e3);
    exec_us.push_back(c.wall_ns / 1e3);
    if (c.request < replay.stage_ns.size()) {
      const int64_t stages = replay.stage_ns[c.request];
      unattributed_us.push_back(
          static_cast<double>(rt - stages - int64_t{c.queue_ns}) / 1e3);
    }
  });
  m.Set("service.dispatch_us_p50", Percentile(dispatch_us, 0.5), "us");
  m.Set("service.queue_wait_us_p50", Percentile(queue_us, 0.5), "us");
  m.Set("service.queue_wait_us_p99", Percentile(queue_us, 0.99), "us");
  m.SetDetail("service.queue_wait_us_p99.samples",
              static_cast<double>(queue_us.size()));
  m.Set("service.exec_us_p50", Percentile(exec_us, 0.5), "us");
  m.Set("service.unattributed_us_p50", Percentile(unattributed_us, 0.5), "us");
  m.SetDetail("service.unattributed_us_p50.samples",
              static_cast<double>(unattributed_us.size()));
  m.Set("service.shed", static_cast<double>(counters.shed_total()), "count");
  m.Set("service.transport_errors",
        static_cast<double>(traced.tally.attempted - traced.transported()),
        "count");

  m.Set("query.parse_us_p50", Percentile(log.DurationsUs("query.parse"), 0.5),
        "us");
  m.Set("plan_cache.canonicalize_us_p50",
        Percentile(log.DurationsUs("plan_cache.canonicalize"), 0.5), "us");
  m.Set("plan_cache.hit_us_p50",
        Percentile(log.DurationsUs("plan_cache.hit"), 0.5), "us");
  const double hit_ratio = static_cast<double>(replay.timed_hits) /
                           static_cast<double>(kReplayRequests);
  m.Set("plan_cache.hit_ratio", hit_ratio, "ratio");
  m.Set("plan_cache.misses", static_cast<double>(replay.cache.misses), "count");
  m.Set("plan_cache.evictions", static_cast<double>(replay.cache.evictions),
        "count");
  m.Set("core.plan_build_us_p50",
        Percentile(log.DurationsUs("core.plan_build"), 0.5), "us");
  m.Set("analysis.analyze_plan_us_p50",
        Percentile(log.DurationsUs("analysis.analyze_plan"), 0.5), "us");
  m.Set("exec.compile_us_p50", Percentile(log.DurationsUs("exec.compile"), 0.5),
        "us");
  const std::vector<double> execute_us = log.DurationsUs("exec.execute");
  m.Set("exec.execute_us_p50", Percentile(execute_us, 0.5), "us");
  m.Set("exec.execute_us_p99", Percentile(execute_us, 0.99), "us");
  m.SetDetail("exec.execute_us_p99.samples",
              static_cast<double>(execute_us.size()));
  m.Set("exec.tuples_produced",
        static_cast<double>(replay.totals.tuples_produced), "count");
  m.Set("exec.max_intermediate_rows",
        static_cast<double>(replay.totals.max_intermediate_rows), "count");
  m.Set("exec.peak_bytes", static_cast<double>(replay.totals.peak_bytes),
        "bytes");
  SetRelationalMetrics(log, &m);
  m.Set("obs.trace_overhead", replay.seconds / plain.seconds - 1.0, "ratio");

  std::vector<Guard> guards;
  if (cold) {
    guards.push_back({"serve_cold.hit_ratio_is_0", hit_ratio == 0.0, true});
    guards.push_back(
        {"serve_cold.evictions_positive", replay.cache.evictions > 0, true});
  } else {
    guards.push_back(
        {"serve_hot.hit_ratio_at_least_0.99", hit_ratio >= 0.99, true});
    guards.push_back({"serve_hot.exec_below_half_round_trip",
                      Percentile(exec_us, 0.5) <
                          0.5 * Percentile(round_trip_us, 0.5),
                      false});
  }
  out->guards_ok = ReportGuards(guards);
  DumpSpans(options, log);
}

}  // namespace

RunResult RunServe(const RunOptions& options, bool cold) {
  RunResult out;
  double setup_s = 0.0;
  const std::unique_ptr<ServeSetup> setup =
      TimedSetUp([&] { return SetUp(cold, options.seed); }, &setup_s);
  out.tally.Add(setup->warmup);

  if (options.trace) {
    TracedServe(setup.get(), cold, options, &out);
    return out;
  }
  SpanLog clock;
  const Window w =
      DriveWindow(setup.get(), options.seconds, kMaxWindowFactor, clock);
  out.tally.Add(w.tally);
  SetEndToEnd(out.tally, Slices(w), setup_s, &out.metrics);
  return out;
}

}  // namespace perfbench
