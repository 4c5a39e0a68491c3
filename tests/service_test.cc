#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <limits>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "benchlib/harness.h"
#include "encode/kcolor.h"
#include "query/parser.h"
#include "relational/database.h"
#include "runtime/batch_executor.h"
#include "service/admission.h"
#include "service/client.h"
#include "service/protocol.h"
#include "service/server.h"
#include "service/service.h"

namespace ppr {
namespace {

Database ThreeColorDb() {
  Database db;
  AddColoringRelations(3, &db);
  return db;
}

bool SameRelation(const Relation& a, const Relation& b) {
  if (a.arity() != b.arity() || a.size() != b.size()) return false;
  for (int c = 0; c < a.arity(); ++c) {
    if (a.schema().attr(c) != b.schema().attr(c)) return false;
  }
  const int64_t values = a.size() * a.arity();
  return values == 0 ||
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(values) * sizeof(Value)) == 0;
}

ServiceRequest MakeRequest(std::string text, uint64_t id = 1,
                           uint64_t client = 0) {
  ServiceRequest request;
  request.request_id = id;
  request.client_id = client;
  request.query_text = std::move(text);
  return request;
}

// Entries of a /proc/self directory: open descriptors ("fd") or live
// threads ("task"). The iterator's own descriptor counts on every call.
int ProcEntries(const char* dir) {
  int n = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator(std::string("/proc/self/") + dir)) {
    ++n;
  }
  return n;
}

int HighestOpenFd() {
  int highest = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/fd")) {
    highest = std::max(highest, std::stoi(entry.path().filename().string()));
  }
  return highest;
}

// One served round trip on a fresh connection.
bool ServedOnNewConnection(int port, uint64_t request_id) {
  Result<ServiceClient> client = ServiceClient::Connect("127.0.0.1", port);
  if (!client.ok()) return false;
  Result<ServiceReply> reply =
      client->Call(MakeRequest("pi{X} edge(X, Y)", request_id));
  return reply.ok() && reply->ok();
}

// Waits up to 5 s for the process's descriptor and thread counts to fall
// back to the given ones, then checks them.
void ExpectFlatCounts(int fds_before, int threads_before) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while ((ProcEntries("fd") > fds_before ||
          ProcEntries("task") > threads_before) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(ProcEntries("fd"), fds_before);
  EXPECT_EQ(ProcEntries("task"), threads_before);
}

// ---------------------------------------------------------------------------
// Protocol

TEST(ProtocolTest, RequestFrameRoundTrips) {
  ServiceRequest request;
  request.request_id = 0x1122334455667788ULL;
  request.client_id = 42;
  request.strategy = 3;
  request.seed = 7;
  request.tuple_budget = 1000;
  request.deadline_ms = 250;
  request.query_text = "pi{X, Y} edge(X, Z) & edge(Z, Y)";

  const std::string frame = EncodeRequestFrame(request);
  ASSERT_GE(frame.size(), 4u);
  const Result<Frame> decoded =
      DecodeFrameBody(std::string_view(frame).substr(4));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->type, FrameType::kRequest);
  EXPECT_EQ(decoded->request_id, request.request_id);

  const Result<ServiceRequest> back =
      DecodeRequestPayload(decoded->payload, decoded->request_id);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->request_id, request.request_id);
  EXPECT_EQ(back->client_id, request.client_id);
  EXPECT_EQ(back->strategy, request.strategy);
  EXPECT_EQ(back->seed, request.seed);
  EXPECT_EQ(back->tuple_budget, request.tuple_budget);
  EXPECT_EQ(back->deadline_ms, request.deadline_ms);
  EXPECT_EQ(back->query_text, request.query_text);
}

TEST(ProtocolTest, ReplyHeaderFrameRoundTrips) {
  ReplyHeader header;
  header.status = ServiceStatus::kRejected;
  header.status_code = static_cast<int32_t>(StatusCode::kResourceExhausted);
  header.cache_hit = true;
  header.predicted_width = 4;
  header.attrs = {2, 0, 5};
  header.message = "bound 1e9 exceeds headroom 100";

  const std::string frame = EncodeReplyHeaderFrame(99, header);
  const Result<Frame> decoded =
      DecodeFrameBody(std::string_view(frame).substr(4));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->type, FrameType::kReplyHeader);
  EXPECT_EQ(decoded->request_id, 99u);

  const Result<ReplyHeader> back = DecodeReplyHeaderPayload(decoded->payload);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->status, header.status);
  EXPECT_EQ(back->status_code, header.status_code);
  EXPECT_EQ(back->cache_hit, header.cache_hit);
  EXPECT_EQ(back->predicted_width, header.predicted_width);
  EXPECT_EQ(back->attrs, header.attrs);
  EXPECT_EQ(back->message, header.message);
}

TEST(ProtocolTest, TrailerFrameRoundTrips) {
  ReplyTrailer trailer;
  trailer.nonempty = true;
  trailer.tuples_produced = 123;
  trailer.max_intermediate_rows = 456;
  trailer.peak_bytes = 789;
  trailer.max_arity = 5;
  trailer.num_joins = 3;
  trailer.num_projections = 2;
  trailer.num_semijoins = 1;
  trailer.wall_ns = 1000000;
  trailer.queue_ns = 2000;

  const std::string frame = EncodeTrailerFrame(7, trailer);
  const Result<Frame> decoded =
      DecodeFrameBody(std::string_view(frame).substr(4));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->type, FrameType::kTrailer);

  const Result<ReplyTrailer> back = DecodeTrailerPayload(decoded->payload);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->nonempty, trailer.nonempty);
  EXPECT_EQ(back->tuples_produced, trailer.tuples_produced);
  EXPECT_EQ(back->max_intermediate_rows, trailer.max_intermediate_rows);
  EXPECT_EQ(back->peak_bytes, trailer.peak_bytes);
  EXPECT_EQ(back->max_arity, trailer.max_arity);
  EXPECT_EQ(back->num_joins, trailer.num_joins);
  EXPECT_EQ(back->num_projections, trailer.num_projections);
  EXPECT_EQ(back->num_semijoins, trailer.num_semijoins);
  EXPECT_EQ(back->wall_ns, trailer.wall_ns);
  EXPECT_EQ(back->queue_ns, trailer.queue_ns);
}

TEST(ProtocolTest, RowBatchFrameRoundTrips) {
  Relation rows((Schema({3, 1})));
  for (Value v = 0; v < 10; ++v) {
    const Value tuple[2] = {v, v * 10};
    rows.AddTuple(tuple);
  }
  // Encode the middle slice [2, 7).
  const std::string frame = EncodeRowBatchFrame(5, rows, 2, 5);
  const Result<Frame> decoded =
      DecodeFrameBody(std::string_view(frame).substr(4));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->type, FrameType::kRowBatch);

  Relation out((Schema({3, 1})));
  ASSERT_TRUE(DecodeRowBatchPayload(decoded->payload, &out).ok());
  ASSERT_EQ(out.size(), 5);
  for (int64_t i = 0; i < 5; ++i) {
    EXPECT_EQ(out.at(i, 0), rows.at(i + 2, 0));
    EXPECT_EQ(out.at(i, 1), rows.at(i + 2, 1));
  }
}

TEST(ProtocolTest, TruncatedAndMalformedFramesAreRejected) {
  // Truncating a valid request payload must fail cleanly at every cut.
  const std::string frame = EncodeRequestFrame(MakeRequest("pi{} edge(X, Y)"));
  const std::string_view body = std::string_view(frame).substr(4);
  const Result<Frame> whole = DecodeFrameBody(body);
  ASSERT_TRUE(whole.ok());
  for (size_t cut = 0; cut < whole->payload.size(); ++cut) {
    const Result<ServiceRequest> truncated = DecodeRequestPayload(
        std::string_view(whole->payload).substr(0, cut), 1);
    EXPECT_FALSE(truncated.ok()) << "cut at " << cut;
  }
  // A frame body too short for type + id fails.
  EXPECT_FALSE(DecodeFrameBody("abc").ok());
  // An unknown frame type fails.
  std::string bogus(body);
  bogus[0] = 0x7f;
  EXPECT_FALSE(DecodeFrameBody(bogus).ok());
}

std::string Hex(std::string_view bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const char c : bytes) {
    out.push_back(kDigits[static_cast<uint8_t>(c) >> 4]);
    out.push_back(kDigits[static_cast<uint8_t>(c) & 0xf]);
  }
  return out;
}

TEST(ProtocolTest, EncodersKeepTheWireBytes) {
  // Golden frames: the protocol's bytes, pinned so that a faster encoder
  // cannot change what is on the wire.
  constexpr uint64_t kId = 0x0102030405060708ULL;
  ServiceRequest request = MakeRequest("pi{X} e(X)", kId, 9);
  request.seed = 7;
  request.tuple_budget = 1000;
  request.deadline_ms = 250;
  EXPECT_EQ(Hex(EncodeRequestFrame(request)),
            "370000000108070605040302010900000000000000ffffffff07000000000000"
            "00e803000000000000fa0000000a00000070697b587d2065285829");

  ReplyHeader header;
  header.status = ServiceStatus::kOk;
  header.cache_hit = true;
  header.predicted_width = 3;
  header.attrs = {4, 1, 7};
  header.message = "m";
  EXPECT_EQ(Hex(EncodeReplyHeaderFrame(kId, header)),
            "2800000002080706050403020100000000000103000000030000000400000001"
            "00000007000000010000006d");

  Relation rows((Schema({4, 1, 7})));
  rows.AddTuple({1, 2, 3});
  rows.AddTuple({-1, 0x12345678, 5});
  rows.AddTuple({6, 7, 8});
  EXPECT_EQ(Hex(EncodeRowBatchFrame(kId, rows, 1, 2)),
            "2500000003080706050403020102000000ffffffff7856341205000000060000"
            "000700000008000000");

  ReplyTrailer trailer;
  trailer.nonempty = true;
  trailer.tuples_produced = 11;
  trailer.max_intermediate_rows = 12;
  trailer.peak_bytes = 13;
  trailer.max_arity = 14;
  trailer.num_joins = 15;
  trailer.num_projections = 16;
  trailer.num_semijoins = 17;
  trailer.wall_ns = 18;
  trailer.queue_ns = -19;
  EXPECT_EQ(Hex(EncodeTrailerFrame(kId, trailer)),
            "4e000000040807060504030201010b000000000000000c000000000000000d00"
            "0000000000000e0000000f000000000000001000000000000000110000000000"
            "00001200000000000000edffffffffffffff");

  // The Append encoders write the same frames back to back.
  std::string appended;
  AppendReplyHeaderFrame(&appended, kId, header);
  AppendRowBatchFrame(&appended, kId, rows, 1, 2);
  AppendTrailerFrame(&appended, kId, trailer);
  EXPECT_EQ(appended, EncodeReplyHeaderFrame(kId, header) +
                          EncodeRowBatchFrame(kId, rows, 1, 2) +
                          EncodeTrailerFrame(kId, trailer));
}

TEST(ProtocolTest, ReplyHeaderWithAnImpossibleArityIsRejected) {
  // A schema count the payload cannot hold fails before any allocation.
  ReplyHeader header;
  header.attrs = {1};
  const std::string frame = EncodeReplyHeaderFrame(1, header);
  std::string body = frame.substr(4);
  // The arity word follows type, id, status, code, cache_hit and width.
  const size_t arity_at = 1 + 8 + 1 + 4 + 1 + 4;
  body[arity_at + 3] = static_cast<char>(0x7f);
  const Result<Frame> decoded = DecodeFrameBody(body);
  ASSERT_TRUE(decoded.ok());
  EXPECT_FALSE(DecodeReplyHeaderPayload(decoded->payload).ok());
}

// A connected AF_UNIX stream pair, closed on scope exit.
class SocketPair {
 public:
  SocketPair() {
    PPR_CHECK(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds_) == 0);
  }
  ~SocketPair() {
    CloseWriter();
    ::close(fds_[0]);
  }
  int reader() const { return fds_[0]; }
  int writer() const { return fds_[1]; }
  void CloseWriter() {
    if (fds_[1] >= 0) ::close(fds_[1]);
    fds_[1] = -1;
  }

 private:
  int fds_[2] = {-1, -1};
};

// A frame's little-endian length word.
std::string LengthWord(uint32_t body_bytes) {
  std::string word(4, '\0');
  for (int i = 0; i < 4; ++i) {
    word[static_cast<size_t>(i)] =
        static_cast<char>((body_bytes >> (8 * i)) & 0xff);
  }
  return word;
}

// A frame whose body is `body_bytes` copies of `fill`.
std::string RawFrame(uint32_t body_bytes, char fill) {
  return LengthWord(body_bytes) + std::string(body_bytes, fill);
}

TEST(FrameReaderTest, ReadsFramesThatArriveTogetherOneByOne) {
  SocketPair pair;
  const std::string a = EncodeRequestFrame(MakeRequest("r(X)", 1));
  const std::string b = EncodeRequestFrame(MakeRequest("s(X, Y)", 2));
  ASSERT_TRUE(SendFrame(pair.writer(), a + b + a).ok());
  pair.CloseWriter();
  FrameReader reader;
  for (const std::string* want : {&a, &b, &a}) {
    const Result<std::string_view> body = reader.Next(pair.reader());
    ASSERT_TRUE(body.ok()) << body.status().ToString();
    EXPECT_EQ(*body, std::string_view(*want).substr(4));
  }
  EXPECT_EQ(reader.capacity(), kReadChunkBytes);
  const Result<std::string_view> eof = reader.Next(pair.reader());
  ASSERT_FALSE(eof.ok());
  EXPECT_EQ(eof.status().code(), StatusCode::kNotFound);
}

TEST(FrameReaderTest, GrowsForALargeFrameAndShrinksBack) {
  SocketPair pair;
  constexpr uint32_t kLarge = 1u << 20;
  const std::string large = RawFrame(kLarge, 'x');
  const std::string small = RawFrame(3, 'y');
  // The large frame does not fit the socket buffer: write it from a
  // second thread while the reader drains.
  std::thread writer([&pair, &large, &small] {
    PPR_CHECK(SendFrame(pair.writer(), large + small).ok());
  });
  FrameReader reader;
  Result<std::string_view> body = reader.Next(pair.reader());
  ASSERT_TRUE(body.ok()) << body.status().ToString();
  EXPECT_EQ(body->size(), kLarge);
  EXPECT_EQ(body->find_first_not_of('x'), std::string_view::npos);
  EXPECT_GE(reader.capacity(), 4 + static_cast<size_t>(kLarge));
  body = reader.Next(pair.reader());
  ASSERT_TRUE(body.ok());
  EXPECT_EQ(*body, "yyy");
  EXPECT_EQ(reader.capacity(), kReadChunkBytes);
  writer.join();
}

TEST(FrameReaderTest, OverCapLengthFailsBeforeGrowing) {
  SocketPair pair;
  // A valid frame, then a length word one past the cap and some bytes.
  ASSERT_TRUE(SendFrame(pair.writer(), RawFrame(2, 'a') +
                                           LengthWord(kMaxFrameBytes + 1) +
                                           "zz")
                  .ok());
  FrameReader reader;
  Result<std::string_view> body = reader.Next(pair.reader());
  ASSERT_TRUE(body.ok()) << body.status().ToString();
  EXPECT_EQ(*body, "aa");
  body = reader.Next(pair.reader());
  ASSERT_FALSE(body.ok());
  EXPECT_EQ(body.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(body.status().message(),
            "frame length " + std::to_string(kMaxFrameBytes + 1) +
                " exceeds cap " + std::to_string(kMaxFrameBytes));
  EXPECT_EQ(reader.capacity(), kReadChunkBytes);
}

TEST(FrameReaderTest, EndOfStreamInsideAFrameIsAnError) {
  const std::string frame = EncodeRequestFrame(MakeRequest("r(X)", 1));
  // Cut inside the length word and inside the body.
  for (const size_t cut : {size_t{2}, frame.size() - 1}) {
    SocketPair pair;
    ASSERT_TRUE(SendFrame(pair.writer(), frame.substr(0, cut)).ok());
    pair.CloseWriter();
    FrameReader reader;
    const Result<std::string_view> body = reader.Next(pair.reader());
    ASSERT_FALSE(body.ok());
    EXPECT_EQ(body.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(body.status().message(), "connection closed mid-frame");
  }
}

// ---------------------------------------------------------------------------
// AdmissionController

TEST(AdmissionTest, QuotaTokensRefillDeterministically) {
  AdmissionController::Config config;
  config.quota_tokens = 2;
  config.quota_refill_per_sec = 1.0;
  AdmissionController admission(config);

  uint64_t now = 1'000'000'000;  // t = 1s
  EXPECT_EQ(admission.Admit(7, 1.0, now), AdmitDecision::kAdmit);
  EXPECT_EQ(admission.Admit(7, 1.0, now), AdmitDecision::kAdmit);
  EXPECT_EQ(admission.Admit(7, 1.0, now), AdmitDecision::kShedQuota);
  // Another client has its own bucket.
  EXPECT_EQ(admission.Admit(8, 1.0, now), AdmitDecision::kAdmit);
  // One second later one token has refilled for client 7.
  now += 1'000'000'000;
  EXPECT_EQ(admission.Admit(7, 1.0, now), AdmitDecision::kAdmit);
  EXPECT_EQ(admission.Admit(7, 1.0, now), AdmitDecision::kShedQuota);

  const AdmissionController::Counters counters = admission.counters();
  EXPECT_EQ(counters.admitted, 4);
  EXPECT_EQ(counters.shed_quota, 2);
}

TEST(AdmissionTest, BoundGateDistinguishesRejectFromShed) {
  AdmissionController::Config config;
  config.max_inflight_tuple_bound = 100.0;
  AdmissionController admission(config);

  // A bound that can never fit is a permanent rejection.
  EXPECT_EQ(admission.Admit(1, 1000.0, 0), AdmitDecision::kRejectBound);
  // An unbounded prediction never fits either.
  EXPECT_EQ(admission.Admit(1, std::numeric_limits<double>::infinity(), 0),
            AdmitDecision::kRejectBound);
  // Two 60-bound requests fit one at a time but not together: the second
  // is shed (transient), and Release restores the headroom.
  EXPECT_EQ(admission.Admit(1, 60.0, 0), AdmitDecision::kAdmit);
  EXPECT_EQ(admission.Admit(2, 60.0, 0), AdmitDecision::kShedBound);
  EXPECT_DOUBLE_EQ(admission.inflight_bound(), 60.0);
  admission.Release(60.0);
  EXPECT_DOUBLE_EQ(admission.inflight_bound(), 0.0);
  EXPECT_EQ(admission.Admit(2, 60.0, 0), AdmitDecision::kAdmit);

  const AdmissionController::Counters counters = admission.counters();
  EXPECT_EQ(counters.admitted, 2);
  EXPECT_EQ(counters.shed_bound, 1);
  EXPECT_EQ(counters.rejected_bound, 2);
}

// ---------------------------------------------------------------------------
// QueryService

TEST(QueryServiceTest, ExecutesQueriesAndHitsThePlanCache) {
  const Database db = ThreeColorDb();
  ServiceConfig config;
  config.num_workers = 1;
  QueryService service(db, config);

  const ServiceReply first = service.Execute(MakeRequest("pi{X} edge(X, Y)"));
  ASSERT_TRUE(first.ok()) << first.detail.ToString();
  EXPECT_FALSE(first.cache_hit);
  EXPECT_EQ(first.output.arity(), 1);
  EXPECT_EQ(first.output.size(), 3);  // the three colors
  EXPECT_GE(first.predicted_width, 1);
  EXPECT_GT(first.wall_ns, 0);

  const ServiceReply second = service.Execute(MakeRequest("pi{X} edge(X, Y)"));
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second.cache_hit);
  EXPECT_TRUE(SameRelation(first.output, second.output));

  const ServiceCounters counters = service.counters();
  EXPECT_EQ(counters.requests, 2);
  EXPECT_EQ(counters.admitted, 2);
  EXPECT_EQ(counters.completed, 2);
  EXPECT_EQ(counters.ok, 2);
  EXPECT_EQ(service.cache_stats().misses, 1);
  EXPECT_EQ(service.cache_stats().hits, 1);
}

TEST(QueryServiceTest, BooleanQueryAnswersThroughTheNullaryRelation) {
  const Database db = ThreeColorDb();
  QueryService service(db, ServiceConfig{});
  const ServiceReply reply = service.Execute(MakeRequest("pi{} edge(X, Y)"));
  ASSERT_TRUE(reply.ok()) << reply.detail.ToString();
  EXPECT_EQ(reply.output.arity(), 0);
  EXPECT_EQ(reply.output.size(), 1);  // nonempty: 3-coloring exists
}

TEST(QueryServiceTest, ParseAndValidationErrorsAreInvalid) {
  const Database db = ThreeColorDb();
  QueryService service(db, ServiceConfig{});

  const ServiceReply garbled = service.Execute(MakeRequest("pi{X edge("));
  EXPECT_EQ(garbled.status, ServiceStatus::kInvalid);
  EXPECT_FALSE(garbled.detail.ok());

  const ServiceReply unknown =
      service.Execute(MakeRequest("pi{X} nosuch(X, Y)"));
  EXPECT_EQ(unknown.status, ServiceStatus::kInvalid);

  ServiceRequest bad_strategy = MakeRequest("pi{X} edge(X, Y)");
  bad_strategy.strategy = 99;
  EXPECT_EQ(service.Execute(bad_strategy).status, ServiceStatus::kInvalid);

  const ServiceCounters counters = service.counters();
  EXPECT_EQ(counters.requests, 3);
  EXPECT_EQ(counters.invalid, 3);
  EXPECT_EQ(counters.admitted, 0);
}

TEST(QueryServiceTest, TinyTupleBudgetIsBudgetExhausted) {
  const Database db = ThreeColorDb();
  QueryService service(db, ServiceConfig{});
  ServiceRequest request =
      MakeRequest("pi{X, Y} edge(X, Z) & edge(Z, Y)");
  request.tuple_budget = 1;
  const ServiceReply reply = service.Execute(request);
  EXPECT_EQ(reply.status, ServiceStatus::kBudgetExhausted);
  EXPECT_EQ(service.counters().budget_exhausted, 1);
  // The admission charge was released despite the failed execution.
  EXPECT_DOUBLE_EQ(service.admission().inflight_bound(), 0.0);
}

TEST(QueryServiceTest, QuotaShedsWithInjectedClock) {
  const Database db = ThreeColorDb();
  std::atomic<uint64_t> now{1'000'000'000};
  ServiceConfig config;
  config.num_workers = 1;
  config.admission.quota_tokens = 1;
  config.admission.quota_refill_per_sec = 1.0;
  config.clock = [&now] { return now.load(); };
  QueryService service(db, config);

  EXPECT_TRUE(service.Execute(MakeRequest("pi{X} edge(X, Y)", 1, 7)).ok());
  const ServiceReply shed =
      service.Execute(MakeRequest("pi{X} edge(X, Y)", 2, 7));
  EXPECT_EQ(shed.status, ServiceStatus::kOverloaded);
  // The refused request never executed.
  EXPECT_EQ(shed.wall_ns, 0);
  // One second of fake time refills the token.
  now.fetch_add(1'000'000'000);
  EXPECT_TRUE(service.Execute(MakeRequest("pi{X} edge(X, Y)", 3, 7)).ok());

  const ServiceCounters counters = service.counters();
  EXPECT_EQ(counters.requests, 3);
  EXPECT_EQ(counters.ok, 2);
  EXPECT_EQ(counters.shed_quota, 1);
}

TEST(QueryServiceTest, ImpossibleBoundIsPermanentlyRejected) {
  const Database db = ThreeColorDb();
  ServiceConfig config;
  // A headroom no real query's predicted bound fits: every admission
  // attempt is a permanent rejection, signalled kRejected (not
  // kOverloaded) so clients know not to retry.
  config.admission.max_inflight_tuple_bound = 1e-9;
  QueryService service(db, config);
  const ServiceReply reply = service.Execute(MakeRequest("pi{X} edge(X, Y)"));
  EXPECT_EQ(reply.status, ServiceStatus::kRejected);
  const ServiceCounters counters = service.counters();
  EXPECT_EQ(counters.rejected_bound, 1);
  EXPECT_EQ(counters.admitted, 0);
}

// Holds the single worker hostage inside a reply callback so the test
// controls exactly what sits in the queue.
struct WorkerLatch {
  std::atomic<bool> entered{false};
  std::atomic<bool> release{false};

  void Hold() {
    entered.store(true);
    while (!release.load()) std::this_thread::yield();
  }
  void WaitEntered() const {
    while (!entered.load()) std::this_thread::yield();
  }
};

TEST(QueryServiceTest, FullQueueShedsWithoutDropping) {
  const Database db = ThreeColorDb();
  ServiceConfig config;
  config.num_workers = 1;
  config.queue_depth = 1;
  QueryService service(db, config);

  WorkerLatch latch;
  std::atomic<int> replies{0};
  std::optional<ServiceStatus> blocked_status;
  service.Submit(MakeRequest("pi{X} edge(X, Y)", 1),
                 [&latch, &replies, &blocked_status](ServiceReply reply) {
                   blocked_status = reply.status;
                   replies.fetch_add(1);
                   latch.Hold();
                 });
  latch.WaitEntered();  // the worker is now parked in the callback

  // Fills the depth-1 queue.
  std::optional<ServiceStatus> queued_status;
  service.Submit(MakeRequest("pi{X} edge(X, Y)", 2),
                 [&replies, &queued_status](ServiceReply reply) {
                   queued_status = reply.status;
                   replies.fetch_add(1);
                 });
  // Queue full: shed fast, on the submitting thread, with kOverloaded.
  std::optional<ServiceStatus> shed_status;
  service.Submit(MakeRequest("pi{X} edge(X, Y)", 3),
                 [&replies, &shed_status](ServiceReply reply) {
                   shed_status = reply.status;
                   replies.fetch_add(1);
                 });
  ASSERT_TRUE(shed_status.has_value());  // refusal is synchronous
  EXPECT_EQ(*shed_status, ServiceStatus::kOverloaded);
  EXPECT_EQ(service.counters().shed_queue, 1);

  latch.release.store(true);
  service.Drain();
  // Every submit got exactly one reply; the queued request ran after the
  // worker was released, not dropped by the shed.
  EXPECT_EQ(replies.load(), 3);
  EXPECT_EQ(blocked_status.value(), ServiceStatus::kOk);
  EXPECT_EQ(queued_status.value(), ServiceStatus::kOk);
  const ServiceCounters counters = service.counters();
  EXPECT_EQ(counters.requests, 3);
  EXPECT_EQ(counters.completed, 2);
  EXPECT_EQ(counters.ok, 2);
}

TEST(QueryServiceTest, DeadlineExpiresWhileQueuedWithInjectedClock) {
  const Database db = ThreeColorDb();
  std::atomic<uint64_t> now{1'000'000'000};
  ServiceConfig config;
  config.num_workers = 1;
  config.queue_depth = 4;
  config.clock = [&now] { return now.load(); };
  QueryService service(db, config);

  WorkerLatch latch;
  service.Submit(MakeRequest("pi{X} edge(X, Y)", 1),
                 [&latch](ServiceReply) { latch.Hold(); });
  latch.WaitEntered();

  ServiceRequest doomed = MakeRequest("pi{X} edge(X, Y)", 2);
  doomed.deadline_ms = 10;
  std::atomic<bool> done{false};
  ServiceReply reply;
  service.Submit(doomed, [&done, &reply](ServiceReply r) {
    reply = std::move(r);
    done.store(true);
  });
  // The deadline passes while the request waits in the queue.
  now.fetch_add(20'000'000);
  latch.release.store(true);
  while (!done.load()) std::this_thread::yield();

  EXPECT_EQ(reply.status, ServiceStatus::kDeadlineExceeded);
  EXPECT_EQ(reply.wall_ns, 0);            // never executed
  EXPECT_GE(reply.queue_ns, 20'000'000);  // measured with the fake clock
  service.Drain();
  EXPECT_EQ(service.counters().deadline_expired, 1);
  EXPECT_DOUBLE_EQ(service.admission().inflight_bound(), 0.0);
}

TEST(QueryServiceTest, DrainRefusesNewWorkAndIsIdempotent) {
  const Database db = ThreeColorDb();
  QueryService service(db, ServiceConfig{});
  EXPECT_TRUE(service.Execute(MakeRequest("pi{X} edge(X, Y)")).ok());
  service.Drain();
  EXPECT_TRUE(service.draining());
  const ServiceReply refused = service.Execute(MakeRequest("pi{} edge(X, Y)"));
  EXPECT_EQ(refused.status, ServiceStatus::kShuttingDown);
  EXPECT_EQ(service.counters().shed_draining, 1);
  service.Drain();  // second drain is a no-op
  EXPECT_EQ(service.inflight(), 0);
}

TEST(QueryServiceTest, MatchesTheBatchExecutorByteForByte) {
  const Database db = ThreeColorDb();
  const std::vector<std::string> texts = {
      "pi{X} edge(X, Y)",
      "pi{X, Y} edge(X, Y)",
      "pi{X, Z} edge(X, Y) & edge(Y, Z)",
      "pi{} edge(X, Y) & edge(Y, Z) & edge(Z, X)",
      "pi{A, D} edge(A, B) & edge(B, C) & edge(C, D)",
  };
  // Reference: the direct BatchExecutor path over the identical parsed
  // queries, single-threaded.
  std::vector<BatchJob> jobs;
  for (const std::string& text : texts) {
    Result<ParsedQuery> parsed = ParseQuery(text);
    ASSERT_TRUE(parsed.ok()) << text;
    BatchJob job;
    job.query = std::move(parsed->query);
    jobs.push_back(std::move(job));
  }
  BatchOptions options;
  options.num_threads = 1;
  BatchExecutor reference_executor(db, options);
  const std::vector<ExecutionResult> reference =
      std::move(reference_executor.Run(jobs).results);

  for (const int workers : {1, 2, 4, 8}) {
    ServiceConfig config;
    config.num_workers = workers;
    QueryService service(db, config);
    for (size_t i = 0; i < texts.size(); ++i) {
      const ServiceReply reply =
          service.Execute(MakeRequest(texts[i], i + 1));
      ASSERT_TRUE(reply.ok()) << texts[i] << " at " << workers << " workers: "
                              << reply.detail.ToString();
      EXPECT_TRUE(SameRelation(reply.output, reference[i].output))
          << texts[i] << " differs at " << workers << " workers";
    }
  }
}

TEST(QueryServiceTest, ConcurrentClientsEachGetExactlyOneReply) {
  const Database db = ThreeColorDb();
  ServiceConfig config;
  config.num_workers = 4;
  config.queue_depth = 64;
  QueryService service(db, config);

  constexpr int kThreads = 8;
  constexpr int kPerThread = 25;
  std::atomic<int64_t> ok_count{0};
  std::vector<std::thread> clients;
  clients.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&service, &ok_count, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const ServiceReply reply = service.Execute(MakeRequest(
            i % 2 == 0 ? "pi{X} edge(X, Y)" : "pi{X, Y} edge(X, Y)",
            static_cast<uint64_t>(t) << 32 | static_cast<uint64_t>(i),
            static_cast<uint64_t>(t)));
        if (reply.ok()) ok_count.fetch_add(1);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  service.Drain();

  // Execute() returning at all proves one reply per submit; with no
  // gates configured every request must have been admitted and answered
  // OK, and the counters must reconcile exactly.
  const ServiceCounters counters = service.counters();
  EXPECT_EQ(ok_count.load(), kThreads * kPerThread);
  EXPECT_EQ(counters.requests, kThreads * kPerThread);
  EXPECT_EQ(counters.admitted, kThreads * kPerThread);
  EXPECT_EQ(counters.completed, kThreads * kPerThread);
  EXPECT_EQ(counters.ok, kThreads * kPerThread);
  EXPECT_EQ(counters.shed_total(), 0);
  EXPECT_EQ(service.inflight(), 0);
  EXPECT_DOUBLE_EQ(service.admission().inflight_bound(), 0.0);
}

TEST(QueryServiceTest, QueryToTextRoundTripsThroughTheParser) {
  const std::string text = "pi{X, Z} edge(X, Y) & edge(Y, Z) & edge(Z, X)";
  Result<ParsedQuery> first = ParseQuery(text);
  ASSERT_TRUE(first.ok());
  const std::string rendered = QueryToText(first->query);
  Result<ParsedQuery> second = ParseQuery(rendered);
  ASSERT_TRUE(second.ok()) << rendered;
  // The parser renumbers by first appearance, so the round trip is a
  // fixed point: rendering the re-parsed query reproduces the text.
  EXPECT_EQ(QueryToText(second->query), rendered);
  EXPECT_EQ(second->query.atoms().size(), first->query.atoms().size());
  EXPECT_EQ(second->query.free_vars().size(), first->query.free_vars().size());
}

// ---------------------------------------------------------------------------
// ServiceServer + ServiceClient (TCP round trip)

TEST(ServiceServerTest, TcpRoundTripMatchesInProcessExecution) {
  const Database db = ThreeColorDb();
  ServiceConfig config;
  config.num_workers = 2;
  QueryService service(db, config);
  ServiceServer server(&service, ServerConfig{});  // ephemeral port
  ASSERT_TRUE(server.Start().ok());
  ASSERT_GT(server.port(), 0);

  Result<ServiceClient> client = ServiceClient::Connect("127.0.0.1",
                                                        server.port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  // An arity-2 answer arrives via row batches.
  QueryService reference_service(db, ServiceConfig{});
  const std::string text = "pi{X, Y} edge(X, Z) & edge(Z, Y)";
  const ServiceReply expected = reference_service.Execute(MakeRequest(text));
  ASSERT_TRUE(expected.ok());
  Result<ServiceReply> reply = client->Call(MakeRequest(text, 11));
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_TRUE(reply->ok()) << reply->detail.ToString();
  EXPECT_TRUE(SameRelation(reply->output, expected.output));
  EXPECT_EQ(reply->stats.tuples_produced, expected.stats.tuples_produced);
  EXPECT_GT(reply->wall_ns, 0);

  // A Boolean answer rides in the trailer's nonempty bit.
  reply = client->Call(MakeRequest("pi{} edge(X, Y)", 12));
  ASSERT_TRUE(reply.ok());
  ASSERT_TRUE(reply->ok());
  EXPECT_EQ(reply->output.arity(), 0);
  EXPECT_EQ(reply->output.size(), 1);

  // A parse error comes back kInvalid on the same connection, which
  // survives for the next request.
  reply = client->Call(MakeRequest("pi{X nope", 13));
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->status, ServiceStatus::kInvalid);
  reply = client->Call(MakeRequest("pi{X} edge(X, Y)", 14));
  ASSERT_TRUE(reply.ok());
  EXPECT_TRUE(reply->ok());

  client->Close();
  server.Stop();
  EXPECT_EQ(server.connections_accepted(), 1);
  EXPECT_EQ(server.write_errors(), 0);
}

TEST(ServiceServerTest, ConcurrentConnectionsAllAnswered) {
  const Database db = ThreeColorDb();
  ServiceConfig config;
  config.num_workers = 2;
  QueryService service(db, config);
  ServiceServer server(&service, ServerConfig{});
  ASSERT_TRUE(server.Start().ok());

  constexpr int kClients = 6;
  constexpr int kPerClient = 10;
  std::atomic<int64_t> ok_count{0};
  std::atomic<int64_t> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&server, &ok_count, &failures, c] {
      Result<ServiceClient> client =
          ServiceClient::Connect("127.0.0.1", server.port());
      if (!client.ok()) {
        failures.fetch_add(kPerClient);
        return;
      }
      for (int i = 0; i < kPerClient; ++i) {
        const Result<ServiceReply> reply = client->Call(MakeRequest(
            "pi{X} edge(X, Y)",
            static_cast<uint64_t>(c) << 32 | static_cast<uint64_t>(i),
            static_cast<uint64_t>(c)));
        if (reply.ok() && reply->ok()) {
          ok_count.fetch_add(1);
        } else {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  server.Stop();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(ok_count.load(), kClients * kPerClient);
  EXPECT_EQ(server.connections_accepted(), kClients);
  EXPECT_EQ(server.write_errors(), 0);
  const ServiceCounters counters = service.counters();
  EXPECT_EQ(counters.requests, kClients * kPerClient);
  EXPECT_EQ(counters.ok, kClients * kPerClient);
}

TEST(ServiceServerTest, ConnectCloseCyclesLeaveFdAndThreadCountsFlat) {
  const Database db = ThreeColorDb();
  QueryService service(db, ServiceConfig{});
  ServiceServer server(&service, ServerConfig{});
  ASSERT_TRUE(server.Start().ok());
  const int fds_before = ProcEntries("fd");
  const int threads_before = ProcEntries("task");

  constexpr int kCycles = 2000;
  for (int i = 0; i < kCycles; ++i) {
    Result<ServiceClient> client =
        ServiceClient::Connect("127.0.0.1", server.port());
    ASSERT_TRUE(client.ok()) << "cycle " << i << ": "
                             << client.status().ToString();
    client->Close();
    // Keep pace with the acceptor, so the listen backlog never overflows
    // into SYN retransmits.
    while (server.connections_accepted() <= i) std::this_thread::yield();
  }
  ASSERT_TRUE(ServedOnNewConnection(server.port(), 1));

  // Every connection's descriptor and thread go once it finishes; a
  // server that never reaps holds kCycles + 1 more of each.
  ExpectFlatCounts(fds_before, threads_before);

  server.Stop();
  EXPECT_EQ(server.connections_accepted(), kCycles + 1);
  EXPECT_EQ(server.write_errors(), 0);
  EXPECT_EQ(server.accept_errors(), 0);
  const ServiceCounters counters = service.counters();
  EXPECT_EQ(counters.requests, 1);
  EXPECT_EQ(counters.ok, 1);
}

// Connects to the loopback `port`, sends the first `n` bytes of `bytes`
// and closes.
bool SendPrefixAndClose(int port, const std::string& bytes, size_t n) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return false;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  bool ok = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)) == 0;
  for (size_t sent = 0; ok && sent < n;) {
    const ssize_t w = ::send(fd, bytes.data() + sent, n - sent, MSG_NOSIGNAL);
    ok = w > 0;
    if (ok) sent += static_cast<size_t>(w);
  }
  ::close(fd);
  return ok;
}

TEST(ServiceServerTest, FramesTruncatedAtEveryOffsetLeaveTheServerServing) {
  const Database db = ThreeColorDb();
  QueryService service(db, ServiceConfig{});
  ServiceServer server(&service, ServerConfig{});
  ASSERT_TRUE(server.Start().ok());
  const int fds_before = ProcEntries("fd");
  const int threads_before = ProcEntries("task");

  // Every proper prefix of a valid request frame, each on its own
  // connection that then hangs up: inside the length word, inside the
  // type and request id, and inside the payload.
  const std::string frame =
      EncodeRequestFrame(MakeRequest("pi{X} edge(X, Y)", 7));
  for (size_t k = 0; k < frame.size(); ++k) {
    ASSERT_TRUE(SendPrefixAndClose(server.port(), frame, k)) << "offset " << k;
    while (server.connections_accepted() <= static_cast<int64_t>(k)) {
      std::this_thread::yield();
    }
  }
  ASSERT_TRUE(ServedOnNewConnection(server.port(), 8));

  ExpectFlatCounts(fds_before, threads_before);

  server.Stop();
  EXPECT_EQ(server.connections_accepted(),
            static_cast<int64_t>(frame.size()) + 1);
  EXPECT_EQ(server.write_errors(), 0);
  EXPECT_EQ(server.accept_errors(), 0);
  // No truncated frame reached the service: the one request is the
  // served one, and every counter reconciles with it.
  const ServiceCounters counters = service.counters();
  EXPECT_EQ(counters.requests, 1);
  EXPECT_EQ(counters.admitted, 1);
  EXPECT_EQ(counters.completed, 1);
  EXPECT_EQ(counters.ok, 1);
  EXPECT_EQ(counters.invalid, 0);
  EXPECT_EQ(counters.errors, 0);
}

// Restores the descriptor limit however the test exits.
class ScopedFdLimit {
 public:
  explicit ScopedFdLimit(rlim_t soft) {
    PPR_CHECK(::getrlimit(RLIMIT_NOFILE, &saved_) == 0);
    rlimit lowered = saved_;
    lowered.rlim_cur = soft;
    PPR_CHECK(::setrlimit(RLIMIT_NOFILE, &lowered) == 0);
  }
  ~ScopedFdLimit() { (void)::setrlimit(RLIMIT_NOFILE, &saved_); }

 private:
  rlimit saved_{};
};

TEST(ServiceServerTest, AcceptSurvivesDescriptorExhaustion) {
  const Database db = ThreeColorDb();
  QueryService service(db, ServiceConfig{});
  ServiceServer server(&service, ServerConfig{});
  ASSERT_TRUE(server.Start().ok());
  ASSERT_TRUE(ServedOnNewConnection(server.port(), 1));

  std::vector<ServiceClient> held;
  {
    // Descriptors are allocated lowest first, so this leaves only a few
    // free: clients connect (the kernel completes the handshake into the
    // backlog) until the server's accept() runs out of descriptors.
    ScopedFdLimit limit(static_cast<rlim_t>(HighestOpenFd() + 4));
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (server.accept_errors() == 0 &&
           std::chrono::steady_clock::now() < deadline) {
      if (Result<ServiceClient> client =
              ServiceClient::Connect("127.0.0.1", server.port());
          client.ok()) {
        held.push_back(std::move(*client));
      } else {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    ASSERT_GT(server.accept_errors(), 0);
    ASSERT_FALSE(held.empty());

    // Free the clients' descriptors, still under the lowered limit: the
    // server accepts the backlog, reaps those connections as they see
    // EOF, and serves a new connection.
    for (ServiceClient& client : held) client.Close();
    const int64_t backlog = static_cast<int64_t>(held.size()) + 1;
    while (server.connections_accepted() < backlog &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_EQ(server.connections_accepted(), backlog);
    // Client and server share this process's descriptors: until the
    // acceptor reaps the closed clients' connections, the client's own
    // socket() can find none free. Retry the connect, not the request.
    Result<ServiceClient> client =
        ServiceClient::Connect("127.0.0.1", server.port());
    while (!client.ok() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      client = ServiceClient::Connect("127.0.0.1", server.port());
    }
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    const Result<ServiceReply> reply =
        client->Call(MakeRequest("pi{X} edge(X, Y)", 2));
    EXPECT_TRUE(reply.ok() && reply->ok());
  }

  server.Stop();
  EXPECT_EQ(server.connections_accepted(),
            static_cast<int64_t>(held.size()) + 2);
  EXPECT_EQ(server.write_errors(), 0);
  const ServiceCounters counters = service.counters();
  EXPECT_EQ(counters.requests, 2);
  EXPECT_EQ(counters.ok, 2);
}

// A blocking loopback connection to `port` with Nagle off; a nonzero
// `rcvbuf` caps the receive buffer (set before connecting, so the
// advertised window is small from the start). -1 on failure.
int ConnectRaw(int port, int rcvbuf = 0) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  if (rcvbuf > 0) {
    (void)::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
  }
  const int one = 1;
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

// One reply as read off a raw socket: its bytes exactly as they arrived,
// and its decoded header, rows and trailer.
struct RawReply {
  std::string bytes;
  uint64_t request_id = 0;
  ReplyHeader header;
  Relation rows;
  ReplyTrailer trailer;
};

Result<RawReply> ReadRawReply(int fd, FrameReader* reader) {
  RawReply out;
  for (bool first = true;; first = false) {
    const Result<std::string_view> body = reader->Next(fd);
    if (!body.ok()) return body.status();
    out.bytes += LengthWord(static_cast<uint32_t>(body->size()));
    out.bytes += *body;
    const Result<Frame> frame = DecodeFrameBody(*body);
    if (!frame.ok()) return frame.status();
    if (first) {
      if (frame->type != FrameType::kReplyHeader) {
        return Status::InvalidArgument("reply does not start with a header");
      }
      Result<ReplyHeader> header = DecodeReplyHeaderPayload(frame->payload);
      if (!header.ok()) return header.status();
      out.request_id = frame->request_id;
      out.header = std::move(*header);
      out.rows = Relation(Schema(out.header.attrs));
      continue;
    }
    if (frame->request_id != out.request_id) {
      return Status::InvalidArgument("reply frames interleaved");
    }
    if (frame->type == FrameType::kRowBatch) {
      if (Status s = DecodeRowBatchPayload(frame->payload, &out.rows);
          !s.ok()) {
        return s;
      }
      continue;
    }
    if (frame->type != FrameType::kTrailer) {
      return Status::InvalidArgument("unexpected frame inside a reply");
    }
    Result<ReplyTrailer> trailer = DecodeTrailerPayload(frame->payload);
    if (!trailer.ok()) return trailer.status();
    out.trailer = *trailer;
    return out;
  }
}

// The reply as the frame encoders write it one frame at a time: header,
// rows in kRowBatchRows batches, trailer.
std::string EncodedReply(const RawReply& reply) {
  std::string out = EncodeReplyHeaderFrame(reply.request_id, reply.header);
  const int64_t total = reply.rows.arity() > 0 ? reply.rows.size() : 0;
  for (int64_t first = 0; first < total; first += kRowBatchRows) {
    out += EncodeRowBatchFrame(reply.request_id, reply.rows, first,
                               std::min(kRowBatchRows, total - first));
  }
  return out + EncodeTrailerFrame(reply.request_id, reply.trailer);
}

// The trailer's statistics equal the in-process run's.
void ExpectSameStats(const ReplyTrailer& trailer, const ServiceReply& want) {
  EXPECT_EQ(trailer.tuples_produced, want.stats.tuples_produced);
  EXPECT_EQ(trailer.max_intermediate_rows, want.stats.max_intermediate_rows);
  EXPECT_EQ(trailer.peak_bytes, want.stats.peak_bytes);
  EXPECT_EQ(trailer.max_arity, want.stats.max_intermediate_arity);
  EXPECT_EQ(trailer.num_joins, want.stats.num_joins);
  EXPECT_EQ(trailer.num_projections, want.stats.num_projections);
  EXPECT_EQ(trailer.num_semijoins, want.stats.num_semijoins);
}

// Every counter accounts for exactly `ok` served requests.
void ExpectOnlyOkRequests(const QueryService& service, int64_t ok) {
  const ServiceCounters counters = service.counters();
  EXPECT_EQ(counters.requests, ok);
  EXPECT_EQ(counters.admitted, ok);
  EXPECT_EQ(counters.completed, ok);
  EXPECT_EQ(counters.ok, ok);
  EXPECT_EQ(counters.invalid, 0);
  EXPECT_EQ(counters.errors, 0);
}

TEST(ServiceServerTest, RequestWrittenOneByteAtATimeIsServed) {
  const Database db = ThreeColorDb();
  const std::string text = "pi{X, Y} edge(X, Z) & edge(Z, Y)";
  const ServiceReply expected =
      QueryService(db, ServiceConfig{}).Execute(MakeRequest(text));
  ASSERT_TRUE(expected.ok());
  QueryService service(db, ServiceConfig{});
  ServiceServer server(&service, ServerConfig{});
  ASSERT_TRUE(server.Start().ok());
  const int fds_before = ProcEntries("fd");
  const int threads_before = ProcEntries("task");

  const int fd = ConnectRaw(server.port());
  ASSERT_GE(fd, 0);
  // Each byte its own segment: the server's reads see every split of
  // the length word, the header and the payload.
  for (const char byte : EncodeRequestFrame(MakeRequest(text, 21))) {
    ASSERT_EQ(::send(fd, &byte, 1, MSG_NOSIGNAL), 1);
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  FrameReader reader;
  const Result<RawReply> reply = ReadRawReply(fd, &reader);
  ::close(fd);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->request_id, 21u);
  EXPECT_EQ(reply->header.status, ServiceStatus::kOk);
  EXPECT_TRUE(SameRelation(reply->rows, expected.output));
  ExpectSameStats(reply->trailer, expected);
  EXPECT_EQ(reply->bytes, EncodedReply(*reply));

  ExpectFlatCounts(fds_before, threads_before);
  server.Stop();
  EXPECT_EQ(server.connections_accepted(), 1);
  EXPECT_EQ(server.write_errors(), 0);
  ExpectOnlyOkRequests(service, 1);
}

TEST(ServiceServerTest, TwoRequestsInOneSendAreAnsweredInOrder) {
  const Database db = ThreeColorDb();
  const std::string first_text = "pi{X, Y} edge(X, Z) & edge(Z, Y)";
  const std::string second_text = "pi{X} edge(X, Y)";
  QueryService reference(db, ServiceConfig{});
  const ServiceReply first_expected =
      reference.Execute(MakeRequest(first_text));
  const ServiceReply second_expected =
      reference.Execute(MakeRequest(second_text));
  // One worker runs the two in arrival order.
  QueryService service(db, ServiceConfig{});
  ServiceServer server(&service, ServerConfig{});
  ASSERT_TRUE(server.Start().ok());
  const int fds_before = ProcEntries("fd");
  const int threads_before = ProcEntries("task");

  const int fd = ConnectRaw(server.port());
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(SendFrame(fd, EncodeRequestFrame(MakeRequest(first_text, 31)) +
                                EncodeRequestFrame(MakeRequest(second_text, 32)))
                  .ok());
  FrameReader reader;
  const Result<RawReply> first = ReadRawReply(fd, &reader);
  const Result<RawReply> second = ReadRawReply(fd, &reader);
  ::close(fd);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(first->request_id, 31u);
  EXPECT_EQ(second->request_id, 32u);
  EXPECT_TRUE(SameRelation(first->rows, first_expected.output));
  EXPECT_TRUE(SameRelation(second->rows, second_expected.output));
  EXPECT_EQ(first->bytes, EncodedReply(*first));
  EXPECT_EQ(second->bytes, EncodedReply(*second));

  ExpectFlatCounts(fds_before, threads_before);
  server.Stop();
  EXPECT_EQ(server.write_errors(), 0);
  ExpectOnlyOkRequests(service, 2);
}

// Reads exactly `n` bytes (no read-ahead, unlike a FrameReader).
bool RecvExactly(int fd, char* out, size_t n) {
  for (size_t got = 0; got < n;) {
    const ssize_t r = ::recv(fd, out + got, n - got, 0);
    if (r <= 0) return false;
    got += static_cast<size_t>(r);
  }
  return true;
}

TEST(ServiceServerTest, PeerThatHangsUpAfterTheHeaderIsCountedAndSurvived) {
  const Database db = ThreeColorDb();
  QueryService service(db, ServiceConfig{});
  ServiceServer server(&service, ServerConfig{});
  ASSERT_TRUE(server.Start().ok());
  const int fds_before = ProcEntries("fd");
  const int threads_before = ProcEntries("task");

  // 6^7 rows of 14 columns, about 15.7 MB: far more than the client's
  // small receive window and the server's send buffer hold, so the
  // server is still sending when the peer hangs up.
  const std::string text =
      "pi{A, B, C, D, E, F, G, H, I, J, K, L, M, N} edge(A, B) & "
      "edge(C, D) & edge(E, F) & edge(G, H) & edge(I, J) & edge(K, L) & "
      "edge(M, N)";
  const int fd = ConnectRaw(server.port(), /*rcvbuf=*/4096);
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(SendFrame(fd, EncodeRequestFrame(MakeRequest(text, 41))).ok());
  char len_word[4];
  ASSERT_TRUE(RecvExactly(fd, len_word, sizeof(len_word)));
  uint32_t len = 0;
  for (int i = 0; i < 4; ++i) {
    len |= static_cast<uint32_t>(static_cast<uint8_t>(len_word[i])) << (8 * i);
  }
  ASSERT_LE(len, kMaxFrameBytes);
  std::string body(len, '\0');
  ASSERT_TRUE(RecvExactly(fd, body.data(), body.size()));
  const Result<Frame> frame = DecodeFrameBody(body);
  ASSERT_TRUE(frame.ok());
  ASSERT_EQ(frame->type, FrameType::kReplyHeader);
  const Result<ReplyHeader> header = DecodeReplyHeaderPayload(frame->payload);
  ASSERT_TRUE(header.ok());
  EXPECT_EQ(header->status, ServiceStatus::kOk);
  EXPECT_EQ(header->attrs.size(), 14u);
  // Unread bytes in the receive queue make close() reset the connection.
  ::close(fd);

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (server.write_errors() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(server.write_errors(), 1);
  ASSERT_TRUE(ServedOnNewConnection(server.port(), 42));

  ExpectFlatCounts(fds_before, threads_before);
  server.Stop();
  EXPECT_EQ(server.connections_accepted(), 2);
  EXPECT_EQ(server.write_errors(), 1);
  // The service answered both; only the socket write of the first failed.
  ExpectOnlyOkRequests(service, 2);
}

TEST(ServiceServerTest, OverCapLengthPrefixClosesTheConnection) {
  const Database db = ThreeColorDb();
  QueryService service(db, ServiceConfig{});
  ServiceServer server(&service, ServerConfig{});
  ASSERT_TRUE(server.Start().ok());
  const int fds_before = ProcEntries("fd");
  const int threads_before = ProcEntries("task");

  // The reader refuses the length before growing its buffer for the body
  // (FrameReaderTest.OverCapLengthFailsBeforeGrowing); the server then
  // ends the connection.
  const int fd = ConnectRaw(server.port());
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(SendFrame(fd, LengthWord(kMaxFrameBytes + 1) + "body").ok());
  const timeval timeout{10, 0};
  ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout,
                         sizeof(timeout)),
            0);
  char byte = 0;
  EXPECT_EQ(::recv(fd, &byte, 1, 0), 0);  // EOF: the server hung up
  ::close(fd);
  ASSERT_TRUE(ServedOnNewConnection(server.port(), 51));

  ExpectFlatCounts(fds_before, threads_before);
  server.Stop();
  EXPECT_EQ(server.connections_accepted(), 2);
  EXPECT_EQ(server.write_errors(), 0);
  ExpectOnlyOkRequests(service, 1);
}

TEST(ServiceServerTest, FiveThousandRowReplySpansSeveralBatches) {
  // 5000 distinct 4-column rows: five row batches and about 80 KB, so
  // the reply also crosses the server's early-flush size.
  Database db;
  Relation big((Schema({0, 1, 2, 3})));
  for (Value i = 0; i < 5000; ++i) big.AddTuple({i, i % 7, i % 11, 5000 - i});
  db.Put("big", std::move(big));
  const std::string text = "pi{A, B, C, D} big(A, B, C, D)";
  const ServiceReply expected =
      QueryService(db, ServiceConfig{}).Execute(MakeRequest(text));
  ASSERT_TRUE(expected.ok());
  ASSERT_EQ(expected.output.size(), 5000);
  QueryService service(db, ServiceConfig{});
  ServiceServer server(&service, ServerConfig{});
  ASSERT_TRUE(server.Start().ok());
  const int fds_before = ProcEntries("fd");
  const int threads_before = ProcEntries("task");

  const int fd = ConnectRaw(server.port());
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(SendFrame(fd, EncodeRequestFrame(MakeRequest(text, 61))).ok());
  FrameReader reader;
  const Result<RawReply> reply = ReadRawReply(fd, &reader);
  ::close(fd);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_TRUE(SameRelation(reply->rows, expected.output));
  ExpectSameStats(reply->trailer, expected);
  EXPECT_GT(reply->bytes.size(), kReplyFlushBytes);
  EXPECT_EQ(reply->bytes, EncodedReply(*reply));

  // The same answer through ServiceClient.
  Result<ServiceClient> client = ServiceClient::Connect("127.0.0.1",
                                                        server.port());
  ASSERT_TRUE(client.ok());
  const Result<ServiceReply> called = client->Call(MakeRequest(text, 62));
  ASSERT_TRUE(called.ok()) << called.status().ToString();
  EXPECT_TRUE(SameRelation(called->output, expected.output));
  EXPECT_EQ(called->stats.tuples_produced, expected.stats.tuples_produced);
  client->Close();

  ExpectFlatCounts(fds_before, threads_before);
  server.Stop();
  EXPECT_EQ(server.write_errors(), 0);
  ExpectOnlyOkRequests(service, 2);
}

}  // namespace
}  // namespace ppr
