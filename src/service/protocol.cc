#include "service/protocol.h"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstring>

#include "common/check.h"

namespace ppr {
namespace {

// Row batches carry a relation's row-major Values byte for byte, so the
// host's Value layout must be the wire's: 32-bit little-endian.
static_assert(std::endian::native == std::endian::little &&
              sizeof(Value) == 4);

void PutU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}

void PutU32(std::string* out, uint32_t v) {
  char bytes[4];
  for (int i = 0; i < 4; ++i) bytes[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  out->append(bytes, sizeof(bytes));
}

void PutU64(std::string* out, uint64_t v) {
  char bytes[8];
  for (int i = 0; i < 8; ++i) bytes[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  out->append(bytes, sizeof(bytes));
}

void PutI32(std::string* out, int32_t v) { PutU32(out, static_cast<uint32_t>(v)); }
void PutI64(std::string* out, int64_t v) { PutU64(out, static_cast<uint64_t>(v)); }

void PutString(std::string* out, const std::string& s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->append(s);
}

uint32_t LoadU32(const char* p) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<uint8_t>(p[i])) << (8 * i);
  }
  return v;
}

/// Bounds-checked little-endian reader over a payload view.
class Cursor {
 public:
  explicit Cursor(std::string_view data) : data_(data) {}

  bool ReadU8(uint8_t* v) {
    if (pos_ + 1 > data_.size()) return false;
    *v = static_cast<uint8_t>(data_[pos_++]);
    return true;
  }

  bool ReadU32(uint32_t* v) {
    if (pos_ + 4 > data_.size()) return false;
    *v = LoadU32(data_.data() + pos_);
    pos_ += 4;
    return true;
  }

  bool ReadU64(uint64_t* v) {
    if (pos_ + 8 > data_.size()) return false;
    *v = 0;
    for (int i = 0; i < 8; ++i) {
      *v |= static_cast<uint64_t>(static_cast<uint8_t>(data_[pos_ + i])) << (8 * i);
    }
    pos_ += 8;
    return true;
  }

  bool ReadI32(int32_t* v) {
    uint32_t u = 0;
    if (!ReadU32(&u)) return false;
    *v = static_cast<int32_t>(u);
    return true;
  }

  bool ReadI64(int64_t* v) {
    uint64_t u = 0;
    if (!ReadU64(&u)) return false;
    *v = static_cast<int64_t>(u);
    return true;
  }

  bool ReadString(std::string* s) {
    uint32_t len = 0;
    if (!ReadU32(&len)) return false;
    if (pos_ + len > data_.size()) return false;
    s->assign(data_.substr(pos_, len));
    pos_ += len;
    return true;
  }

  bool AtEnd() const { return pos_ == data_.size(); }
  size_t remaining() const { return data_.size() - pos_; }

 private:
  std::string_view data_;
  size_t pos_ = 0;
};

/// Starts a frame at the end of `out`: reserves the length word and
/// writes type + id. Returns the frame's offset, which FinishFrame takes
/// to backpatch the length once the payload is appended.
size_t BeginFrame(std::string* out, FrameType type, uint64_t request_id) {
  const size_t start = out->size();
  PutU32(out, 0);  // length placeholder
  PutU8(out, static_cast<uint8_t>(type));
  PutU64(out, request_id);
  return start;
}

void FinishFrame(std::string* out, size_t start) {
  const uint32_t body = static_cast<uint32_t>(out->size() - start - 4);
  PPR_CHECK(body <= kMaxFrameBytes);
  for (int i = 0; i < 4; ++i) {
    (*out)[start + static_cast<size_t>(i)] =
        static_cast<char>((body >> (8 * i)) & 0xff);
  }
}

}  // namespace

const char* ServiceStatusName(ServiceStatus status) {
  switch (status) {
    case ServiceStatus::kOk: return "ok";
    case ServiceStatus::kInvalid: return "invalid";
    case ServiceStatus::kRejected: return "rejected";
    case ServiceStatus::kOverloaded: return "overloaded";
    case ServiceStatus::kDeadlineExceeded: return "deadline_exceeded";
    case ServiceStatus::kBudgetExhausted: return "budget_exhausted";
    case ServiceStatus::kError: return "error";
    case ServiceStatus::kShuttingDown: return "shutting_down";
  }
  return "unknown";
}

void AppendRequestFrame(std::string* out, const ServiceRequest& request) {
  const size_t start = BeginFrame(out, FrameType::kRequest, request.request_id);
  PutU64(out, request.client_id);
  PutI32(out, request.strategy);
  PutU64(out, request.seed);
  PutU64(out, request.tuple_budget);
  PutU32(out, request.deadline_ms);
  PutString(out, request.query_text);
  FinishFrame(out, start);
}

void AppendReplyHeaderFrame(std::string* out, uint64_t request_id,
                            const ReplyHeader& header) {
  const size_t start = BeginFrame(out, FrameType::kReplyHeader, request_id);
  PutU8(out, static_cast<uint8_t>(header.status));
  PutI32(out, header.status_code);
  PutU8(out, header.cache_hit ? 1 : 0);
  PutI32(out, header.predicted_width);
  PutU32(out, static_cast<uint32_t>(header.attrs.size()));
  for (const AttrId attr : header.attrs) PutI32(out, attr);
  PutString(out, header.message);
  FinishFrame(out, start);
}

void AppendRowBatchFrame(std::string* out, uint64_t request_id,
                         const Relation& rows, int64_t first, int64_t count) {
  PPR_CHECK(rows.arity() > 0 && first >= 0 && count >= 0 &&
            first + count <= rows.size());
  const size_t start = BeginFrame(out, FrameType::kRowBatch, request_id);
  PutU32(out, static_cast<uint32_t>(count));
  // Rows are row-major Values, already in wire order: one copy.
  const int64_t arity = rows.arity();
  out->append(reinterpret_cast<const char*>(rows.data() + first * arity),
              static_cast<size_t>(count * arity) * sizeof(Value));
  FinishFrame(out, start);
}

void AppendTrailerFrame(std::string* out, uint64_t request_id,
                        const ReplyTrailer& trailer) {
  const size_t start = BeginFrame(out, FrameType::kTrailer, request_id);
  PutU8(out, trailer.nonempty ? 1 : 0);
  PutI64(out, trailer.tuples_produced);
  PutI64(out, trailer.max_intermediate_rows);
  PutI64(out, trailer.peak_bytes);
  PutI32(out, trailer.max_arity);
  PutI64(out, trailer.num_joins);
  PutI64(out, trailer.num_projections);
  PutI64(out, trailer.num_semijoins);
  PutI64(out, trailer.wall_ns);
  PutI64(out, trailer.queue_ns);
  FinishFrame(out, start);
}

std::string EncodeRequestFrame(const ServiceRequest& request) {
  std::string out;
  AppendRequestFrame(&out, request);
  return out;
}

std::string EncodeReplyHeaderFrame(uint64_t request_id,
                                   const ReplyHeader& header) {
  std::string out;
  AppendReplyHeaderFrame(&out, request_id, header);
  return out;
}

std::string EncodeRowBatchFrame(uint64_t request_id, const Relation& rows,
                                int64_t first, int64_t count) {
  std::string out;
  AppendRowBatchFrame(&out, request_id, rows, first, count);
  return out;
}

std::string EncodeTrailerFrame(uint64_t request_id,
                               const ReplyTrailer& trailer) {
  std::string out;
  AppendTrailerFrame(&out, request_id, trailer);
  return out;
}

Result<Frame> DecodeFrameBody(std::string_view body) {
  Cursor cur(body);
  uint8_t type = 0;
  Frame frame;
  if (!cur.ReadU8(&type) || !cur.ReadU64(&frame.request_id)) {
    return Status::InvalidArgument("frame body truncated before payload");
  }
  switch (type) {
    case static_cast<uint8_t>(FrameType::kRequest):
    case static_cast<uint8_t>(FrameType::kReplyHeader):
    case static_cast<uint8_t>(FrameType::kRowBatch):
    case static_cast<uint8_t>(FrameType::kTrailer):
      frame.type = static_cast<FrameType>(type);
      break;
    default:
      return Status::InvalidArgument("unknown frame type " +
                                     std::to_string(type));
  }
  frame.payload = body.substr(body.size() - cur.remaining());
  return frame;
}

Result<ServiceRequest> DecodeRequestPayload(std::string_view payload,
                                            uint64_t request_id) {
  Cursor cur(payload);
  ServiceRequest req;
  req.request_id = request_id;
  if (!cur.ReadU64(&req.client_id) || !cur.ReadI32(&req.strategy) ||
      !cur.ReadU64(&req.seed) || !cur.ReadU64(&req.tuple_budget) ||
      !cur.ReadU32(&req.deadline_ms) || !cur.ReadString(&req.query_text) ||
      !cur.AtEnd()) {
    return Status::InvalidArgument("malformed request payload");
  }
  return req;
}

Result<ReplyHeader> DecodeReplyHeaderPayload(std::string_view payload) {
  Cursor cur(payload);
  ReplyHeader header;
  uint8_t status = 0;
  uint8_t cache_hit = 0;
  uint32_t arity = 0;
  if (!cur.ReadU8(&status) || !cur.ReadI32(&header.status_code) ||
      !cur.ReadU8(&cache_hit) || !cur.ReadI32(&header.predicted_width) ||
      !cur.ReadU32(&arity)) {
    return Status::InvalidArgument("malformed reply header");
  }
  if (status > static_cast<uint8_t>(ServiceStatus::kShuttingDown)) {
    return Status::InvalidArgument("unknown service status " +
                                   std::to_string(status));
  }
  header.status = static_cast<ServiceStatus>(status);
  header.cache_hit = cache_hit != 0;
  // Each attribute takes 4 bytes: refuse a count the payload cannot
  // hold before allocating for it.
  if (arity > cur.remaining() / 4) {
    return Status::InvalidArgument("malformed reply header schema");
  }
  header.attrs.resize(arity);
  for (uint32_t i = 0; i < arity; ++i) {
    if (!cur.ReadI32(&header.attrs[i])) {
      return Status::InvalidArgument("malformed reply header schema");
    }
  }
  if (!cur.ReadString(&header.message) || !cur.AtEnd()) {
    return Status::InvalidArgument("malformed reply header message");
  }
  return header;
}

Result<ReplyTrailer> DecodeTrailerPayload(std::string_view payload) {
  Cursor cur(payload);
  ReplyTrailer trailer;
  uint8_t nonempty = 0;
  if (!cur.ReadU8(&nonempty) || !cur.ReadI64(&trailer.tuples_produced) ||
      !cur.ReadI64(&trailer.max_intermediate_rows) ||
      !cur.ReadI64(&trailer.peak_bytes) || !cur.ReadI32(&trailer.max_arity) ||
      !cur.ReadI64(&trailer.num_joins) ||
      !cur.ReadI64(&trailer.num_projections) ||
      !cur.ReadI64(&trailer.num_semijoins) || !cur.ReadI64(&trailer.wall_ns) ||
      !cur.ReadI64(&trailer.queue_ns) || !cur.AtEnd()) {
    return Status::InvalidArgument("malformed trailer payload");
  }
  trailer.nonempty = nonempty != 0;
  return trailer;
}

Status DecodeRowBatchPayload(std::string_view payload, Relation* out) {
  Cursor cur(payload);
  uint32_t nrows = 0;
  if (!cur.ReadU32(&nrows)) {
    return Status::InvalidArgument("malformed row batch");
  }
  const int arity = out->arity();
  if (arity <= 0) {
    return Status::InvalidArgument("row batch for nullary result");
  }
  if (cur.remaining() != static_cast<size_t>(nrows) *
                             static_cast<size_t>(arity) * sizeof(Value)) {
    return Status::InvalidArgument("row batch size mismatch");
  }
  if (nrows == 0) return Status::Ok();
  std::memcpy(out->GrowRows(static_cast<int64_t>(nrows)),
              payload.data() + (payload.size() - cur.remaining()),
              cur.remaining());
  return Status::Ok();
}

Status SendFrame(int fd, std::string_view bytes) {
  size_t sent = 0;
  while (sent < bytes.size()) {
    // MSG_NOSIGNAL: a peer that hung up mid-response must surface as an
    // error return, not a process-killing SIGPIPE.
    const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return Status::Internal(std::string("send failed: ") +
                              std::strerror(errno));
    }
    sent += static_cast<size_t>(n);
  }
  return Status::Ok();
}

Result<std::string_view> FrameReader::Next(int fd) {
  // The previous frame's view is dead now: give back the room an
  // oversized frame took, once what is still unread fits a chunk.
  if (capacity_ > kReadChunkBytes && end_ - begin_ <= kReadChunkBytes) {
    Reallocate(kReadChunkBytes);
  }
  Result<bool> got = Fill(fd, 4, /*eof_ok=*/true);
  if (!got.ok()) return got.status();
  if (!*got) return Status::NotFound("connection closed");
  const uint32_t len = LoadU32(buf_.get() + begin_);
  if (len > kMaxFrameBytes) {
    return Status::InvalidArgument("frame length " + std::to_string(len) +
                                   " exceeds cap " +
                                   std::to_string(kMaxFrameBytes));
  }
  const size_t frame_bytes = 4 + static_cast<size_t>(len);
  got = Fill(fd, frame_bytes, /*eof_ok=*/false);
  if (!got.ok()) return got.status();
  const std::string_view body(buf_.get() + begin_ + 4, len);
  begin_ += frame_bytes;
  PPR_DCHECK(begin_ <= end_);
  return body;
}

Result<bool> FrameReader::Fill(int fd, size_t want, bool eof_ok) {
  PPR_DCHECK(begin_ <= end_ && end_ <= capacity_);
  if (end_ - begin_ >= want) return true;
  if (begin_ == end_) begin_ = end_ = 0;
  if (begin_ + want > capacity_) {
    if (want <= capacity_) {
      // Room enough, but behind consumed bytes: slide the unread ones to
      // the front.
      std::memmove(buf_.get(), buf_.get() + begin_, end_ - begin_);
      end_ -= begin_;
      begin_ = 0;
    } else {
      Reallocate(std::max(want, kReadChunkBytes));
    }
  }
  PPR_DCHECK(begin_ + want <= capacity_);
  while (end_ - begin_ < want) {
    const ssize_t n = ::recv(fd, buf_.get() + end_, capacity_ - end_, 0);
    if (n == 0) {
      if (eof_ok && end_ == begin_) return false;
      return Status::InvalidArgument("connection closed mid-frame");
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Internal(std::string("recv failed: ") +
                              std::strerror(errno));
    }
    end_ += static_cast<size_t>(n);
  }
  PPR_DCHECK(end_ <= capacity_);
  return true;
}

void FrameReader::Reallocate(size_t capacity) {
  const size_t unread = end_ - begin_;
  PPR_DCHECK(unread <= capacity);
  auto buf = std::make_unique_for_overwrite<char[]>(capacity);
  if (unread > 0) std::memcpy(buf.get(), buf_.get() + begin_, unread);
  buf_ = std::move(buf);
  capacity_ = capacity;
  begin_ = 0;
  end_ = unread;
}

}  // namespace ppr
