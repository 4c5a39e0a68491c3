#include "service/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <span>

#include "relational/schema.h"

namespace ppr {

Result<ServiceClient> ServiceClient::Connect(const std::string& host,
                                             int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::Internal(std::string("socket failed: ") +
                            std::strerror(errno));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("unparseable host " + host);
  }
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const std::string detail = std::strerror(errno);
    ::close(fd);
    return Status::Unavailable("connect to " + host + ":" +
                               std::to_string(port) + " failed: " + detail);
  }
  // One small request frame per round trip: disable Nagle so the write
  // is not held hostage to the peer's delayed ACK.
  const int one = 1;
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return ServiceClient(fd);
}

void ServiceClient::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  reader_ = FrameReader();
}

Result<ServiceReply> ServiceClient::Call(const ServiceRequest& request) {
  if (fd_ < 0) return Status::Internal("client is not connected");
  send_buf_.clear();
  AppendRequestFrame(&send_buf_, request);
  if (Status sent = SendFrame(fd_, send_buf_); !sent.ok()) return sent;

  // Header first.
  Result<std::string_view> body = reader_.Next(fd_);
  if (!body.ok()) return body.status();
  Result<Frame> frame = DecodeFrameBody(*body);
  if (!frame.ok()) return frame.status();
  if (frame->type != FrameType::kReplyHeader) {
    return Status::InvalidArgument("expected a reply header frame");
  }
  if (frame->request_id != request.request_id) {
    return Status::InvalidArgument(
        "response id " + std::to_string(frame->request_id) +
        " does not match request id " + std::to_string(request.request_id));
  }
  Result<ReplyHeader> header = DecodeReplyHeaderPayload(frame->payload);
  if (!header.ok()) return header.status();

  ServiceReply reply;
  reply.status = header->status;
  reply.cache_hit = header->cache_hit;
  reply.predicted_width = header->predicted_width;
  if (header->status_code != 0) {
    if (header->status_code < 0 ||
        header->status_code > static_cast<int32_t>(StatusCode::kUnavailable)) {
      return Status::InvalidArgument("unknown status code " +
                                     std::to_string(header->status_code));
    }
    reply.detail = Status(static_cast<StatusCode>(header->status_code),
                          header->message);
  }
  if (reply.ok()) {
    reply.output = Relation(Schema(header->attrs));
  }

  // Row batches until the trailer.
  while (true) {
    body = reader_.Next(fd_);
    if (!body.ok()) return body.status();
    frame = DecodeFrameBody(*body);
    if (!frame.ok()) return frame.status();
    if (frame->request_id != request.request_id) {
      return Status::InvalidArgument("response frames interleaved");
    }
    if (frame->type == FrameType::kRowBatch) {
      if (!reply.ok()) {
        return Status::InvalidArgument("row batch on a non-OK response");
      }
      if (Status appended = DecodeRowBatchPayload(frame->payload,
                                                  &reply.output);
          !appended.ok()) {
        return appended;
      }
      continue;
    }
    if (frame->type != FrameType::kTrailer) {
      return Status::InvalidArgument("unexpected frame inside a response");
    }
    Result<ReplyTrailer> trailer = DecodeTrailerPayload(frame->payload);
    if (!trailer.ok()) return trailer.status();
    reply.stats.tuples_produced = trailer->tuples_produced;
    reply.stats.max_intermediate_rows = trailer->max_intermediate_rows;
    reply.stats.peak_bytes = trailer->peak_bytes;
    reply.stats.max_intermediate_arity = trailer->max_arity;
    reply.stats.num_joins = trailer->num_joins;
    reply.stats.num_projections = trailer->num_projections;
    reply.stats.num_semijoins = trailer->num_semijoins;
    reply.wall_ns = trailer->wall_ns;
    reply.queue_ns = trailer->queue_ns;
    // Boolean answers have no row batches; the trailer carries the bit.
    if (reply.ok() && reply.output.arity() == 0 && trailer->nonempty) {
      reply.output.AddTuple(std::span<const Value>{});
    }
    return reply;
  }
}

}  // namespace ppr
