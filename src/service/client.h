#ifndef PPR_SERVICE_CLIENT_H_
#define PPR_SERVICE_CLIENT_H_

#include <cstdint>
#include <string>
#include <utility>

#include "common/status.h"
#include "service/protocol.h"
#include "service/service.h"

namespace ppr {

/// Blocking client for the query service protocol: one connection, one
/// outstanding request at a time (Call is a full round trip). The load
/// generator runs many clients, each on its own connection — the
/// closed-loop shape — rather than pipelining on one.
class ServiceClient {
 public:
  ServiceClient() = default;
  ~ServiceClient() { Close(); }

  ServiceClient(ServiceClient&& other) noexcept
      : fd_(std::exchange(other.fd_, -1)),
        reader_(std::move(other.reader_)),
        send_buf_(std::move(other.send_buf_)) {}
  ServiceClient& operator=(ServiceClient&& other) noexcept {
    if (this != &other) {
      Close();
      fd_ = std::exchange(other.fd_, -1);
      reader_ = std::move(other.reader_);
      send_buf_ = std::move(other.send_buf_);
    }
    return *this;
  }
  ServiceClient(const ServiceClient&) = delete;
  ServiceClient& operator=(const ServiceClient&) = delete;

  static Result<ServiceClient> Connect(const std::string& host, int port);

  bool connected() const { return fd_ >= 0; }
  void Close();

  /// Sends `request` and reads the full response (header, row batches,
  /// trailer) into a ServiceReply — the same struct in-process callers
  /// get, which is what the byte-identity checks compare. The request is
  /// one send; a small response is usually one recv. An error
  /// Status means the *transport or protocol* failed; service-level
  /// refusals (shed, rejected, deadline) are OK results with the
  /// corresponding ServiceStatus.
  Result<ServiceReply> Call(const ServiceRequest& request);

 private:
  explicit ServiceClient(int fd) : fd_(fd) {}

  int fd_ = -1;
  /// Buffers the connection's reply bytes across frames.
  FrameReader reader_;
  /// Reused encoding buffer for request frames.
  std::string send_buf_;
};

}  // namespace ppr

#endif  // PPR_SERVICE_CLIENT_H_
