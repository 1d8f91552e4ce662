// Real-socket byte transport for the scheduling service.
//
// SocketTransport runs the Transport seam (transport.hpp) over a
// connected TCP or Unix-domain stream socket, so everything written
// against that seam — framing, SchedulerService, SchedulerClient,
// ChaosTransport, the circuit breaker — works unchanged over the wire.
//
// Contract mapping onto a real fd:
//  * write() delivers the whole span as one atomic unit under a write
//    mutex; the fd is non-blocking, so a peer that stops draining its
//    receive window turns into a bounded poll(POLLOUT) stall and then a
//    TransportError instead of a silent hang.
//  * read_partial() keeps a staging buffer: bytes received past a
//    deadline stay staged for the next call, preserving the seam's
//    "timeout consumes nothing" guarantee on a stream that cannot give
//    bytes back.
//  * Orderly shutdown and abrupt reset (ECONNRESET) both surface as the
//    `closed` outcome, which the framing layer maps onto the
//    FrameTruncationError taxonomy (peer-closed mid-frame) exactly as
//    it does for the in-memory Pipe.
//  * close() shuts both directions (waking any blocked poll) and is
//    idempotent; the fd itself is released by the destructor.
//
// SocketListener owns a listening fd (TCP on 127.0.0.1 with an
// ephemeral-port option, or a Unix path it unlinks on teardown) and
// hands out accepted SocketTransports. connect_tcp / connect_unix /
// connect_endpoint are the client-side counterparts.
// Metrics (serve.socket.*): see docs/OBSERVABILITY.md.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "serve/transport.hpp"

namespace dls::serve {

struct SocketConfig {
  /// How long one write() may sit in poll(POLLOUT) waiting for the
  /// peer to drain its window before the stalled send becomes a
  /// TransportError. This bounds the effective send buffer: kernel
  /// buffer plus at most this much stall per write.
  double write_stall_timeout_s = 5.0;
};

/// One end of a connected stream socket. Takes ownership of the fd.
class SocketTransport final : public Transport {
 public:
  /// Wraps a connected socket fd (made non-blocking here). `label` is
  /// carried into error messages ("tcp:127.0.0.1:4242", "unix:/tmp/x").
  explicit SocketTransport(int fd, std::string label = "socket",
                           SocketConfig config = SocketConfig{});
  ~SocketTransport() override;

  SocketTransport(const SocketTransport&) = delete;
  SocketTransport& operator=(const SocketTransport&) = delete;
  SocketTransport(SocketTransport&&) = delete;
  SocketTransport& operator=(SocketTransport&&) = delete;

  /// Sends `data` as one atomic unit (serialised against concurrent
  /// writers). Throws TransportError on close, peer reset, or a send
  /// stalled past SocketConfig::write_stall_timeout_s.
  void write(std::span<const std::uint8_t> data) override;

  /// Blocks until out.size() bytes arrived. Returns false on clean EOF
  /// at a unit boundary; throws TransportError on a close mid-unit.
  bool read_exact(std::span<std::uint8_t> out) override;

  /// Timed read; see Transport::read_partial. Bytes that arrive after
  /// the deadline lapses are staged internally, so a timeout consumes
  /// nothing from the caller's point of view.
  ReadOutcome read_partial(std::span<std::uint8_t> out,
                           double timeout_s) override;

  /// Shuts down both directions and wakes blocked reads/writes.
  /// Idempotent; the fd is closed by the destructor.
  void close() noexcept override;

  bool valid() const noexcept override;

  const std::string& label() const noexcept { return label_; }

 private:
  /// Pulls bytes off the socket into staged_ until it holds `want`
  /// bytes, the deadline lapses, or the stream ends. Caller holds
  /// read_mutex_. Returns false on deadline (peer may still be alive).
  bool stage_until(std::size_t want, double timeout_s);

  int fd_ = -1;
  std::string label_;
  SocketConfig config_;
  std::atomic<bool> closed_{false};

  std::mutex write_mutex_;

  std::mutex read_mutex_;
  std::vector<std::uint8_t> staged_;  ///< received, not yet consumed
  bool peer_eof_ = false;             ///< recv saw EOF / reset
};

/// A listening TCP or Unix-domain socket handing out accepted
/// SocketTransports. Move-only; closing unlinks a Unix socket path.
class SocketListener {
 public:
  SocketListener() = default;
  ~SocketListener();

  SocketListener(const SocketListener&) = delete;
  SocketListener& operator=(const SocketListener&) = delete;
  SocketListener(SocketListener&& other) noexcept;
  SocketListener& operator=(SocketListener&& other) noexcept;

  /// Listens on 127.0.0.1:`port`; port 0 binds an ephemeral port
  /// (readable via port() / endpoint()). Throws TransportError.
  static SocketListener listen_tcp(std::uint16_t port);

  /// Listens on a Unix-domain socket at `path`, replacing any stale
  /// socket file there. Throws TransportError.
  static SocketListener listen_unix(const std::string& path);

  /// Accepts one connection, waiting up to `timeout_s` seconds (<= 0
  /// waits forever). Returns nullptr on timeout or once the listener
  /// is closed; throws TransportError on an unexpected accept failure.
  std::unique_ptr<SocketTransport> accept(
      double timeout_s = -1.0, SocketConfig config = SocketConfig{});

  /// The bound TCP port (0 for Unix listeners).
  std::uint16_t port() const noexcept { return port_; }

  /// "tcp:127.0.0.1:PORT" or "unix:PATH" — accepted verbatim by
  /// connect_endpoint().
  const std::string& endpoint() const noexcept { return endpoint_; }

  /// Stops accepting and wakes a blocked accept(). Idempotent.
  void close() noexcept;

  bool valid() const noexcept { return fd_ >= 0 && !closed_; }

 private:
  int fd_ = -1;
  std::uint16_t port_ = 0;
  std::string endpoint_;
  std::string unix_path_;  ///< unlinked on close when non-empty
  std::atomic<bool> closed_{false};  ///< close() races a blocked accept()
};

/// Connects to `host`:`port` (numeric IPv4, e.g. "127.0.0.1") within
/// `timeout_s` seconds. Throws TransportError on refusal or timeout.
std::unique_ptr<SocketTransport> connect_tcp(
    const std::string& host, std::uint16_t port, double timeout_s = 5.0,
    SocketConfig config = SocketConfig{});

/// Connects to the Unix-domain socket at `path`.
std::unique_ptr<SocketTransport> connect_unix(
    const std::string& path, double timeout_s = 5.0,
    SocketConfig config = SocketConfig{});

/// Connects to a SocketListener::endpoint() string — "tcp:HOST:PORT"
/// or "unix:PATH". Throws TransportError on a malformed endpoint.
std::unique_ptr<SocketTransport> connect_endpoint(
    const std::string& endpoint, double timeout_s = 5.0,
    SocketConfig config = SocketConfig{});

}  // namespace dls::serve
