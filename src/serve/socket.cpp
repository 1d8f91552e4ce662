#include "serve/socket.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <system_error>
#include <utility>

#include "common/error.hpp"
#include "obs/obs.hpp"

namespace dls::serve {

namespace {

using Clock = std::chrono::steady_clock;

std::string errno_text(int err) {
  return std::generic_category().message(err);
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    throw TransportError("fcntl(O_NONBLOCK) failed: " + errno_text(errno));
  }
}

void set_cloexec(int fd) { ::fcntl(fd, F_SETFD, FD_CLOEXEC); }

/// Disables Nagle so small request/response frames are not batched
/// behind delayed ACKs. No-op (EOPNOTSUPP) on Unix-domain sockets.
void set_nodelay(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

/// Remaining poll budget in whole milliseconds; -1 = wait forever.
/// Rounds up so a positive remainder never degenerates to a busy loop.
int poll_budget_ms(bool forever, Clock::time_point deadline) {
  if (forever) return -1;
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
      deadline - Clock::now());
  const auto ms = left.count();
  if (ms <= 0) return 0;
  return static_cast<int>(std::min<long long>(ms + 1, 60'000));
}

/// Waits for `events` on `fd`. Returns false when the deadline lapsed
/// first. EINTR restarts against the same deadline.
bool poll_for(int fd, short events, bool forever,
              Clock::time_point deadline) {
  for (;;) {
    pollfd pfd{};
    pfd.fd = fd;
    pfd.events = events;
    const int budget = poll_budget_ms(forever, deadline);
    if (budget == 0) return false;
    const int rc = ::poll(&pfd, 1, budget);
    if (rc > 0) return true;
    if (rc == 0) {
      if (!forever) return false;
      continue;
    }
    if (errno == EINTR) continue;
    throw TransportError("poll failed: " + errno_text(errno));
  }
}

sockaddr_un make_unix_addr(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.empty() || path.size() >= sizeof(addr.sun_path)) {
    throw TransportError("unix socket path unusable (empty or longer than " +
                         std::to_string(sizeof(addr.sun_path) - 1) +
                         " bytes): \"" + path + "\"");
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

/// Completes a non-blocking connect within the deadline and verifies
/// SO_ERROR. Closes `fd` and throws on failure.
void finish_connect(int fd, const std::string& label, double timeout_s) {
  const bool forever = timeout_s <= 0.0;
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(
                             forever ? 0.0 : timeout_s));
  if (!poll_for(fd, POLLOUT, forever, deadline)) {
    ::close(fd);
    throw TransportError("connect to " + label + " timed out");
  }
  int err = 0;
  socklen_t len = sizeof(err);
  if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) < 0) {
    err = errno;
  }
  if (err != 0) {
    ::close(fd);
    throw TransportError("connect to " + label +
                         " failed: " + errno_text(err));
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// SocketTransport

SocketTransport::SocketTransport(int fd, std::string label,
                                 SocketConfig config)
    : fd_(fd), label_(std::move(label)), config_(config) {
  DLS_REQUIRE(fd_ >= 0, "SocketTransport needs a valid fd");
  set_nonblocking(fd_);
  set_cloexec(fd_);
  set_nodelay(fd_);
}

SocketTransport::~SocketTransport() {
  close();
  // Serialise against in-flight reads/writes before releasing the fd so
  // a concurrent recv/send never races a kernel fd-number reuse.
  std::scoped_lock lock(write_mutex_, read_mutex_);
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void SocketTransport::write(std::span<const std::uint8_t> data) {
  std::lock_guard<std::mutex> lock(write_mutex_);
  if (closed_.load(std::memory_order_acquire)) {
    throw TransportError("write on closed socket " + label_);
  }
  const bool forever = config_.write_stall_timeout_s <= 0.0;
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(fd_, data.data() + sent, data.size() - sent,
                             MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      DLS_COUNT("serve.socket.tx_bytes", static_cast<std::uint64_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      // The send buffer is full: the bounded-stall wait. Each stall
      // gets a fresh budget so the bound is per-flow-control event,
      // not amortised over the whole (possibly large) span.
      const auto deadline =
          Clock::now() + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(
                                 forever ? 0.0
                                         : config_.write_stall_timeout_s));
      DLS_COUNT("serve.socket.write_stalls");
      if (poll_for(fd_, POLLOUT, forever, deadline)) continue;
      DLS_COUNT("serve.socket.write_stall_aborts");
      throw TransportError(
          "send on " + label_ + " stalled past " +
          std::to_string(config_.write_stall_timeout_s) +
          "s with the peer's receive window full (" +
          std::to_string(sent) + " of " + std::to_string(data.size()) +
          " bytes sent)");
    }
    if (n < 0 && (errno == EPIPE || errno == ECONNRESET)) {
      DLS_COUNT("serve.socket.peer_resets");
      throw TransportError("peer closed " + label_ + " during a write (" +
                           std::to_string(sent) + " of " +
                           std::to_string(data.size()) + " bytes sent)");
    }
    if (closed_.load(std::memory_order_acquire)) {
      throw TransportError("write on closed socket " + label_);
    }
    throw TransportError("send on " + label_ +
                         " failed: " + errno_text(errno));
  }
}

bool SocketTransport::stage_until(std::size_t want, double timeout_s) {
  const bool forever = timeout_s <= 0.0;
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(
                             forever ? 0.0 : timeout_s));
  while (staged_.size() < want && !peer_eof_) {
    if (closed_.load(std::memory_order_acquire)) {
      // Local close: whatever is already staged drains, then EOF —
      // the same discipline ByteQueue applies.
      peer_eof_ = true;
      break;
    }
    const std::size_t old = staged_.size();
    staged_.resize(want);
    const ssize_t n = ::recv(fd_, staged_.data() + old, want - old, 0);
    if (n > 0) {
      staged_.resize(old + static_cast<std::size_t>(n));
      DLS_COUNT("serve.socket.rx_bytes", static_cast<std::uint64_t>(n));
      continue;
    }
    staged_.resize(old);
    if (n == 0) {
      peer_eof_ = true;
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      if (!poll_for(fd_, POLLIN, forever, deadline)) return false;
      continue;
    }
    if (errno == ECONNRESET) {
      // An abrupt reset ends the stream just like an orderly FIN; the
      // framing layer turns a mid-frame end into FrameTruncationError.
      DLS_COUNT("serve.socket.peer_resets");
      peer_eof_ = true;
      break;
    }
    if (closed_.load(std::memory_order_acquire)) {
      peer_eof_ = true;
      break;
    }
    throw TransportError("recv on " + label_ +
                         " failed: " + errno_text(errno));
  }
  return true;
}

ReadOutcome SocketTransport::read_partial(std::span<std::uint8_t> out,
                                          double timeout_s) {
  std::lock_guard<std::mutex> lock(read_mutex_);
  if (!stage_until(out.size(), timeout_s)) {
    return ReadOutcome{};  // deadline lapsed; staged bytes stay staged
  }
  ReadOutcome outcome;
  if (staged_.size() >= out.size()) {
    std::copy_n(staged_.begin(), out.size(), out.begin());
    staged_.erase(staged_.begin(),
                  staged_.begin() + static_cast<std::ptrdiff_t>(out.size()));
    outcome.received = out.size();
    outcome.complete = true;
    return outcome;
  }
  // Stream ended short of the span: consume what arrived and report it.
  std::copy(staged_.begin(), staged_.end(), out.begin());
  outcome.received = staged_.size();
  outcome.closed = true;
  staged_.clear();
  return outcome;
}

bool SocketTransport::read_exact(std::span<std::uint8_t> out) {
  const ReadOutcome got = read_partial(out, -1.0);
  if (got.complete) return true;
  if (got.received == 0) return false;  // clean EOF at a unit boundary
  throw TransportError("socket " + label_ + " closed mid-read (" +
                       std::to_string(got.received) + " of " +
                       std::to_string(out.size()) + " bytes arrived)");
}

void SocketTransport::close() noexcept {
  if (closed_.exchange(true, std::memory_order_acq_rel)) return;
  DLS_COUNT("serve.socket.closes");
  // Both directions: wakes a peer blocked on recv (it sees EOF) and any
  // local thread parked in poll. The fd stays open until destruction so
  // concurrent calls never touch a recycled descriptor.
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

bool SocketTransport::valid() const noexcept {
  return fd_ >= 0 && !closed_.load(std::memory_order_acquire);
}

// ---------------------------------------------------------------------------
// SocketListener

SocketListener::~SocketListener() {
  close();
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

SocketListener::SocketListener(SocketListener&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      port_(std::exchange(other.port_, 0)),
      endpoint_(std::move(other.endpoint_)),
      unix_path_(std::move(other.unix_path_)),
      closed_(other.closed_.exchange(false)) {
  other.endpoint_.clear();
  other.unix_path_.clear();
}

SocketListener& SocketListener::operator=(SocketListener&& other) noexcept {
  if (this != &other) {
    close();
    if (fd_ >= 0) ::close(fd_);
    fd_ = std::exchange(other.fd_, -1);
    port_ = std::exchange(other.port_, 0);
    endpoint_ = std::move(other.endpoint_);
    unix_path_ = std::move(other.unix_path_);
    closed_.store(other.closed_.exchange(false));
    other.endpoint_.clear();
    other.unix_path_.clear();
  }
  return *this;
}

SocketListener SocketListener::listen_tcp(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    throw TransportError("socket(AF_INET) failed: " + errno_text(errno));
  }
  set_cloexec(fd);
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const int err = errno;
    ::close(fd);
    throw TransportError("bind(127.0.0.1:" + std::to_string(port) +
                         ") failed: " + errno_text(err));
  }
  if (::listen(fd, 64) < 0) {
    const int err = errno;
    ::close(fd);
    throw TransportError("listen failed: " + errno_text(err));
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) < 0) {
    const int err = errno;
    ::close(fd);
    throw TransportError("getsockname failed: " + errno_text(err));
  }
  SocketListener listener;
  listener.fd_ = fd;
  listener.port_ = ntohs(bound.sin_port);
  listener.endpoint_ =
      "tcp:127.0.0.1:" + std::to_string(listener.port_);
  DLS_COUNT("serve.socket.listeners");
  return listener;
}

SocketListener SocketListener::listen_unix(const std::string& path) {
  const sockaddr_un addr = make_unix_addr(path);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    throw TransportError("socket(AF_UNIX) failed: " + errno_text(errno));
  }
  set_cloexec(fd);
  ::unlink(path.c_str());  // replace a stale socket file from a crash
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const int err = errno;
    ::close(fd);
    throw TransportError("bind(unix:" + path +
                         ") failed: " + errno_text(err));
  }
  if (::listen(fd, 64) < 0) {
    const int err = errno;
    ::close(fd);
    ::unlink(path.c_str());
    throw TransportError("listen failed: " + errno_text(err));
  }
  SocketListener listener;
  listener.fd_ = fd;
  listener.endpoint_ = "unix:" + path;
  listener.unix_path_ = path;
  DLS_COUNT("serve.socket.listeners");
  return listener;
}

std::unique_ptr<SocketTransport> SocketListener::accept(
    double timeout_s, SocketConfig config) {
  if (fd_ < 0 || closed_) return nullptr;
  const bool forever = timeout_s <= 0.0;
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(
                             forever ? 0.0 : timeout_s));
  for (;;) {
    if (closed_) return nullptr;
    bool readable = false;
    try {
      readable = poll_for(fd_, POLLIN, forever, deadline);
    } catch (const TransportError&) {
      return nullptr;  // listener torn down under us
    }
    if (!readable) return nullptr;  // timeout
    const int fd = ::accept(fd_, nullptr, nullptr);
    if (fd >= 0) {
      DLS_COUNT("serve.socket.accepts");
      return std::make_unique<SocketTransport>(
          fd, endpoint_ + "#accepted", config);
    }
    if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK ||
        errno == ECONNABORTED) {
      continue;  // racing client went away; keep waiting
    }
    if (errno == EINVAL || errno == EBADF) return nullptr;  // closed
    throw TransportError("accept failed: " + errno_text(errno));
  }
}

void SocketListener::close() noexcept {
  if (closed_.exchange(true)) return;
  // shutdown() on a listening socket wakes a blocked accept()/poll on
  // Linux; the fd is released by the destructor.
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
  if (!unix_path_.empty()) ::unlink(unix_path_.c_str());
}

// ---------------------------------------------------------------------------
// Client-side connect helpers

std::unique_ptr<SocketTransport> connect_tcp(const std::string& host,
                                             std::uint16_t port,
                                             double timeout_s,
                                             SocketConfig config) {
  const std::string label = "tcp:" + host + ":" + std::to_string(port);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    throw TransportError("connect_tcp needs a numeric IPv4 host, got \"" +
                         host + "\"");
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    throw TransportError("socket(AF_INET) failed: " + errno_text(errno));
  }
  set_cloexec(fd);
  set_nonblocking(fd);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) < 0 &&
      errno != EINPROGRESS) {
    const int err = errno;
    ::close(fd);
    throw TransportError("connect to " + label +
                         " failed: " + errno_text(err));
  }
  finish_connect(fd, label, timeout_s);
  DLS_COUNT("serve.socket.connects");
  return std::make_unique<SocketTransport>(fd, label, config);
}

std::unique_ptr<SocketTransport> connect_unix(const std::string& path,
                                              double timeout_s,
                                              SocketConfig config) {
  const std::string label = "unix:" + path;
  const sockaddr_un addr = make_unix_addr(path);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    throw TransportError("socket(AF_UNIX) failed: " + errno_text(errno));
  }
  set_cloexec(fd);
  set_nonblocking(fd);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) < 0 &&
      errno != EINPROGRESS && errno != EAGAIN) {
    const int err = errno;
    ::close(fd);
    throw TransportError("connect to " + label +
                         " failed: " + errno_text(err));
  }
  finish_connect(fd, label, timeout_s);
  DLS_COUNT("serve.socket.connects");
  return std::make_unique<SocketTransport>(fd, label, config);
}

std::unique_ptr<SocketTransport> connect_endpoint(const std::string& endpoint,
                                                  double timeout_s,
                                                  SocketConfig config) {
  if (endpoint.rfind("unix:", 0) == 0) {
    return connect_unix(endpoint.substr(5), timeout_s, config);
  }
  if (endpoint.rfind("tcp:", 0) == 0) {
    const std::string rest = endpoint.substr(4);
    const std::size_t colon = rest.rfind(':');
    if (colon != std::string::npos) {
      const std::string host = rest.substr(0, colon);
      const int port = std::stoi(rest.substr(colon + 1));
      if (port > 0 && port <= 65535) {
        return connect_tcp(host, static_cast<std::uint16_t>(port),
                           timeout_s, config);
      }
    }
  }
  throw TransportError(
      "malformed endpoint \"" + endpoint +
      "\" (expected tcp:HOST:PORT or unix:PATH)");
}

}  // namespace dls::serve
