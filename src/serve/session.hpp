// The session core: the per-connection half of every serve front-end.
// SchedulerService and ShardRouter each own one and plug in a per-frame
// hook; everything else about a connection lives here.
//
//  * connect() hands out one end of a fresh Pipe; adopt() serves any
//    Transport (an accepted socket, a chaos wrapper, ...). Each
//    connection gets one reader thread. adopt() first reaps every
//    session whose reader has returned and whose `pending` count (owner
//    work still pointing at it) is 0, so reconnect storms leave no dead
//    threads behind.
//  * The reader runs the framing discipline. A checksum-corrupted frame
//    and a frame found only by resynchronising past a malformed header
//    are each one poison frame: `poison_budget` of them are tolerated,
//    the next one — or a stream the resync scan cannot rescue —
//    quarantines the connection (closes it). A peer that vanishes
//    mid-frame ends the session. Every other frame goes to the owner's
//    hook, in arrival order, on the reader thread.
//  * stop() refuses new connections, closes every session's end and
//    then the owner's per-session state (so a reader blocked on the
//    owner's own I/O wakes too), then joins every reader.
//
// A malformed or contradictory message is a detectable deviation to
// refuse, never an input to compute on: send_refusal() is the typed
// refusal both front-ends answer with, in the request's own kind.
// Metrics (serve.sessions, serve.quarantined, serve.fault.*): see
// docs/OBSERVABILITY.md.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "serve/frame.hpp"
#include "serve/multiload_wire.hpp"
#include "serve/pipe.hpp"
#include "serve/service_wire.hpp"
#include "serve/transport.hpp"

namespace dls::serve {

/// One per-instance count behind a front-end's stats(). Relaxed: no
/// other memory access is ordered by a count, so counting takes no lock.
using Tally = std::atomic<std::uint64_t>;

inline void bump(Tally& tally, std::uint64_t by = 1) {
  tally.fetch_add(by, std::memory_order_relaxed);
}

inline std::uint64_t read_tally(const Tally& tally) {
  return tally.load(std::memory_order_relaxed);
}

/// What an owner keeps per connection beside the session (the router's
/// backend links). SessionCore::stop() calls close() once the session's
/// end is closed.
class SessionState {
 public:
  virtual ~SessionState() = default;
  virtual void close() noexcept = 0;
};

/// One client connection.
struct Session {
  std::uint64_t id = 0;                 ///< connection number, from adopt()
  std::unique_ptr<Transport> end;       ///< server side of the connection
  std::unique_ptr<SessionState> state;  ///< the owner's; may be null
  /// Owner work still holding a pointer to this session (queued
  /// requests); the session is reaped only once this is 0.
  std::atomic<std::size_t> pending{0};
  std::atomic<bool> done{false};  ///< the reader has returned
  std::thread reader;

  /// Writes the bytes of whole frames to the peer. A peer that hung up
  /// before its answer arrived is no error: the bytes are dropped.
  void send(std::span<const std::uint8_t> wire);
  /// Encodes a response in its own frame kind and sends it.
  void send(const ScheduleResponse& response);
  void send(const MultiScheduleResponse& response);
};

/// A typed refusal: both response kinds carry the same refusal fields.
template <typename Response>
Response refusal(std::uint64_t request_id, ScheduleStatus status,
                 std::string error = {}, double retry_after_us = 0.0) {
  Response response;
  response.request_id = request_id;
  response.status = status;
  response.error = std::move(error);
  response.retry_after_us = retry_after_us;
  return response;
}

/// Sends a typed refusal in the request's own kind: a
/// MultiScheduleResponse frame for a multi-load request (`multi`), a
/// ScheduleResponse frame for anything else.
void send_refusal(Session& session, bool multi, std::uint64_t request_id,
                  ScheduleStatus status, std::string error = {},
                  double retry_after_us = 0.0);

/// The kError text a frame of a type no front-end serves is refused with.
std::string unexpected_frame_type(FrameType type);

class SessionCore {
 public:
  /// Called on the session's reader thread for every well-formed frame.
  using OnFrame = std::function<void(Session&, const Frame&)>;

  SessionCore(std::size_t poison_budget, std::size_t resync_scan_bytes,
              OnFrame on_frame);
  ~SessionCore();

  SessionCore(const SessionCore&) = delete;
  SessionCore& operator=(const SessionCore&) = delete;

  PipeEnd connect(std::unique_ptr<SessionState> state = nullptr);
  void adopt(std::unique_ptr<Transport> transport,
             std::unique_ptr<SessionState> state = nullptr);
  /// Idempotent; adopt() and connect() throw afterwards.
  void stop();

  std::uint64_t poison_frames() const noexcept {
    return read_tally(poison_frames_);
  }
  std::uint64_t quarantined() const noexcept {
    return read_tally(quarantined_);
  }

 private:
  void read_frames(Session& session);
  /// Closes a connection that exhausted its poison budget or sent a
  /// stream the resync scan could not rescue.
  void close_poisoned(Session& session);

  const std::size_t poison_budget_;
  const std::size_t resync_scan_bytes_;
  const OnFrame on_frame_;
  Tally poison_frames_{0};
  Tally quarantined_{0};

  std::mutex mutex_;  ///< guards sessions_, stopped_ and next_id_
  std::vector<std::unique_ptr<Session>> sessions_;
  bool stopped_ = false;
  std::uint64_t next_id_ = 0;
};

}  // namespace dls::serve
