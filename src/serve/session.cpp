#include "serve/session.hpp"

#include <optional>
#include <utility>

#include "common/error.hpp"
#include "obs/obs.hpp"

namespace dls::serve {

void Session::send(std::span<const std::uint8_t> wire) {
  try {
    end->write(wire);
  } catch (const TransportError&) {
    // The client hung up before its answer arrived; nothing to do.
  }
}

void Session::send(const ScheduleResponse& response) {
  send(encode_frame(Frame{FrameType::kScheduleResponse,
                          encode_schedule_response(response)}));
}

void Session::send(const MultiScheduleResponse& response) {
  send(encode_frame(Frame{FrameType::kMultiScheduleResponse,
                          encode_multi_schedule_response(response)}));
}

void send_refusal(Session& session, bool multi, std::uint64_t request_id,
                  ScheduleStatus status, std::string error,
                  double retry_after_us) {
  if (multi) {
    session.send(refusal<MultiScheduleResponse>(request_id, status,
                                                std::move(error),
                                                retry_after_us));
  } else {
    session.send(refusal<ScheduleResponse>(request_id, status,
                                           std::move(error), retry_after_us));
  }
}

std::string unexpected_frame_type(FrameType type) {
  return "unexpected frame type '" + to_string(type) +
         "' (expected schedule_request)";
}

SessionCore::SessionCore(std::size_t poison_budget,
                         std::size_t resync_scan_bytes, OnFrame on_frame)
    : poison_budget_(poison_budget),
      resync_scan_bytes_(resync_scan_bytes),
      on_frame_(std::move(on_frame)) {}

SessionCore::~SessionCore() { stop(); }

PipeEnd SessionCore::connect(std::unique_ptr<SessionState> state) {
  Pipe pipe = make_pipe();
  adopt(std::make_unique<PipeEnd>(std::move(pipe.a)), std::move(state));
  return std::move(pipe.b);
}

void SessionCore::adopt(std::unique_ptr<Transport> transport,
                        std::unique_ptr<SessionState> state) {
  DLS_REQUIRE(transport != nullptr, "adopt() needs a transport");
  std::lock_guard<std::mutex> lock(mutex_);
  DLS_REQUIRE(!stopped_, "adopt()/connect() after stop()");
  for (auto it = sessions_.begin(); it != sessions_.end();) {
    if ((*it)->done.load(std::memory_order_acquire) &&
        (*it)->pending.load(std::memory_order_acquire) == 0) {
      (*it)->reader.join();
      it = sessions_.erase(it);
    } else {
      ++it;
    }
  }
  auto session = std::make_unique<Session>();
  session->end = std::move(transport);
  session->state = std::move(state);
  Session* raw = session.get();
  session->reader = std::thread([this, raw] {
    read_frames(*raw);
    raw->done.store(true, std::memory_order_release);
  });
  sessions_.push_back(std::move(session));
  DLS_COUNT("serve.sessions");
}

void SessionCore::stop() {
  std::vector<std::unique_ptr<Session>> sessions;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopped_ = true;
    sessions.swap(sessions_);
  }
  // Outside the lock: closing the owner's state may take the owner's
  // locks, and the lattice must not gain an edge from this one.
  for (auto& session : sessions) {
    session->end->close();
    if (session->state) session->state->close();
  }
  for (auto& session : sessions) {
    if (session->reader.joinable()) session->reader.join();
  }
}

void SessionCore::read_frames(Session& session) {
  std::size_t poison = 0;
  try {
    for (;;) {
      std::size_t skipped = 0;
      bool corrupted = false;
      std::optional<Frame> frame;
      try {
        frame = read_frame_resync(*session.end, resync_scan_bytes_, &skipped);
      } catch (const FrameTruncationError&) {
        // The peer vanished mid-frame (torn write / silent disconnect):
        // the connection is dead, nothing to salvage.
        return;
      } catch (const FrameChecksumError&) {
        // The payload was corrupted in flight, but its announced length
        // was consumed, so the stream is still frame-aligned.
        DLS_COUNT("serve.fault.checksum_mismatches");
        corrupted = true;
      } catch (const codec::DecodeError&) {
        // The resync scan gave up (budget exhausted or the stream died
        // while hunting): this peer is sending garbage, not frames.
        close_poisoned(session);
        return;
      }
      if (skipped > 0) DLS_COUNT("serve.fault.resync_bytes", skipped);
      if (corrupted || skipped > 0) {
        DLS_COUNT("serve.fault.poison_frames");
        bump(poison_frames_);
        if (++poison > poison_budget_) {
          close_poisoned(session);
          return;
        }
      }
      if (corrupted) continue;
      if (!frame) return;  // clean EOF: the client hung up
      on_frame_(session, *frame);
    }
  } catch (const TransportError&) {
    // The peer vanished; the connection is dead either way.
  }
}

void SessionCore::close_poisoned(Session& session) {
  bump(quarantined_);
  DLS_COUNT("serve.quarantined");
  // Closing only this connection tears down the poisoned peer without
  // touching any other session; the client observes EOF for anything
  // it still believes is in flight.
  session.end->close();
}

}  // namespace dls::serve
