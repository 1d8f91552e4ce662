#include "serve/client.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <thread>
#include <vector>

#include "obs/obs.hpp"
#include "serve/frame.hpp"

namespace dls::serve {

namespace {

void sleep_seconds(double seconds) {
  if (seconds <= 0.0) return;
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
}

}  // namespace

ScheduleResponse SchedulerClient::schedule(std::span<const double> w,
                                           std::span<const double> z,
                                           const ScheduleOptions& options) {
  return round_trip(w, z, options);
}

MultiScheduleResponse SchedulerClient::schedule_multi(
    MultiScheduleRequest request, double timeout_s) {
  request.request_id = ++next_id_;
  write_frame(*end_, Frame{FrameType::kMultiScheduleRequest,
                           encode_multi_schedule_request(request)});
  for (;;) {
    auto frame = read_frame(*end_, timeout_s);
    if (!frame) {
      throw TransportError("service closed the connection before answering");
    }
    if (frame->type != FrameType::kMultiScheduleResponse) {
      throw TransportError("unexpected frame type '" +
                           to_string(frame->type) +
                           "' while awaiting a multi-schedule response");
    }
    MultiScheduleResponse response =
        decode_multi_schedule_response(frame->payload);
    if (response.request_id == request.request_id ||
        response.request_id == 0) {
      return response;
    }
    if (response.request_id < request.request_id) {
      // A stale answer to an earlier attempt: skip past it, exactly as
      // the single-load round trip does.
      DLS_COUNT("serve.client.stale_responses");
      continue;
    }
    throw TransportError("response id " +
                         std::to_string(response.request_id) +
                         " does not match request id " +
                         std::to_string(request.request_id));
  }
}

RobustResult SchedulerClient::schedule_robust(std::span<const double> w,
                                              std::span<const double> z,
                                              const ScheduleOptions& options,
                                              const RobustOptions& robust) {
  RobustResult result;
  BackoffSchedule backoff(robust.policy, robust.seed);
  const auto start = std::chrono::steady_clock::now();
  const auto budget_left = [&] {
    if (robust.policy.total_deadline_s <= 0.0) {
      return std::numeric_limits<double>::infinity();
    }
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    return robust.policy.total_deadline_s - elapsed.count();
  };

  for (std::size_t attempt = 0;
       attempt < robust.policy.max_attempts && budget_left() > 0.0;
       ++attempt) {
    // Waits `delay` before the next attempt: not at all after the last
    // one, and never past the total deadline.
    const auto pause = [&](double delay) {
      if (attempt + 1 < robust.policy.max_attempts) {
        sleep_seconds(std::min(delay, budget_left()));
      }
    };
    if (robust.breaker != nullptr && !robust.breaker->allow()) {
      // The breaker is open: back off without touching the wire. The
      // attempt still burns budget — an open breaker is not free time.
      ++result.stats.breaker_rejections;
      pause(backoff.next_delay_s());
      continue;
    }
    if (end_ == nullptr || !end_->valid()) {
      if (!robust.reconnect) {
        result.stats.last_error = "transport closed and no reconnect hook";
        break;
      }
      end_ = robust.reconnect();
      ++result.stats.reconnects;
      DLS_COUNT("serve.client.reconnects");
    }
    ++result.stats.attempts;
    try {
      ScheduleResponse response =
          round_trip(w, z, options, robust.policy.attempt_deadline_s);
      if (robust.breaker != nullptr) robust.breaker->record_success();
      if (response.status == ScheduleStatus::kShed ||
          response.status == ScheduleStatus::kDegraded) {
        // Typed refusal: remember it (it becomes the report if the
        // budget runs out) and come back later — no sooner than the
        // server's own hint.
        result.response = std::move(response);
        double delay = backoff.next_delay_s();
        if (result.response.status == ScheduleStatus::kDegraded &&
            result.response.retry_after_us > 0.0) {
          delay = std::max(delay, result.response.retry_after_us * 1e-6);
        }
        pause(delay);
        continue;
      }
      result.outcome = RobustOutcome::kAnswered;
      result.response = std::move(response);
      return result;
    } catch (const TransportError& e) {
      ++result.stats.wire_errors;
      result.stats.last_error = e.what();
      DLS_COUNT("serve.client.wire_errors");
      if (robust.breaker != nullptr) robust.breaker->record_failure();
      if (end_ != nullptr) end_->close();
      pause(backoff.next_delay_s());
    } catch (const codec::DecodeError& e) {
      // A corrupted response: the bytes are untrustworthy, so the
      // connection is replaced like any other wire failure.
      ++result.stats.wire_errors;
      result.stats.last_error = e.what();
      DLS_COUNT("serve.client.wire_errors");
      if (robust.breaker != nullptr) robust.breaker->record_failure();
      if (end_ != nullptr) end_->close();
      pause(backoff.next_delay_s());
    }
  }
  result.outcome = RobustOutcome::kBudgetExhausted;
  return result;
}

ScheduleResponse SchedulerClient::round_trip(std::span<const double> w,
                                             std::span<const double> z,
                                             const ScheduleOptions& options,
                                             double timeout_s) {
  ScheduleRequest request;
  request.request_id = ++next_id_;
  request.w.assign(w.begin(), w.end());
  request.z.assign(z.begin(), z.end());
  request.options = options;
  write_frame(*end_, Frame{FrameType::kScheduleRequest,
                           encode_schedule_request(request)});
  for (;;) {
    auto frame = read_frame(*end_, timeout_s);
    if (!frame) {
      throw TransportError("service closed the connection before answering");
    }
    if (frame->type != FrameType::kScheduleResponse) {
      throw TransportError("unexpected frame type '" +
                           to_string(frame->type) +
                           "' while awaiting a schedule response");
    }
    ScheduleResponse response = decode_schedule_response(frame->payload);
    if (response.request_id == request.request_id ||
        response.request_id == 0) {
      return response;
    }
    if (response.request_id < request.request_id) {
      // A stale answer to an earlier attempt (duplicated request frame
      // or a response that arrived after we gave up): skip past it.
      DLS_COUNT("serve.client.stale_responses");
      continue;
    }
    throw TransportError("response id " +
                         std::to_string(response.request_id) +
                         " does not match request id " +
                         std::to_string(request.request_id));
  }
}

}  // namespace dls::serve
