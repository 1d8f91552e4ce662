// Typed client for the scheduling service.
//
// Wraps one end of a service connection in a synchronous call API:
// schedule() encodes a ScheduleRequest frame, writes it, and blocks for
// the matching ScheduleResponse. schedule_robust() retries on top: a
// RetryPolicy with decorrelated jitter, per-attempt read deadlines and a
// total wall-clock budget, an optional shared CircuitBreaker, and an
// optional reconnect hook so a dead transport is replaced instead of
// reported. Every call ends in exactly one of {answer, typed refusal,
// exhausted-budget report} — never a hang.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <utility>

#include "serve/multiload_wire.hpp"
#include "serve/pipe.hpp"
#include "serve/retry.hpp"
#include "serve/service_wire.hpp"
#include "serve/transport.hpp"

namespace dls::serve {

/// How a schedule_robust call ended.
enum class RobustOutcome : std::uint8_t {
  kAnswered = 0,         ///< the service answered (any ScheduleStatus)
  kBudgetExhausted = 1,  ///< attempts/deadline ran out first
};

/// Wire-level accounting for one schedule_robust call.
struct RobustStats {
  std::size_t attempts = 0;            ///< round trips actually tried
  std::size_t wire_errors = 0;         ///< transport/decode failures
  std::size_t breaker_rejections = 0;  ///< attempts the breaker refused
  std::size_t reconnects = 0;          ///< transports replaced
  std::string last_error;              ///< most recent wire failure
};

struct RobustResult {
  RobustOutcome outcome = RobustOutcome::kBudgetExhausted;
  /// kAnswered: the service's answer. kBudgetExhausted: the last typed
  /// refusal seen, if any (status kShed/kDegraded), else default.
  ScheduleResponse response;
  RobustStats stats;
};

struct RobustOptions {
  RetryPolicy policy;
  /// Optional; shared across calls (and clients) of one connection.
  CircuitBreaker* breaker = nullptr;
  /// Replacement factory for a dead transport. Without one, a dead
  /// transport ends the call with kBudgetExhausted.
  std::function<std::unique_ptr<Transport>()> reconnect;
  /// Seeds the backoff jitter; vary per client for decorrelation.
  std::uint64_t seed = 1;
};

class SchedulerClient {
 public:
  /// Takes ownership of the client end returned by
  /// SchedulerService::connect().
  explicit SchedulerClient(PipeEnd end)
      : end_(std::make_unique<PipeEnd>(std::move(end))) {}

  /// Generalised flavour: any Transport (e.g. a ChaosTransport).
  explicit SchedulerClient(std::unique_ptr<Transport> transport)
      : end_(std::move(transport)) {}

  /// One synchronous request/response round trip. Throws TransportError
  /// when the service hung up before answering.
  ScheduleResponse schedule(std::span<const double> w,
                            std::span<const double> z,
                            const ScheduleOptions& options = {});

  /// One synchronous multi-load round trip: assigns the request id,
  /// writes a kMultiScheduleRequest frame and blocks for the matching
  /// response. The caller fills everything else (chain, loads, policy
  /// knobs). Throws TransportError when the service hung up and
  /// TransportTimeout when `timeout_s` > 0 elapses first.
  MultiScheduleResponse schedule_multi(MultiScheduleRequest request,
                                       double timeout_s = 0.0);

  /// The chaos-hardened call: retries kShed/kDegraded (honouring the
  /// server's retry-after hint), survives transport and decode failures
  /// by reconnecting, consults the circuit breaker before touching the
  /// wire, and always returns — never hangs, never throws for wire
  /// trouble. Problem-shape errors (kError/kExpired) are answers, not
  /// retries. No wait follows the last attempt, and no wait runs past
  /// the total deadline.
  RobustResult schedule_robust(std::span<const double> w,
                               std::span<const double> z,
                               const ScheduleOptions& options,
                               const RobustOptions& robust);

  /// Hangs up; the service session observes EOF and exits.
  void close() noexcept {
    if (end_) end_->close();
  }

 private:
  ScheduleResponse round_trip(std::span<const double> w,
                              std::span<const double> z,
                              const ScheduleOptions& options,
                              double timeout_s = 0.0);

  std::unique_ptr<Transport> end_;
  std::uint64_t next_id_ = 0;
};

}  // namespace dls::serve
