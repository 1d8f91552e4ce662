// Unified retry policy and per-connection circuit breaker for the
// serve layer.
//
// RetryPolicy gives SchedulerClient knobs named for what they do:
// exponential backoff sharing common::exponential_backoff as its core,
// optional decorrelated jitter (each delay drawn uniformly from
// [base, 3 * previous], capped) so synchronized clients spread out
// instead of retrying in lockstep, a per-attempt read deadline and a
// total wall-clock budget.
//
// CircuitBreaker guards one connection: closed while calls succeed,
// open after `failure_threshold` consecutive wire failures (allow()
// rejects without touching the transport), half-open after the
// cooldown — a bounded number of probe calls go through, one success
// re-closes the breaker, one failure re-opens it. A flapping server is
// probed, not hammered.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>

#include "common/rng.hpp"

namespace dls::serve {

/// Client-side retry knobs (seconds). Defaults suit the in-memory
/// transport; scale them up for anything that crosses a real wire.
struct RetryPolicy {
  double base_delay_s = 0.0005;  ///< first backoff delay
  double max_delay_s = 0.05;     ///< cap on any single delay
  double backoff_factor = 2.0;   ///< growth rate (deterministic mode)
  /// Draw each delay uniformly from [base, 3 * previous] instead of the
  /// deterministic ladder; spreads synchronized retriers apart.
  bool decorrelated_jitter = true;
  std::size_t max_attempts = 8;  ///< total tries, the first included
  /// Wall-clock budget across all attempts; <= 0 means unbounded.
  double total_deadline_s = 0.0;
  /// Per-attempt read deadline; <= 0 blocks until the peer answers.
  /// Required for liveness against a peer that swallows requests.
  double attempt_deadline_s = 0.0;
};

/// One retry loop's delay sequence: deterministic given (policy, seed).
class BackoffSchedule {
 public:
  BackoffSchedule(const RetryPolicy& policy, std::uint64_t seed)
      : policy_(policy), rng_(seed) {}

  /// The delay to sleep before the next attempt.
  double next_delay_s();

  /// Restarts the ladder (after a success, for reuse across calls).
  void reset() noexcept {
    attempt_ = 0;
    prev_ = 0.0;
  }

 private:
  RetryPolicy policy_;
  common::Rng rng_;
  std::size_t attempt_ = 0;
  double prev_ = 0.0;
};

struct BreakerConfig {
  /// Consecutive wire failures that trip the breaker open.
  std::size_t failure_threshold = 5;
  /// How long the open state rejects before probing (seconds).
  double open_cooldown_s = 0.01;
  /// Concurrent probe calls admitted while half-open.
  std::size_t half_open_probes = 1;
};

enum class BreakerState : std::uint8_t {
  kClosed = 0,    ///< healthy: every call admitted
  kOpen = 1,      ///< tripped: calls rejected until the cooldown passes
  kHalfOpen = 2,  ///< probing: a bounded number of calls admitted
};

/// Thread-safe; share one instance across every client of a connection.
/// Metrics: serve.breaker.{opened,rejected,half_open,closed}.
class CircuitBreaker {
 public:
  explicit CircuitBreaker(BreakerConfig config = {}) : config_(config) {}

  /// True when the caller may touch the wire. A rejected call must NOT
  /// be reported back via record_*: only real wire outcomes count.
  bool allow();

  /// Reports the outcome of an admitted call.
  void record_success();
  void record_failure();

  BreakerState state() const;

 private:
  BreakerConfig config_;
  mutable std::mutex mutex_;
  BreakerState state_ = BreakerState::kClosed;
  std::size_t consecutive_failures_ = 0;
  std::size_t half_open_in_flight_ = 0;
  std::chrono::steady_clock::time_point opened_at_{};
};

}  // namespace dls::serve
