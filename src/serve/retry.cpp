#include "serve/retry.hpp"

#include <algorithm>

#include "common/backoff.hpp"
#include "obs/obs.hpp"

namespace dls::serve {

double BackoffSchedule::next_delay_s() {
  double delay = 0.0;
  if (policy_.decorrelated_jitter) {
    // AWS-style decorrelated jitter: uniform over [base, 3 * previous],
    // capped. The first delay collapses to the base.
    const double hi = std::max(prev_ * 3.0, policy_.base_delay_s);
    delay = hi <= policy_.base_delay_s
                ? policy_.base_delay_s
                : rng_.uniform(policy_.base_delay_s, hi);
    delay = std::min(delay, policy_.max_delay_s);
  } else {
    delay = common::exponential_backoff(policy_.base_delay_s,
                                        policy_.backoff_factor, attempt_,
                                        policy_.max_delay_s);
  }
  ++attempt_;
  prev_ = delay;
  return delay;
}

bool CircuitBreaker::allow() {
  std::lock_guard<std::mutex> lock(mutex_);
  switch (state_) {
    case BreakerState::kClosed:
      return true;
    case BreakerState::kOpen: {
      const auto elapsed = std::chrono::duration<double>(
          std::chrono::steady_clock::now() - opened_at_);
      if (elapsed.count() < config_.open_cooldown_s) {
        DLS_COUNT("serve.breaker.rejected");
        return false;
      }
      state_ = BreakerState::kHalfOpen;
      half_open_in_flight_ = 1;
      DLS_COUNT("serve.breaker.half_open");
      return true;
    }
    case BreakerState::kHalfOpen:
      if (half_open_in_flight_ < config_.half_open_probes) {
        ++half_open_in_flight_;
        return true;
      }
      DLS_COUNT("serve.breaker.rejected");
      return false;
  }
  return true;
}

void CircuitBreaker::record_success() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (state_ != BreakerState::kClosed) DLS_COUNT("serve.breaker.closed");
  state_ = BreakerState::kClosed;
  consecutive_failures_ = 0;
  half_open_in_flight_ = 0;
}

void CircuitBreaker::record_failure() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (state_ == BreakerState::kHalfOpen) {
    // The probe failed: straight back to open, cooldown restarted.
    state_ = BreakerState::kOpen;
    opened_at_ = std::chrono::steady_clock::now();
    half_open_in_flight_ = 0;
    consecutive_failures_ = 0;
    DLS_COUNT("serve.breaker.opened");
    return;
  }
  if (state_ == BreakerState::kOpen) return;  // already tripped
  ++consecutive_failures_;
  if (consecutive_failures_ >= config_.failure_threshold) {
    state_ = BreakerState::kOpen;
    opened_at_ = std::chrono::steady_clock::now();
    consecutive_failures_ = 0;
    DLS_COUNT("serve.breaker.opened");
  }
}

BreakerState CircuitBreaker::state() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return state_;
}

}  // namespace dls::serve
