// Retry timing shared by the recovery layer's probe monitor and the
// serve layer's retry loops.
#pragma once

#include <cstddef>

namespace dls::common {

/// Shared backoff core: min(base * factor^attempt, cap), computed by
/// repeated multiplication so every retry loop in the codebase (the
/// probe monitor, the serve layer's RetryPolicy, the router's health
/// probes) produces bit-identical waits for the same knobs.
double exponential_backoff(double base, double factor, std::size_t attempt,
                           double cap) noexcept;

/// Heartbeat / probe timing knobs (all in simulation time units).
struct HeartbeatConfig {
  double period = 0.05;        ///< worker heartbeat interval
  double timeout = 0.05;       ///< slack past the period before suspicion
  std::size_t retry_budget = 3;  ///< probes before a crash is confirmed
  double backoff_factor = 2.0;   ///< exponential probe backoff
  double max_backoff = 0.5;      ///< cap on the inter-probe wait
};

}  // namespace dls::common
