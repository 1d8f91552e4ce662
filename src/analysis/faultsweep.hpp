// Chaos-sweep harness: drives the fault-tolerant protocol across a grid
// of crash rates and measures what fault tolerance costs —
//   * makespan degradation (degraded / fault-free ratio),
//   * crash-detection latency of the heartbeat/probe machinery,
//   * payment conservation under partial settlement (ledger residual),
//   * recovery success (did survivors absorb the full unit load).
// Deterministic: every trial derives from the config seed, so a sweep
// replays bit-identically.
#pragma once

#include <cstdint>
#include <vector>

#include "common/backoff.hpp"
#include "core/payment_rules.hpp"

namespace dls::analysis {

struct FaultSweepConfig {
  std::size_t processors = 8;  ///< chain size m+1
  std::size_t trials = 32;     ///< random instances per crash rate
  std::vector<double> crash_rates = {0.0, 0.05, 0.1, 0.2, 0.4};
  std::uint64_t seed = 20260806;
  common::HeartbeatConfig heartbeat;
  core::MechanismConfig mechanism;
};

struct FaultSweepRow {
  double crash_rate = 0.0;
  double mean_crashes = 0.0;            ///< confirmed crashes per run
  double mean_makespan_ratio = 1.0;     ///< degraded / fault-free
  double max_makespan_ratio = 1.0;
  double mean_detection_latency = 0.0;  ///< over confirmed crashes
  double max_detection_latency = 0.0;
  double recovery_rate = 1.0;           ///< fraction with full coverage
  double max_conservation_residual = 0.0;
  double mean_settlement = 0.0;         ///< E_j paid per crashed node
  std::size_t runs = 0;
};

/// Runs the sweep; one row per crash rate, in config order.
std::vector<FaultSweepRow> run_fault_sweep(const FaultSweepConfig& config);

}  // namespace dls::analysis
