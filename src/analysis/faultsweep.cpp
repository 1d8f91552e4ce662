#include "analysis/faultsweep.hpp"

#include <algorithm>
#include <cmath>

#include "analysis/experiments.hpp"
#include "common/error.hpp"
#include "exec/thread_pool.hpp"
#include "obs/obs.hpp"
#include "protocol/recovery.hpp"

namespace dls::analysis {

namespace {

/// Raw measurements of one chaos trial, written into an index-owned slot
/// so the trial grid can run on the shared pool.
struct TrialOutcome {
  std::size_t crashes = 0;
  double makespan_ratio = 1.0;
  double latency_sum = 0.0;
  double latency_max = 0.0;
  std::size_t latency_count = 0;
  double settlement_sum = 0.0;
  std::size_t settlement_count = 0;
  bool recovered = false;
  double residual = 0.0;
};

/// Order-independent per-trial stream: every (rate index, trial) pair
/// derives its RNG from the config seed alone, so the sweep is
/// bit-identical at any worker count and trial execution order.
common::Rng trial_rng(std::uint64_t seed, std::size_t r, std::size_t t) {
  std::uint64_t mix =
      seed ^ (0x9e3779b97f4a7c15ull * (r * 0x10001ull + t + 1));
  return common::Rng(common::splitmix64_next(mix));
}

TrialOutcome run_trial(const FaultSweepConfig& config, std::size_t r,
                       std::size_t t) {
  common::Rng rng = trial_rng(config.seed, r, t);
  const double rate = config.crash_rates[r];

  const auto network = net::LinearNetwork::random(config.processors, rng,
                                                  kWLo, kWHi, kZLo, kZHi);
  std::vector<agents::StrategicAgent> roster;
  roster.reserve(config.processors - 1);
  for (std::size_t i = 1; i < config.processors; ++i) {
    roster.push_back(agents::StrategicAgent{i, network.w(i),
                                            agents::Behavior::truthful()});
  }

  protocol::ProtocolOptions options;
  options.mechanism = config.mechanism;
  options.round = t + 1;
  options.seed = rng.bits() | 1ull;

  protocol::FaultToleranceOptions ft;
  ft.heartbeat = config.heartbeat;
  ft.faults = sim::FaultPlan::random_crashes(config.processors, rate, rng);

  const protocol::FtRunReport report = protocol::run_protocol_ft(
      network, agents::Population(std::move(roster)), options, ft);

  TrialOutcome out;
  // Makespan degradation relative to the fault-free prediction of the
  // very same instance (Algorithm 1 on the truthful bids).
  const double baseline = report.round.solution.makespan;
  out.makespan_ratio =
      baseline > 0.0 ? report.degraded_makespan / baseline : 1.0;
  out.crashes = report.crashes.size();
  for (const protocol::CrashSettlement& settlement : report.crashes) {
    out.latency_sum += settlement.detection.latency();
    out.latency_max = std::max(out.latency_max,
                               settlement.detection.latency());
    ++out.latency_count;
    out.settlement_sum += settlement.settlement_paid;
    ++out.settlement_count;
  }
  out.recovered = report.recovered;
  out.residual = std::abs(report.round.ledger.conservation_residual());
  return out;
}

}  // namespace

std::vector<FaultSweepRow> run_fault_sweep(const FaultSweepConfig& config) {
  DLS_REQUIRE(config.processors >= 2, "sweep needs a root and a worker");
  DLS_REQUIRE(config.trials >= 1, "sweep needs at least one trial");
  for (const double rate : config.crash_rates) {
    DLS_REQUIRE(rate >= 0.0 && rate <= 1.0, "crash rate must lie in [0, 1]");
  }

  // The whole (crash rate x trial) grid runs as one pool dispatch; each
  // trial owns its output slot, the reduction below is serial and in
  // fixed order, so results do not depend on the worker count.
  const std::size_t rates = config.crash_rates.size();
  std::vector<TrialOutcome> outcomes(rates * config.trials);
  DLS_SPAN_ARGS("analysis.faultsweep",
                "{\"rates\":" + std::to_string(rates) +
                    ",\"trials\":" + std::to_string(config.trials) + "}");
  DLS_COUNT("analysis.grid_points", outcomes.size());
  exec::ThreadPool::global().parallel_for(
      outcomes.size(),
      [&](std::size_t k) {
        outcomes[k] = run_trial(config, k / config.trials, k % config.trials);
      },
      {.grain = 1});

  std::vector<FaultSweepRow> rows;
  rows.reserve(rates);
  for (std::size_t r = 0; r < rates; ++r) {
    FaultSweepRow row;
    row.crash_rate = config.crash_rates[r];
    row.runs = config.trials;

    double crashes = 0.0;
    double ratio_sum = 0.0;
    double latency_sum = 0.0;
    std::size_t latency_count = 0;
    std::size_t recovered = 0;
    double settlement_sum = 0.0;
    std::size_t settlement_count = 0;

    for (std::size_t t = 0; t < config.trials; ++t) {
      const TrialOutcome& out = outcomes[r * config.trials + t];
      crashes += static_cast<double>(out.crashes);
      ratio_sum += out.makespan_ratio;
      row.max_makespan_ratio =
          std::max(row.max_makespan_ratio, out.makespan_ratio);
      latency_sum += out.latency_sum;
      latency_count += out.latency_count;
      row.max_detection_latency =
          std::max(row.max_detection_latency, out.latency_max);
      settlement_sum += out.settlement_sum;
      settlement_count += out.settlement_count;
      if (out.recovered) ++recovered;
      row.max_conservation_residual =
          std::max(row.max_conservation_residual, out.residual);
    }

    const double n = static_cast<double>(config.trials);
    row.mean_crashes = crashes / n;
    row.mean_makespan_ratio = ratio_sum / n;
    row.mean_detection_latency =
        latency_count == 0 ? 0.0
                           : latency_sum / static_cast<double>(latency_count);
    row.recovery_rate = static_cast<double>(recovered) / n;
    row.mean_settlement =
        settlement_count == 0
            ? 0.0
            : settlement_sum / static_cast<double>(settlement_count);
    rows.push_back(row);
  }
  return rows;
}

}  // namespace dls::analysis
