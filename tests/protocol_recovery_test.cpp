// Tests for the fault-tolerant protocol layer: heartbeat/probe crash
// detection, the crash-vs-shedding disambiguation rule, survivor
// re-solve, and E_j settlement of crashed processors.
//
// Acceptance properties (any single non-root crash at any work
// fraction): the protocol completes, survivors cover the full unit
// load, the ledger conserves money, the crashed node receives an
// E_j-based settlement for its verified partial work and no fine, and
// two same-seed runs replay bit-identically.
#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "net/networks.hpp"
#include "protocol/recovery.hpp"
#include "sim/faults.hpp"

namespace {

using dls::agents::Behavior;
using dls::agents::Population;
using dls::agents::StrategicAgent;
using dls::common::HeartbeatConfig;
using dls::net::LinearNetwork;
using dls::protocol::classify_under_computation;
using dls::protocol::DetectionReport;
using dls::protocol::FaultToleranceOptions;
using dls::protocol::FtRunReport;
using dls::protocol::Incident;
using dls::protocol::monitor_processor;
using dls::protocol::ProtocolOptions;
using dls::protocol::run_protocol;
using dls::protocol::run_protocol_ft;
using dls::protocol::UnderComputeVerdict;
using dls::sim::FaultPlan;

LinearNetwork test_network() {
  return LinearNetwork({1.0, 1.2, 0.8, 1.5, 1.0, 1.3},
                       {0.15, 0.1, 0.2, 0.1, 0.15});
}

Population truthful_population(const LinearNetwork& net) {
  std::vector<StrategicAgent> agents;
  for (std::size_t i = 1; i < net.size(); ++i) {
    agents.push_back(StrategicAgent{i, net.w(i), Behavior::truthful()});
  }
  return Population(std::move(agents));
}

FtRunReport run_ft(const FaultPlan& faults,
                   const LinearNetwork& net = test_network(),
                   std::uint64_t seed = 7) {
  ProtocolOptions options;
  options.seed = seed;
  FaultToleranceOptions ft;
  ft.faults = faults;
  return run_protocol_ft(net, truthful_population(net), options, ft);
}

// ---------------------------------------------------------------------------
// Heartbeat / probe monitoring (timeouts, retries, backoff).

TEST(MonitorProcessor, LiveWorkerIsNeverSuspected) {
  const DetectionReport report =
      monitor_processor(HeartbeatConfig{}, std::nullopt, /*horizon=*/3.0);
  EXPECT_FALSE(report.confirmed_dead);
  EXPECT_EQ(report.probes_sent, 0u);
  EXPECT_EQ(report.timeouts, 0u);
}

TEST(MonitorProcessor, CrashIsConfirmedAfterTheRetryBudget) {
  HeartbeatConfig cfg;
  const DetectionReport report =
      monitor_processor(cfg, /*crash_time=*/1.0, 3.0);
  EXPECT_TRUE(report.confirmed_dead);
  EXPECT_EQ(report.probes_sent, cfg.retry_budget);
  EXPECT_GT(report.confirmed_at, 1.0);
  EXPECT_GT(report.latency(), 0.0);
  // Detection takes at least period + timeout (the first deadline) and
  // at most the full backoff ladder past the crash.
  double ladder = cfg.period + cfg.timeout;
  double wait = cfg.timeout;
  for (std::size_t r = 0; r < cfg.retry_budget; ++r) {
    ladder += std::min(wait, cfg.max_backoff);
    wait *= cfg.backoff_factor;
  }
  EXPECT_LE(report.latency(), ladder + cfg.period + 1e-9);
}

TEST(MonitorProcessor, SameInputsReplayIdentically) {
  const DetectionReport a = monitor_processor(HeartbeatConfig{}, 1.3, 6.0);
  const DetectionReport b = monitor_processor(HeartbeatConfig{}, 1.3, 6.0);
  EXPECT_EQ(a.confirmed_dead, b.confirmed_dead);
  EXPECT_DOUBLE_EQ(a.confirmed_at, b.confirmed_at);
  EXPECT_EQ(a.probes_sent, b.probes_sent);
  EXPECT_EQ(a.timeouts, b.timeouts);
}

TEST(MonitorProcessor, ValidatesConfig) {
  HeartbeatConfig bad;
  bad.retry_budget = 0;
  EXPECT_THROW(monitor_processor(bad, std::nullopt, 1.0),
               dls::PreconditionError);
}

// ---------------------------------------------------------------------------
// The crash-vs-shedding disambiguation rule.

TEST(ClassifyUnderComputation, FullComputationIsCompliant) {
  EXPECT_EQ(classify_under_computation(0.3, 0.3, false, false, 1e-3),
            UnderComputeVerdict::kCompliant);
}

TEST(ClassifyUnderComputation, DeadSilentNodeWithoutTokenEvidenceCrashed) {
  EXPECT_EQ(classify_under_computation(0.3, 0.1, true, false, 1e-3),
            UnderComputeVerdict::kCrash);
}

TEST(ClassifyUnderComputation, ExcessTokensConvictShedderEvenIfItDied) {
  // Token evidence outlives the node: dump then die is still shedding.
  EXPECT_EQ(classify_under_computation(0.3, 0.1, true, true, 1e-3),
            UnderComputeVerdict::kShedding);
  EXPECT_EQ(classify_under_computation(0.3, 0.1, false, true, 1e-3),
            UnderComputeVerdict::kShedding);
}

TEST(ClassifyUnderComputation, SlowButAliveNodeIsMerelyMetered) {
  EXPECT_EQ(classify_under_computation(0.3, 0.1, false, false, 1e-3),
            UnderComputeVerdict::kCompliant);
}

// ---------------------------------------------------------------------------
// run_protocol_ft acceptance properties.

TEST(RunProtocolFt, EmptyPlanMatchesThePlainProtocol) {
  const LinearNetwork net = test_network();
  ProtocolOptions options;
  options.seed = 7;
  const auto plain = run_protocol(net, truthful_population(net), options);
  const FtRunReport ft = run_ft(FaultPlan{});
  EXPECT_FALSE(ft.any_crash);
  EXPECT_TRUE(ft.recovered);
  ASSERT_EQ(ft.round.processors.size(), plain.processors.size());
  for (std::size_t i = 0; i < plain.processors.size(); ++i) {
    EXPECT_DOUBLE_EQ(ft.round.processors[i].utility,
                     plain.processors[i].utility)
        << i;
  }
}

TEST(RunProtocolFt, RejectsRootCrash) {
  EXPECT_THROW(run_ft(FaultPlan{}.crash_at_work(0, 0.5)),
               dls::PreconditionError);
}

// The headline acceptance sweep: every non-root processor, crashing at
// an early, middle, or late point of its own work.
TEST(RunProtocolFt, AnySingleCrashIsDetectedSettledAndRecovered) {
  const LinearNetwork net = test_network();
  for (std::size_t k = 1; k < net.size(); ++k) {
    for (const double fraction : {0.1, 0.5, 0.9}) {
      SCOPED_TRACE("P" + std::to_string(k) + " crashing at " +
                   std::to_string(fraction));
      const FtRunReport ft = run_ft(FaultPlan{}.crash_at_work(k, fraction));

      // The protocol completes and survivors absorb the full load.
      EXPECT_FALSE(ft.round.aborted);
      EXPECT_TRUE(ft.any_crash);
      EXPECT_TRUE(ft.recovered);
      double covered = 0.0;
      for (const auto& p : ft.round.processors) covered += p.computed;
      EXPECT_NEAR(covered, 1.0, 1e-9);

      // Money is conserved across the partially-settled round.
      EXPECT_NEAR(ft.round.ledger.conservation_residual(), 0.0, 1e-9);

      // The crashed node is settled, not fined.
      ASSERT_EQ(ft.crashes.size(), 1u);
      const auto& settlement = ft.crashes[0];
      EXPECT_EQ(settlement.processor, k);
      EXPECT_DOUBLE_EQ(settlement.fine, 0.0);
      EXPECT_LT(settlement.verified_computed, settlement.assigned);
      EXPECT_GT(settlement.verified_computed, 0.0);
      // E_j-style pay: verified work at the metered (= true) rate.
      EXPECT_NEAR(settlement.settlement_paid,
                  settlement.verified_computed * net.w(k), 1e-6);
      const auto& report = ft.round.processors[k];
      EXPECT_DOUBLE_EQ(report.fines, 0.0);
      EXPECT_NEAR(report.payment, settlement.settlement_paid, 1e-9);
      // Made whole for effort, not rewarded beyond it.
      EXPECT_NEAR(report.utility, 0.0, 1e-9);

      // Detection forensics are on the incident log.
      bool crash_incident = false;
      for (const Incident& inc : ft.round.incidents) {
        EXPECT_NE(inc.kind, Incident::Kind::kLoadShedding);
        if (inc.kind == Incident::Kind::kCrash && inc.accused == k) {
          crash_incident = true;
          EXPECT_DOUBLE_EQ(inc.fine, 0.0);
        }
      }
      EXPECT_TRUE(crash_incident);
      EXPECT_GT(ft.detection_latency, 0.0);
      EXPECT_GE(ft.degraded_makespan, ft.round.solution.makespan - 1e-9);

      // Survivors that absorbed extra load are paid for it.
      for (const std::size_t s : ft.survivors) {
        if (s == 0) continue;
        const auto& p = ft.round.processors[s];
        if (p.computed > p.assigned + 1e-9) {
          EXPECT_GT(p.payment, 0.0) << "survivor P" << s;
        }
        EXPECT_DOUBLE_EQ(p.fines, 0.0) << "survivor P" << s;
      }
    }
  }
}

TEST(RunProtocolFt, DoubleCrashStillRecovers) {
  const FtRunReport ft =
      run_ft(FaultPlan{}.crash_at_work(2, 0.3).crash_at_work(4, 0.6));
  EXPECT_TRUE(ft.recovered);
  EXPECT_EQ(ft.crashes.size(), 2u);
  double covered = 0.0;
  for (const auto& p : ft.round.processors) covered += p.computed;
  EXPECT_NEAR(covered, 1.0, 1e-9);
  EXPECT_NEAR(ft.round.ledger.conservation_residual(), 0.0, 1e-9);
  // The recovery prefix stops before the first crashed node.
  for (const std::size_t s : ft.survivors) {
    EXPECT_FALSE(s == 2 || s == 4);
  }
}

TEST(RunProtocolFt, ImmediateCrashOfTheFirstWorkerLeavesTheRootAlone) {
  // P1 dies the moment its load arrives: nothing can be relayed, the
  // root re-solves over the single-processor prefix and computes the
  // entire residual.
  const FtRunReport ft = run_ft(FaultPlan{}.crash_at_work(1, 0.0));
  EXPECT_TRUE(ft.recovered);
  double covered = 0.0;
  for (const auto& p : ft.round.processors) covered += p.computed;
  EXPECT_NEAR(covered, 1.0, 1e-9);
  EXPECT_NEAR(ft.round.ledger.conservation_residual(), 0.0, 1e-9);
  // The victim computed nothing, so its settlement is zero — and it is
  // still not fined.
  ASSERT_EQ(ft.crashes.size(), 1u);
  EXPECT_DOUBLE_EQ(ft.crashes[0].settlement_paid, 0.0);
  EXPECT_DOUBLE_EQ(ft.round.processors[1].fines, 0.0);
}

TEST(RunProtocolFt, SheddingIsStillFinedUnderAnActiveFaultPlan) {
  // P2 dumps half its share while P4 genuinely crashes: the token
  // evidence convicts the shedder, the silent node is settled.
  const LinearNetwork net = test_network();
  std::vector<StrategicAgent> agents;
  for (std::size_t i = 1; i < net.size(); ++i) {
    agents.push_back(StrategicAgent{
        i, net.w(i),
        i == 2 ? Behavior::load_shedder(0.5) : Behavior::truthful()});
  }
  ProtocolOptions options;
  options.seed = 7;
  FaultToleranceOptions ft_options;
  ft_options.faults = FaultPlan{}.crash_at_work(4, 0.5);
  const FtRunReport ft = run_protocol_ft(net, Population(std::move(agents)),
                                         options, ft_options);
  EXPECT_EQ(ft.verdicts[2], UnderComputeVerdict::kShedding);
  EXPECT_EQ(ft.verdicts[4], UnderComputeVerdict::kCrash);
  EXPECT_GT(ft.round.processors[2].fines, 0.0);
  EXPECT_DOUBLE_EQ(ft.round.processors[4].fines, 0.0);
  EXPECT_NEAR(ft.round.ledger.conservation_residual(), 0.0, 1e-9);
}

TEST(RunProtocolFt, SameSeedRunsReplayBitIdentically) {
  const FaultPlan plan = FaultPlan{}.crash_at_work(3, 0.4);
  const FtRunReport a = run_ft(plan);
  const FtRunReport b = run_ft(plan);
  ASSERT_TRUE(a.round.execution.has_value());
  ASSERT_TRUE(b.round.execution.has_value());
  const auto& ta = a.round.execution->trace.intervals();
  const auto& tb = b.round.execution->trace.intervals();
  ASSERT_EQ(ta.size(), tb.size());
  for (std::size_t i = 0; i < ta.size(); ++i) {
    EXPECT_EQ(ta[i].processor, tb[i].processor);
    EXPECT_EQ(ta[i].activity, tb[i].activity);
    EXPECT_DOUBLE_EQ(ta[i].start, tb[i].start);
    EXPECT_DOUBLE_EQ(ta[i].end, tb[i].end);
    EXPECT_DOUBLE_EQ(ta[i].amount, tb[i].amount);
  }
  for (std::size_t i = 0; i < a.round.processors.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.round.processors[i].computed,
                     b.round.processors[i].computed);
    EXPECT_DOUBLE_EQ(a.round.processors[i].payment,
                     b.round.processors[i].payment);
    EXPECT_DOUBLE_EQ(a.round.processors[i].utility,
                     b.round.processors[i].utility);
  }
  EXPECT_DOUBLE_EQ(a.degraded_makespan, b.degraded_makespan);
  EXPECT_DOUBLE_EQ(a.detection_latency, b.detection_latency);
}

}  // namespace
