// Unit and property tests for the multi-load scheduling engine:
// MultiLoadSolver's pipelined dispatch recurrence, the per-installment
// invariant checker, and the per-load DLS-LBL payment scaling.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "check/contracts.hpp"
#include "check/multiload_invariants.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/dls_lbl.hpp"
#include "multiload/payments.hpp"
#include "multiload/solver.hpp"
#include "net/networks.hpp"
#include "sim/multiload_execution.hpp"

namespace {

namespace check = dls::check;
using dls::common::Rng;
using dls::core::assess_compliant;
using dls::core::DlsLblResult;
using dls::core::MechanismConfig;
using dls::dlt::solve_linear_boundary;
using dls::multiload::assess_loads;
using dls::multiload::dispatch_order;
using dls::multiload::DispatchPolicy;
using dls::multiload::installment_size;
using dls::multiload::LoadSpec;
using dls::multiload::MultiLoadAssessment;
using dls::multiload::MultiLoadConfig;
using dls::multiload::MultiLoadSchedule;
using dls::multiload::MultiLoadSolver;
using dls::net::LinearNetwork;

LinearNetwork test_chain() {
  return LinearNetwork({1.0, 1.2, 0.9, 1.1}, {0.15, 0.1, 0.2});
}

TEST(InstallmentSize, ConservesTotalBitExactly) {
  for (const double total : {1.0, 0.3, 7.25, 1e-3}) {
    for (const std::size_t count : {std::size_t{1}, std::size_t{2},
                                    std::size_t{3}, std::size_t{7}}) {
      const double even = total / static_cast<double>(count);
      double tail = installment_size(total, count, count - 1);
      // The last chunk is the exact remainder of the even chunks.
      EXPECT_EQ(tail, total - even * static_cast<double>(count - 1));
      for (std::size_t i = 0; i + 1 < count; ++i) {
        EXPECT_EQ(installment_size(total, count, i), even);
      }
    }
  }
}

TEST(DispatchOrder, FifoKeepsLoadsContiguous) {
  const std::vector<LoadSpec> loads = {{1, 1.0, 0.5, 0.0},
                                       {2, 1.0, 0.0, 0.0},
                                       {3, 1.0, 0.5, 0.0}};
  MultiLoadConfig config;
  config.installments_per_load = 2;
  const auto order = dispatch_order(loads, config);
  ASSERT_EQ(order.size(), 6u);
  // Release order with a stable tie-break: load 2 (release 0) first,
  // then loads 1 and 3 in input order; chunks contiguous per load.
  const std::vector<std::pair<std::size_t, std::size_t>> expect = {
      {1, 0}, {1, 1}, {0, 0}, {0, 1}, {2, 0}, {2, 1}};
  EXPECT_EQ(order, expect);
}

TEST(DispatchOrder, InterleavedRoundRobins) {
  const std::vector<LoadSpec> loads = {{1, 1.0, 0.0, 0.0},
                                       {2, 1.0, 0.0, 0.0}};
  MultiLoadConfig config;
  config.policy = DispatchPolicy::kInterleaved;
  config.installments_per_load = 3;
  const auto order = dispatch_order(loads, config);
  const std::vector<std::pair<std::size_t, std::size_t>> expect = {
      {0, 0}, {1, 0}, {0, 1}, {1, 1}, {0, 2}, {1, 2}};
  EXPECT_EQ(order, expect);
}

TEST(MultiLoadSolver, SingleLoadBitIdenticalToAlgorithm1) {
  const LinearNetwork network = test_chain();
  const auto reference = solve_linear_boundary(network);
  MultiLoadSolver solver(network);
  for (const DispatchPolicy policy :
       {DispatchPolicy::kFifo, DispatchPolicy::kInterleaved}) {
    MultiLoadConfig config;
    config.policy = policy;
    const MultiLoadSchedule schedule = solver.solve({{7, 1.0}}, config);
    // Exact ==, not approximate: the engine must reproduce the
    // single-load solver bit for bit when given its exact problem.
    EXPECT_EQ(schedule.makespan, reference.makespan);
    EXPECT_EQ(schedule.serialized_makespan, reference.makespan);
    ASSERT_EQ(schedule.chain.alpha.size(), reference.alpha.size());
    for (std::size_t i = 0; i < reference.alpha.size(); ++i) {
      EXPECT_EQ(schedule.chain.alpha[i], reference.alpha[i]);
      EXPECT_EQ(schedule.chain.alpha_hat[i], reference.alpha_hat[i]);
    }
    ASSERT_EQ(schedule.installments.size(), 1u);
    EXPECT_EQ(schedule.installments[0].comm_start, 0.0);
    EXPECT_EQ(schedule.installments[0].completion, reference.makespan);
    EXPECT_FALSE(schedule.installments[0].blocked);
    EXPECT_TRUE(schedule.loads[0].deadline_met);
  }
}

TEST(MultiLoadSolver, SingleProcessorChainStillBitIdentical) {
  const LinearNetwork network({1.7}, {});
  const auto reference = solve_linear_boundary(network);
  MultiLoadSolver solver(network);
  const MultiLoadSchedule schedule = solver.solve({{1, 1.0}});
  EXPECT_EQ(schedule.makespan, reference.makespan);
}

TEST(MultiLoadSolver, FifoPipelinesBackToBackAtRootBound) {
  // With no ingress cost the root computes α_0 w_0 = makespan per unit
  // and is never idle, so pipelined FIFO exactly matches serialized
  // rounds — the engine must find that bound, not lose to it.
  MultiLoadSolver solver(test_chain());
  const std::vector<LoadSpec> loads = {{1, 1.0}, {2, 2.0}, {3, 0.5}};
  const MultiLoadSchedule schedule = solver.solve(loads);
  EXPECT_NEAR(schedule.makespan, schedule.serialized_makespan,
              1e-9 * schedule.serialized_makespan);
  // Later chunks are blocked on busy processors, not on data.
  EXPECT_TRUE(schedule.installments.back().blocked);
}

TEST(MultiLoadSolver, IngressStagingBeatsSerializedRounds) {
  // With a real ingress link, serialized rounds idle the chain during
  // every stage; pipelined dispatch stages load k+1 while load k
  // computes. Three equal loads at half-makespan staging cost must cut
  // a strict fraction of the serialized time.
  MultiLoadSolver solver(test_chain());
  MultiLoadConfig config;
  config.ingress_z = 0.5 * solver.chain().makespan;
  const std::vector<LoadSpec> loads = {{1, 1.0}, {2, 1.0}, {3, 1.0}};
  const MultiLoadSchedule schedule = solver.solve(loads, config);
  EXPECT_LT(schedule.makespan, 0.85 * schedule.serialized_makespan);
  // The lower bound still holds: staging the first load is serial.
  EXPECT_GT(schedule.makespan,
            loads[0].size * config.ingress_z + 3.0 * solver.chain().makespan -
                1e-9);
}

TEST(MultiLoadSolver, NonFiniteInputsAreRejected) {
  // NaN satisfies no ordered comparison, so naive `< 0` validation lets
  // NaN (and +inf sizes) through and every downstream timestamp turns
  // to garbage; the solver must reject them unconditionally, even at
  // DLS_CHECK_LEVEL=0 where the schedule audit is compiled out.
  const LinearNetwork network = test_chain();
  MultiLoadSolver solver(network);
  const MultiLoadConfig config;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(solver.solve({LoadSpec{1, inf, 0.0, 0.0}}, config),
               dls::InfeasibleError);
  EXPECT_THROW(solver.solve({LoadSpec{1, nan, 0.0, 0.0}}, config),
               dls::InfeasibleError);
  EXPECT_THROW(solver.solve({LoadSpec{1, 1.0, nan, 0.0}}, config),
               dls::InfeasibleError);
  EXPECT_THROW(solver.solve({LoadSpec{1, 1.0, 0.0, nan}}, config),
               dls::InfeasibleError);
  EXPECT_THROW(solver.solve({LoadSpec{1, 1.0, inf, 0.0}}, config),
               dls::InfeasibleError);
  MultiLoadConfig bad_ingress;
  bad_ingress.ingress_z = nan;
  EXPECT_THROW(solver.solve({LoadSpec{1, 1.0, 0.0, 0.0}}, bad_ingress),
               dls::Error);
}

TEST(MultiLoadSolver, ReleasesAndDeadlinesHonored) {
  MultiLoadSolver solver(test_chain());
  const double m = solver.chain().makespan;
  const std::vector<LoadSpec> loads = {
      {1, 1.0, 0.0, 2.0 * m},   // met: completes at m
      {2, 1.0, 5.0 * m, 0.0},   // released late, no deadline
      {3, 1.0, 0.0, 1.5 * m},   // missed: queued behind load 1
  };
  const MultiLoadSchedule schedule = solver.solve(loads);
  EXPECT_TRUE(schedule.loads[0].deadline_met);
  EXPECT_TRUE(schedule.loads[1].deadline_met);
  EXPECT_FALSE(schedule.loads[2].deadline_met);
  // The late release is honored: load 2 starts no earlier than 5m.
  EXPECT_GE(schedule.loads[1].start, 5.0 * m);
}

TEST(MultiLoadSolver, PipelinedNeverLosesAcrossRandomInstances) {
  Rng rng(20260809);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t n = 2 + static_cast<std::size_t>(rng.uniform(0.0, 6.0));
    const LinearNetwork network =
        LinearNetwork::random(n, rng, 0.5, 2.0, 0.05, 0.5);
    MultiLoadSolver solver(network);
    std::vector<LoadSpec> loads;
    const std::size_t count = 1 + static_cast<std::size_t>(rng.uniform(0.0, 4.0));
    for (std::size_t k = 0; k < count; ++k) {
      loads.push_back({k, rng.uniform(0.2, 3.0), 0.0, 0.0});
    }
    MultiLoadConfig config;
    config.policy = (trial % 2 == 0) ? DispatchPolicy::kFifo
                                     : DispatchPolicy::kInterleaved;
    config.installments_per_load = 1 + static_cast<std::size_t>(trial % 3);
    config.ingress_z = (trial % 4 == 0) ? 0.0 : rng.uniform(0.0, 1.0);
    // solve() runs check_multiload_schedule at DLS_CHECK_LEVEL >= 1:
    // every instance passing is the property under test.
    const MultiLoadSchedule schedule = solver.solve(loads, config);
    EXPECT_LE(schedule.makespan,
              schedule.serialized_makespan * (1.0 + 1e-9));
  }
}

TEST(MultiLoadChecker, CatchesCorruptedSchedules) {
  const LinearNetwork network = test_chain();
  MultiLoadSolver solver(network);
  const std::vector<LoadSpec> loads = {{1, 1.0}, {2, 1.5}};
  MultiLoadConfig config;
  config.installments_per_load = 2;
  const MultiLoadSchedule good = solver.solve(loads, config);

  const std::size_t before = check::violation_count();
  {
    MultiLoadSchedule bad = good;  // conservation: chunk size tampered
    bad.installments[1].size *= 1.01;
    EXPECT_THROW(
        check::check_multiload_schedule(network, loads, config, bad),
        check::ContractViolation);
  }
  {
    MultiLoadSchedule bad = good;  // causality: compute before arrival
    bad.installments[2].compute_start[1] =
        bad.installments[2].arrival[1] - 0.01;
    EXPECT_THROW(
        check::check_multiload_schedule(network, loads, config, bad),
        check::ContractViolation);
  }
  {
    MultiLoadSchedule bad = good;  // one-port: comm_start rewound
    bad.installments[3].comm_start = 0.0;
    EXPECT_THROW(
        check::check_multiload_schedule(network, loads, config, bad),
        check::ContractViolation);
  }
  {
    MultiLoadSchedule bad = good;  // makespan must cover every load
    bad.makespan *= 0.5;
    EXPECT_THROW(
        check::check_multiload_schedule(network, loads, config, bad),
        check::ContractViolation);
  }
  EXPECT_EQ(check::violation_count(), before + 4);
}

TEST(MultiLoadPayments, UnitLoadBitIdenticalToAssessCompliant) {
  const LinearNetwork network = test_chain();
  MechanismConfig mechanism;
  mechanism.solution_bonus_enabled = true;
  const DlsLblResult reference =
      assess_compliant(network, network.processing_times(), mechanism);
  const std::vector<LoadSpec> loads = {{42, 1.0}};
  const MultiLoadAssessment assessment =
      assess_loads(network, network.processing_times(), loads, mechanism);
  EXPECT_EQ(assessment.total_payment, reference.total_payment);
  EXPECT_EQ(assessment.mechanism_cost, reference.mechanism_cost);
  for (std::size_t j = 1; j < network.size(); ++j) {
    EXPECT_EQ(assessment.loads[0].payment[j],
              reference.processors[j].money.payment);
  }
}

TEST(MultiLoadPayments, ScaleLinearlyExceptFlatBonus) {
  const LinearNetwork network = test_chain();
  MechanismConfig mechanism;
  mechanism.solution_bonus_enabled = true;
  const std::vector<LoadSpec> loads = {{1, 1.0}, {2, 3.0}};
  const MultiLoadAssessment assessment =
      assess_loads(network, network.processing_times(), loads, mechanism);
  const auto& unit = assessment.loads[0];
  const auto& tripled = assessment.loads[1];
  for (std::size_t j = 1; j < network.size(); ++j) {
    // Compensation and bonus scale with the units processed; the
    // Theorem 5.2 solution bonus is flat per verified solution.
    EXPECT_DOUBLE_EQ(tripled.compensation[j], 3.0 * unit.compensation[j]);
    EXPECT_DOUBLE_EQ(tripled.bonus[j], 3.0 * unit.bonus[j]);
    EXPECT_DOUBLE_EQ(tripled.solution_bonus[j], unit.solution_bonus[j]);
    EXPECT_NEAR(tripled.payment[j] - tripled.solution_bonus[j],
                3.0 * (unit.payment[j] - unit.solution_bonus[j]), 1e-12);
  }
}

TEST(MultiLoadTrace, LanesHonorOnePortAndConserveLoad) {
  const LinearNetwork network = test_chain();
  const std::vector<LoadSpec> loads = {
      {1, 1.0, 0.0, 0.0}, {2, 2.0, 0.5, 0.0}, {3, 0.5, 1.0, 0.0}};
  for (const DispatchPolicy policy :
       {DispatchPolicy::kFifo, DispatchPolicy::kInterleaved}) {
    MultiLoadConfig config;
    config.policy = policy;
    config.installments_per_load = 2;
    config.ingress_z = 0.1;
    MultiLoadSolver solver(network);
    const MultiLoadSchedule schedule = solver.solve(loads, config);
    const dls::sim::MultiLoadTrace traced =
        dls::sim::trace_multiload(network, schedule);

    ASSERT_EQ(traced.lanes.size(), loads.size());
    EXPECT_EQ(traced.combined.check_one_port(), "");
    double expected_end = 0.0;
    for (const dls::multiload::Installment& inst : schedule.installments) {
      for (const double finish : inst.finish) {
        expected_end = std::max(expected_end, finish);
      }
    }
    EXPECT_EQ(traced.combined.end(), expected_end);
    EXPECT_EQ(traced.combined.processors(), network.size());

    for (std::size_t k = 0; k < loads.size(); ++k) {
      EXPECT_EQ(traced.lanes[k].check_one_port(), "");
      // kCompute amounts are size-scaled alpha fractions, so each lane's
      // computed work sums back to its load's size.
      double computed = 0.0;
      for (const dls::sim::Interval& interval : traced.lanes[k].intervals()) {
        if (interval.activity == dls::sim::Activity::kCompute) {
          computed += interval.amount;
        }
      }
      EXPECT_NEAR(computed, loads[k].size, 1e-12);
    }
  }
}

TEST(MultiLoadTrace, GanttRendersOneTitledLanePerLoad) {
  const LinearNetwork network = test_chain();
  const std::vector<LoadSpec> loads = {{7, 1.0, 0.0, 0.0},
                                       {9, 1.5, 0.0, 0.0}};
  MultiLoadConfig config;
  config.ingress_z = 0.05;
  MultiLoadSolver solver(network);
  const MultiLoadSchedule schedule = solver.solve(loads, config);
  std::ostringstream os;
  dls::sim::render_multiload_gantt(os, network, schedule);
  const std::string out = os.str();
  EXPECT_NE(out.find("load 7"), std::string::npos) << out;
  EXPECT_NE(out.find("load 9"), std::string::npos) << out;
}

}  // namespace
