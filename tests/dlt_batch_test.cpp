// Property tests for the batched SoA solver engine: every lane of a
// BatchLinearSolver solve is bit-identical (exact ==, never approximate)
// to a scalar solve_linear_boundary of the same instance, across chain
// lengths m in 1..64, degenerate chains, batch widths K in 1..5, 7..9,
// 17 and 256 (every remainder of the 4-wide and 2-wide vector loops) and
// ragged buffer reuse. The same discipline is asserted for the batched
// counterfactual rebids, the utility curve they feed, and the batch-lane
// mechanism assessment.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "check/contracts.hpp"
#include "check/solver_invariants.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/dls_lbl.hpp"
#include "dlt/batch.hpp"
#include "dlt/counterfactual.hpp"
#include "dlt/linear.hpp"
#include "net/networks.hpp"

namespace {

using dls::common::Rng;
using dls::core::AssessWorkspace;
using dls::core::CounterfactualMechanism;
using dls::core::DlsLblResult;
using dls::core::MechanismConfig;
using dls::dlt::BatchLinearSolver;
using dls::dlt::CounterfactualSolver;
using dls::dlt::LinearSolution;
using dls::dlt::LinearSolverWorkspace;
using dls::net::LinearNetwork;

std::vector<LinearNetwork> random_instances(std::size_t count,
                                            std::size_t processors,
                                            std::uint64_t seed) {
  Rng rng(seed);
  std::vector<LinearNetwork> nets;
  nets.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    nets.push_back(
        LinearNetwork::random(processors, rng, 0.5, 5.0, 0.05, 0.5));
  }
  return nets;
}

/// Solves `nets` as one batch and asserts every lane and every
/// extracted solution equals the scalar solver bit-for-bit.
void expect_batch_matches_scalar(const std::vector<LinearNetwork>& nets,
                                 BatchLinearSolver& solver) {
  const std::size_t n = nets.front().size();
  const std::size_t lanes = nets.size();
  solver.begin(n, lanes);
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    solver.set_instance(lane, nets[lane]);
  }
  solver.solve();

  LinearSolverWorkspace ws;
  LinearSolution extracted;
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    const LinearSolution& direct =
        solve_linear_boundary(nets[lane], ws, /*want_steps=*/false);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(solver.alpha(lane, i), direct.alpha[i]);
      ASSERT_EQ(solver.alpha_hat(lane, i), direct.alpha_hat[i]);
      ASSERT_EQ(solver.equivalent_w(lane, i), direct.equivalent_w[i]);
      ASSERT_EQ(solver.received(lane, i), direct.received[i]);
    }
    ASSERT_EQ(solver.makespan(lane), direct.makespan);

    solver.extract(lane, extracted);
    ASSERT_EQ(extracted.alpha, direct.alpha);
    ASSERT_EQ(extracted.alpha_hat, direct.alpha_hat);
    ASSERT_EQ(extracted.equivalent_w, direct.equivalent_w);
    ASSERT_EQ(extracted.received, direct.received);
    ASSERT_EQ(extracted.makespan, direct.makespan);
    ASSERT_TRUE(extracted.steps.empty());
  }
}

TEST(DltBatchTest, BitIdenticalToScalarAcrossChainAndBatchSizes) {
  BatchLinearSolver solver;
  std::uint64_t seed = 11;
  for (const std::size_t n : {1ul, 2ul, 3ul, 5ul, 8ul, 13ul, 31ul, 64ul}) {
    for (const std::size_t lanes :
         {1ul, 2ul, 3ul, 4ul, 5ul, 7ul, 8ul, 9ul, 17ul}) {
      SCOPED_TRACE("n=" + std::to_string(n) +
                   " lanes=" + std::to_string(lanes));
      expect_batch_matches_scalar(random_instances(lanes, n, seed++), solver);
    }
  }
}

TEST(DltBatchTest, WideBatch256BitIdentical) {
  BatchLinearSolver solver;
  expect_batch_matches_scalar(random_instances(256, 16, 101), solver);
}

TEST(DltBatchTest, SimdAvailabilityImpliesCompiled) {
  if (dls::dlt::batch_simd_available()) {
    EXPECT_TRUE(dls::dlt::batch_simd_compiled());
  }
}

TEST(DltBatchTest, DegenerateAndExtremeChains) {
  BatchLinearSolver solver;

  // Single-processor chains: the root takes the whole load.
  std::vector<LinearNetwork> singletons;
  singletons.emplace_back(std::vector<double>{2.5}, std::vector<double>{});
  singletons.emplace_back(std::vector<double>{1e-6}, std::vector<double>{});
  singletons.emplace_back(std::vector<double>{1e6}, std::vector<double>{});
  expect_batch_matches_scalar(singletons, solver);
  EXPECT_EQ(solver.alpha(0, 0), 1.0);
  EXPECT_EQ(solver.makespan(0), 2.5);

  // Two-processor chains and extreme 12-decade rate spreads.
  std::vector<LinearNetwork> pairs;
  pairs.emplace_back(std::vector<double>{1.0, 1.0}, std::vector<double>{0.1});
  pairs.emplace_back(std::vector<double>{1e-6, 1e6},
                     std::vector<double>{1e-6});
  pairs.emplace_back(std::vector<double>{1e6, 1e-6},
                     std::vector<double>{1e6});
  expect_batch_matches_scalar(pairs, solver);
}

TEST(DltBatchTest, RaggedReuseAcrossShapes) {
  // One solver instance reused across shrinking and growing shapes —
  // including a final ragged width that is not a vector-width multiple.
  BatchLinearSolver solver;
  solver.reserve(64, 256);
  std::uint64_t seed = 900;
  for (const auto& [n, lanes] :
       std::vector<std::pair<std::size_t, std::size_t>>{
           {8, 17}, {64, 3}, {2, 256}, {5, 1}, {3, 7}}) {
    SCOPED_TRACE("n=" + std::to_string(n) + " lanes=" + std::to_string(lanes));
    expect_batch_matches_scalar(random_instances(lanes, n, seed++), solver);
  }
}

TEST(DltBatchTest, ApiMisuseIsRejected) {
  BatchLinearSolver solver;
  solver.begin(4, 2);
  const std::vector<double> w = {1.0, 2.0, 3.0, 4.0};
  const std::vector<double> z = {0.1, 0.2, 0.3};
  solver.set_instance(0, w, z);
  // Lane 1 never filled.
  EXPECT_THROW(solver.solve(), dls::Error);
  // Shape and rate-domain mistakes are caught at set_instance time.
  EXPECT_THROW(solver.set_instance(1, std::vector<double>{1.0, 2.0}, z),
               dls::Error);
  EXPECT_THROW(
      solver.set_instance(1, std::vector<double>{1.0, -2.0, 3.0, 4.0}, z),
      dls::Error);
  EXPECT_THROW(solver.set_instance(2, w, z), dls::Error);
  // +inf passes a bare `> 0` test; it must be refused here, not surface
  // from solve() as a lane-audit failure or a NaN lane.
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(
      solver.set_instance(1, std::vector<double>{1.0, inf, 3.0, 4.0}, z),
      dls::Error);
  EXPECT_THROW(solver.set_instance(1, w, std::vector<double>{0.1, 0.2, inf}),
               dls::Error);
}

TEST(DltBatchTest, LaneAuditorCatchesCorruptedLane) {
  // The src/check batch auditor replays the recurrence per lane; feed it
  // a scalar solution laid out as a one-lane batch and verify it passes
  // clean and fires on a corrupted entry.
  const LinearNetwork net({1.0, 1.2, 0.9, 1.1}, {0.15, 0.1, 0.2});
  LinearSolution sol;
  solve_linear_boundary_into(net, sol, /*want_steps=*/false);
  const std::vector<double> w(net.processing_times().begin(),
                              net.processing_times().end());
  const std::vector<double> z(net.link_times().begin(),
                              net.link_times().end());
  EXPECT_NO_THROW(dls::check::check_batch_lane(
      w.data(), /*w_stride=*/1, z.data(), /*z_stride=*/1, sol.alpha.data(),
      sol.alpha_hat.data(), sol.equivalent_w.data(), sol.received.data(),
      sol.makespan, w.size(), /*stride=*/1, /*lane=*/0));
  LinearSolution bad = sol;
  bad.alpha_hat[1] += 1e-12;  // one ulp-scale nudge must be caught
  EXPECT_THROW(
      dls::check::check_batch_lane(
          w.data(), /*w_stride=*/1, z.data(), /*z_stride=*/1, bad.alpha.data(),
          bad.alpha_hat.data(), bad.equivalent_w.data(), bad.received.data(),
          bad.makespan, w.size(), /*stride=*/1, /*lane=*/0),
      dls::check::ContractViolation);
}

TEST(DltBatchTest, RebidBatchMatchesScalarRebid) {
  Rng rng(5);
  const LinearNetwork net = LinearNetwork::random(12, rng, 0.5, 5.0, 0.1, 0.6);
  CounterfactualSolver solver(net);
  std::vector<double> all_bids;
  for (std::size_t k = 0; k < 33; ++k) {
    all_bids.push_back(rng.uniform(0.2, 8.0));
  }
  // Bid counts 1..9 cover every remainder of the 4-wide and 2-wide
  // vector loops; 33 runs several full vectors plus a tail.
  for (const std::size_t count :
       {1ul, 2ul, 3ul, 4ul, 5ul, 6ul, 7ul, 8ul, 9ul, 33ul}) {
    const std::span<const double> bids(all_bids.data(), count);
    std::vector<CounterfactualSolver::Rebid> batch(count);
    for (const std::size_t index : {0ul, 1ul, 6ul, 11ul}) {
      SCOPED_TRACE("bids=" + std::to_string(count) +
                   " index=" + std::to_string(index));
      solver.rebid_batch(index, bids, batch);
      for (std::size_t k = 0; k < count; ++k) {
        const CounterfactualSolver::Rebid direct =
            solver.rebid(index, bids[k]);
        ASSERT_EQ(batch[k].index, direct.index);
        ASSERT_EQ(batch[k].bid, direct.bid);
        ASSERT_EQ(batch[k].alpha, direct.alpha);
        ASSERT_EQ(batch[k].alpha_hat, direct.alpha_hat);
        ASSERT_EQ(batch[k].equivalent_w, direct.equivalent_w);
        ASSERT_EQ(batch[k].alpha_hat_pred, direct.alpha_hat_pred);
        ASSERT_EQ(batch[k].makespan, direct.makespan);
      }
    }
  }
}

TEST(DltBatchTest, UtilityCurveMatchesUtilityLoop) {
  Rng rng(6);
  const LinearNetwork net = LinearNetwork::random(9, rng, 0.5, 5.0, 0.1, 0.6);
  for (const bool verify : {true, false}) {
    MechanismConfig config;
    config.verify_actual_rates = verify;
    CounterfactualMechanism mech(net, net.processing_times(), config);
    std::vector<double> bids;
    for (std::size_t k = 0; k < 41; ++k) bids.push_back(rng.uniform(0.2, 9.0));
    std::vector<double> curve(bids.size());
    for (const std::size_t index : {1ul, 4ul, 8ul}) {
      SCOPED_TRACE("index=" + std::to_string(index) +
                   " verify=" + std::to_string(verify));
      mech.utility_curve(index, bids, curve);
      for (std::size_t k = 0; k < bids.size(); ++k) {
        ASSERT_EQ(curve[k],
                  mech.utility(index, bids[k], net.w(index)));
      }
    }
  }
}

TEST(DltBatchTest, AssessFromBatchMatchesAssessCompliant) {
  const std::vector<LinearNetwork> nets = random_instances(5, 7, 77);
  const std::size_t n = nets.front().size();
  BatchLinearSolver solver;
  solver.begin(n, nets.size());
  for (std::size_t lane = 0; lane < nets.size(); ++lane) {
    solver.set_instance(lane, nets[lane]);
  }
  solver.solve();

  const MechanismConfig config{};
  AssessWorkspace batch_ws;
  AssessWorkspace direct_ws;
  for (std::size_t lane = 0; lane < nets.size(); ++lane) {
    SCOPED_TRACE("lane=" + std::to_string(lane));
    const DlsLblResult& from_batch = dls::core::assess_compliant_from_batch(
        nets[lane], solver, lane, nets[lane].processing_times(), config,
        batch_ws);
    const DlsLblResult& direct = dls::core::assess_compliant(
        nets[lane], nets[lane].processing_times(), config, direct_ws);
    ASSERT_EQ(from_batch.processors.size(), direct.processors.size());
    for (std::size_t j = 0; j < direct.processors.size(); ++j) {
      ASSERT_EQ(from_batch.processors[j].money.payment,
                direct.processors[j].money.payment);
      ASSERT_EQ(from_batch.processors[j].money.utility,
                direct.processors[j].money.utility);
      ASSERT_EQ(from_batch.processors[j].alpha, direct.processors[j].alpha);
    }
    ASSERT_EQ(from_batch.total_payment, direct.total_payment);
    ASSERT_EQ(from_batch.mechanism_cost, direct.mechanism_cost);
  }
}

}  // namespace
