// Tests for the incremental counterfactual engine: the O(j) prefix
// re-solve must agree with a from-scratch Algorithm 1 run on the
// modified chain to machine precision, across random chains, every
// index, and the degenerate 1-2 processor networks; and the batched
// utility engine must reproduce core::utility_under_bid exactly.
#include <gtest/gtest.h>

#include <cstddef>
#include <limits>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/dls_lbl.hpp"
#include "dlt/counterfactual.hpp"
#include "dlt/linear.hpp"
#include "net/networks.hpp"

namespace {

using dls::common::Rng;
using dls::core::CounterfactualMechanism;
using dls::core::MechanismConfig;
using dls::dlt::CounterfactualSolver;
using dls::dlt::LinearSolution;
using dls::dlt::solve_linear_boundary;
using dls::net::LinearNetwork;

constexpr double kTol = 1e-12;

void expect_rebid_matches_full(const LinearNetwork& base, std::size_t index,
                               double bid) {
  CounterfactualSolver solver(base);
  std::vector<double> alpha;
  const CounterfactualSolver::Rebid r =
      solver.rebid_allocation(index, bid, alpha);
  const LinearSolution full =
      solve_linear_boundary(base.with_processing_time(index, bid));
  EXPECT_NEAR(r.alpha, full.alpha[index], kTol);
  EXPECT_NEAR(r.alpha_hat, full.alpha_hat[index], kTol);
  EXPECT_NEAR(r.equivalent_w, full.equivalent_w[index], kTol);
  EXPECT_NEAR(r.makespan, full.makespan, kTol);
  if (index > 0) {
    EXPECT_NEAR(r.alpha_hat_pred, full.alpha_hat[index - 1], kTol);
  }
  ASSERT_EQ(alpha.size(), full.alpha.size());
  for (std::size_t i = 0; i < alpha.size(); ++i) {
    EXPECT_NEAR(alpha[i], full.alpha[i], kTol) << "alpha[" << i << "]";
  }
}

TEST(CounterfactualSolver, MatchesFullSolveAcrossRandomChains) {
  Rng rng(2026);
  for (int rep = 0; rep < 40; ++rep) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(3, 24));
    const LinearNetwork base =
        LinearNetwork::random(n, rng, 0.5, 5.0, 0.05, 0.5);
    for (std::size_t index = 0; index < n; ++index) {
      const double mult = rng.log_uniform(0.2, 5.0);
      expect_rebid_matches_full(base, index, base.w(index) * mult);
    }
  }
}

TEST(CounterfactualSolver, TruthfulRebidReproducesBaseBitForBit) {
  Rng rng(7);
  const LinearNetwork base = LinearNetwork::random(12, rng, 0.5, 5.0,
                                                   0.05, 0.5);
  CounterfactualSolver solver(base);
  for (std::size_t index = 0; index < base.size(); ++index) {
    const CounterfactualSolver::Rebid r = solver.rebid(index, base.w(index));
    // Identical arithmetic on identical inputs: exact equality, not NEAR.
    EXPECT_EQ(r.alpha, solver.base().alpha[index]);
    EXPECT_EQ(r.alpha_hat, solver.base().alpha_hat[index]);
    EXPECT_EQ(r.equivalent_w, solver.base().equivalent_w[index]);
    EXPECT_EQ(r.makespan, solver.base().makespan);
  }
}

TEST(CounterfactualSolver, DegenerateOneProcessorChain) {
  const LinearNetwork base({2.0}, {});
  CounterfactualSolver solver(base);
  std::vector<double> alpha;
  const CounterfactualSolver::Rebid r = solver.rebid_allocation(0, 3.5, alpha);
  EXPECT_DOUBLE_EQ(r.alpha, 1.0);
  EXPECT_DOUBLE_EQ(r.alpha_hat, 1.0);
  EXPECT_DOUBLE_EQ(r.equivalent_w, 3.5);
  EXPECT_DOUBLE_EQ(r.makespan, 3.5);
  ASSERT_EQ(alpha.size(), 1u);
  EXPECT_DOUBLE_EQ(alpha[0], 1.0);
}

TEST(CounterfactualSolver, DegenerateTwoProcessorChain) {
  const LinearNetwork base({1.0, 2.0}, {0.25});
  for (const std::size_t index : {std::size_t{0}, std::size_t{1}}) {
    for (const double bid : {0.3, 1.0, 2.0, 7.5}) {
      expect_rebid_matches_full(base, index, bid);
    }
  }
}

TEST(CounterfactualSolver, RepeatedRebidsDoNotContaminateEachOther) {
  Rng rng(11);
  const LinearNetwork base = LinearNetwork::random(9, rng, 0.5, 5.0,
                                                   0.05, 0.5);
  CounterfactualSolver solver(base);
  // Interleave rebids at different indices and re-check against full
  // solves; scratch reuse must not leak state between queries.
  const std::size_t order[] = {7, 1, 8, 0, 4, 7, 2, 1};
  for (const std::size_t index : order) {
    const double bid = base.w(index) * rng.log_uniform(0.3, 3.0);
    const CounterfactualSolver::Rebid r = solver.rebid(index, bid);
    const LinearSolution full =
        solve_linear_boundary(base.with_processing_time(index, bid));
    EXPECT_NEAR(r.alpha, full.alpha[index], kTol);
    EXPECT_NEAR(r.makespan, full.makespan, kTol);
  }
}

TEST(CounterfactualSolver, Validation) {
  const LinearNetwork base({1.0, 2.0}, {0.25});
  CounterfactualSolver solver(base);
  EXPECT_THROW(solver.rebid(2, 1.0), dls::PreconditionError);
  EXPECT_THROW(solver.rebid(0, 0.0), dls::PreconditionError);
  EXPECT_THROW(solver.rebid(1, -1.0), dls::PreconditionError);
  // +inf passes a bare `> 0` test; the solvers must refuse it rather
  // than answer a NaN makespan, and the batch must agree with rebid().
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<double> inf_first = {inf, 1.0};
  const std::vector<double> inf_last = {1.0, inf};
  std::vector<CounterfactualSolver::Rebid> out(2);
  for (const std::size_t index : {0ul, 1ul}) {  // root and last processor
    EXPECT_THROW(solver.rebid(index, inf), dls::PreconditionError);
    EXPECT_THROW(solver.rebid_batch(index, inf_first, out),
                 dls::PreconditionError);
    EXPECT_THROW(solver.rebid_batch(index, inf_last, out),
                 dls::PreconditionError);
  }
}

// ---------------------------------------------------------------------

TEST(CounterfactualMechanism, MatchesAssessmentPathExactly) {
  // The batched engine must agree with the full-assessment utility (two
  // Algorithm 1 runs + n-processor payment arithmetic) bit-for-bit: it
  // performs the same arithmetic on the same prefix.
  Rng rng(31);
  const MechanismConfig config;
  for (int rep = 0; rep < 20; ++rep) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(2, 16));
    const LinearNetwork truth =
        LinearNetwork::random(n, rng, 0.5, 5.0, 0.05, 0.5);
    CounterfactualMechanism mech(truth, truth.processing_times(), config);
    for (std::size_t index = 1; index < n; ++index) {
      const double bid = truth.w(index) * rng.log_uniform(0.2, 5.0);
      const double via_full = [&] {
        const LinearNetwork bids = truth.with_processing_time(index, bid);
        std::vector<double> actual(truth.processing_times().begin(),
                                   truth.processing_times().end());
        const auto result = dls::core::assess_compliant(bids, actual, config);
        return result.processors[index].money.utility;
      }();
      EXPECT_EQ(mech.utility(index, bid, truth.w(index)), via_full)
          << "n=" << n << " index=" << index << " bid=" << bid;
    }
  }
}

TEST(CounterfactualMechanism, UtilityCurveMatchesPointQueries) {
  Rng rng(5);
  const MechanismConfig config;
  const LinearNetwork truth =
      LinearNetwork::random(10, rng, 0.5, 5.0, 0.05, 0.5);
  CounterfactualMechanism mech(truth, truth.processing_times(), config);
  const std::size_t index = 4;
  std::vector<double> bids;
  for (int k = 0; k < 33; ++k) {
    bids.push_back(truth.w(index) * (0.25 + 0.15 * k));
  }
  std::vector<double> curve(bids.size());
  mech.utility_curve(index, bids, curve);
  for (std::size_t k = 0; k < bids.size(); ++k) {
    EXPECT_EQ(curve[k], mech.utility(index, bids[k], truth.w(index)));
    EXPECT_EQ(curve[k],
              dls::core::utility_under_bid(truth, index, bids[k],
                                           truth.w(index), config));
  }
}

TEST(CounterfactualMechanism, SlowExecutionMatchesAssessment) {
  // Case (ii) of Lemma 5.3: deviant execution speed under any bid.
  Rng rng(13);
  const MechanismConfig config;
  const LinearNetwork truth =
      LinearNetwork::random(7, rng, 0.5, 5.0, 0.05, 0.5);
  CounterfactualMechanism mech(truth, truth.processing_times(), config);
  for (std::size_t index = 1; index < truth.size(); ++index) {
    for (const double slow : {1.0, 1.2, 1.9}) {
      const double actual = truth.w(index) * slow;
      const double expected = dls::core::utility_under_bid(
          truth, index, truth.w(index), actual, config);
      EXPECT_EQ(mech.utility(index, truth.w(index), actual), expected);
    }
  }
}

TEST(CounterfactualMechanism, Validation) {
  const LinearNetwork truth({1.0, 2.0}, {0.25});
  CounterfactualMechanism mech(truth, truth.processing_times(),
                               MechanismConfig{});
  EXPECT_THROW(mech.utility(0, 1.0, 1.0), dls::PreconditionError);
  EXPECT_THROW(mech.utility(2, 1.0, 1.0), dls::PreconditionError);
  EXPECT_THROW(mech.utility(1, 1.0, 0.0), dls::PreconditionError);
  EXPECT_THROW(CounterfactualMechanism(LinearNetwork({1.0}, {}),
                                       std::vector<double>{1.0},
                                       MechanismConfig{}),
               dls::PreconditionError);
}

}  // namespace
