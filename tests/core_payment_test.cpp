// Unit tests for the payment rules (eqs. 4.3-4.13) and the centralised
// DLS-LBL assessment.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/dls_lbl.hpp"
#include "core/payment_rules.hpp"
#include "dlt/linear.hpp"
#include "net/networks.hpp"

namespace {

using dls::core::assess_compliant;
using dls::core::assess_compliant_from_solution;
using dls::core::assess_dls_lbl;
using dls::core::AssessWorkspace;
using dls::core::cheating_profit_bound;
using dls::core::DlsLblResult;
using dls::core::evaluate_payment;
using dls::core::MechanismConfig;
using dls::core::PaymentInputs;
using dls::core::recompense;
using dls::core::w_hat;
using dls::net::LinearNetwork;

TEST(WHat, TerminalReportsActualRate) {
  // (4.10): ŵ_m = w̃_m regardless of the bid.
  EXPECT_DOUBLE_EQ(w_hat(true, 2.0, 3.0, 1.0, 2.0), 3.0);
  EXPECT_DOUBLE_EQ(w_hat(true, 2.0, 1.5, 1.0, 2.0), 1.5);
}

TEST(WHat, InteriorSlowerThanBidDominates) {
  // (4.11), w̃ >= w: ŵ = α̂ w̃.
  EXPECT_DOUBLE_EQ(w_hat(false, 2.0, 2.5, 0.4, 0.8), 0.4 * 2.5);
}

TEST(WHat, InteriorFasterThanBidKeepsEquivalent) {
  // (4.11), w̃ < w: ŵ = w̄ (the tail's completion is pinned by bids).
  EXPECT_DOUBLE_EQ(w_hat(false, 2.0, 1.0, 0.4, 0.8), 0.8);
}

TEST(Recompense, ZeroWhenUnderloaded) {
  EXPECT_DOUBLE_EQ(recompense(0.3, 0.2, 2.0), 0.0);
}

TEST(Recompense, PaysForExtraWork) {
  EXPECT_NEAR(recompense(0.3, 0.45, 2.0), 0.15 * 2.0, 1e-15);
}

TEST(Recompense, ExactAssignmentEarnsNothing) {
  // (4.8) at the boundary α̃ = α: the max(·, 0) hinge is exactly zero —
  // no windfall for merely doing the assigned work.
  EXPECT_DOUBLE_EQ(recompense(0.3, 0.3, 2.0), 0.0);
  // Just below the boundary it is zero too, not negative.
  EXPECT_DOUBLE_EQ(recompense(0.3, 0.3 - 1e-12, 2.0), 0.0);
}

TEST(Recompense, ZeroAssignmentPaysAllComputedWork) {
  // A processor assigned nothing that absorbed dumped (or recovery)
  // load is paid for every unit of it.
  EXPECT_NEAR(recompense(0.0, 0.2, 2.0), 0.4, 1e-15);
  EXPECT_DOUBLE_EQ(recompense(0.0, 0.0, 2.0), 0.0);
}

TEST(EvaluatePayment, IdleProcessorGetsNothing) {
  PaymentInputs in;
  in.predecessor_bid = 1.0;
  in.link_z = 0.5;
  in.alpha_hat_pred = 0.7;
  in.alpha = 0.0;
  in.computed = 0.0;
  in.actual_rate = 2.0;
  in.w_hat = 2.0;
  const auto out = evaluate_payment(in, MechanismConfig{});
  EXPECT_DOUBLE_EQ(out.payment, 0.0);
  EXPECT_DOUBLE_EQ(out.utility, 0.0);
}

TEST(EvaluatePayment, CompliantUtilityIsTheBonus) {
  // When α̃ = α and w̃ = bid, V + C cancel and U = B.
  PaymentInputs in;
  in.predecessor_bid = 1.0;
  in.link_z = 0.5;
  in.alpha_hat_pred = 5.0 / 7.0;
  in.alpha = 2.0 / 7.0;
  in.computed = 2.0 / 7.0;
  in.actual_rate = 2.0;
  in.w_hat = 2.0;
  const auto out = evaluate_payment(in, MechanismConfig{});
  EXPECT_NEAR(out.valuation + out.compensation, 0.0, 1e-15);
  EXPECT_NEAR(out.utility, out.bonus, 1e-15);
  EXPECT_NEAR(out.bonus, 1.0 - 5.0 / 7.0, 1e-12);
}

TEST(EvaluatePayment, SolutionBonusOnlyWhenEnabledAndSolved) {
  PaymentInputs in;
  in.predecessor_bid = 1.0;
  in.link_z = 0.5;
  in.alpha_hat_pred = 0.7;
  in.alpha = 0.3;
  in.computed = 0.3;
  in.actual_rate = 2.0;
  in.w_hat = 2.0;
  MechanismConfig config;
  config.solution_bonus_enabled = true;
  config.solution_bonus = 0.05;
  in.solution_found = true;
  EXPECT_NEAR(evaluate_payment(in, config).solution_bonus, 0.05, 1e-15);
  in.solution_found = false;
  EXPECT_DOUBLE_EQ(evaluate_payment(in, config).solution_bonus, 0.0);
  in.solution_found = true;
  config.solution_bonus_enabled = false;
  EXPECT_DOUBLE_EQ(evaluate_payment(in, config).solution_bonus, 0.0);
}

TEST(AssessDlsLbl, TwoProcessorGolden) {
  // w0=1, w1=2, z=0.5 (see dlt_linear_test golden): α̂_0 = 5/7,
  // B_1 = w_0 − w̄_0 = 2/7, U_1 = 2/7 for the truthful terminal worker.
  const LinearNetwork net({1.0, 2.0}, {0.5});
  const std::vector<double> actual = {1.0, 2.0};
  const DlsLblResult result =
      assess_compliant(net, actual, MechanismConfig{});
  ASSERT_EQ(result.processors.size(), 2u);
  const auto& root = result.processors[0];
  EXPECT_DOUBLE_EQ(root.money.utility, 0.0);
  EXPECT_NEAR(root.money.compensation, 5.0 / 7.0 * 1.0, 1e-12);
  const auto& worker = result.processors[1];
  EXPECT_NEAR(worker.money.bonus, 2.0 / 7.0, 1e-12);
  EXPECT_NEAR(worker.money.utility, 2.0 / 7.0, 1e-12);
  EXPECT_NEAR(worker.money.compensation, 2.0 / 7.0 * 2.0, 1e-12);
  EXPECT_NEAR(result.total_payment,
              worker.money.compensation + worker.money.bonus, 1e-12);
  EXPECT_NEAR(result.mechanism_cost,
              result.total_payment + root.money.compensation, 1e-12);
}

TEST(AssessDlsLbl, SlowExecutionShrinksTheBonus) {
  const LinearNetwork net({1.0, 2.0, 1.5}, {0.3, 0.3});
  const std::vector<double> truthful = {1.0, 2.0, 1.5};
  const std::vector<double> slow = {1.0, 2.0 * 1.4, 1.5};
  const MechanismConfig config;
  const DlsLblResult honest = assess_compliant(net, truthful, config);
  const DlsLblResult lazy = assess_compliant(net, slow, config);
  EXPECT_LT(lazy.processors[1].money.bonus,
            honest.processors[1].money.bonus);
  // The terminal processor's bonus also reacts to ITS own slowdown.
  const std::vector<double> slow_tail = {1.0, 2.0, 1.5 * 1.4};
  const DlsLblResult lazy_tail = assess_compliant(net, slow_tail, config);
  EXPECT_LT(lazy_tail.processors[2].money.bonus,
            honest.processors[2].money.bonus);
}

TEST(AssessDlsLbl, ShedderIsOverpaidWithoutFines) {
  // Without the protocol's Phase III fines, computing less than assigned
  // while pocketing C_j = α_j w̃_j is profitable — the raw payment rules
  // alone do NOT deter load shedding. (The protocol tests verify the
  // fine turns this into a loss.)
  const LinearNetwork net({1.0, 2.0, 1.5}, {0.3, 0.3});
  const std::vector<double> actual = {1.0, 2.0, 1.5};
  const auto sol = dls::dlt::solve_linear_boundary(net);
  std::vector<double> computed = sol.alpha;
  const double shed = 0.5 * computed[1];
  computed[1] -= shed;
  computed[2] += shed;  // the terminal victim absorbs it
  const DlsLblResult result =
      assess_dls_lbl(net, actual, computed, MechanismConfig{});
  const DlsLblResult honest = assess_compliant(net, actual, MechanismConfig{});
  EXPECT_GT(result.processors[1].money.utility,
            honest.processors[1].money.utility);
  // The victim is made whole by the recompense E_j.
  EXPECT_NEAR(result.processors[2].money.recompense, shed * 1.5, 1e-12);
  EXPECT_GE(result.processors[2].money.utility,
            honest.processors[2].money.utility - 1e-12);
}

TEST(AssessDlsLbl, RejectsBadInputs) {
  const LinearNetwork net({1.0, 2.0}, {0.5});
  const std::vector<double> actual = {1.0, 2.0};
  const std::vector<double> short_actual = {1.0};
  const std::vector<double> computed = {0.5, 0.5};
  EXPECT_THROW(
      assess_dls_lbl(net, short_actual, computed, MechanismConfig{}),
      dls::PreconditionError);
  const LinearNetwork solo({1.0}, {});
  EXPECT_THROW(assess_dls_lbl(solo, std::vector<double>{1.0},
                              std::vector<double>{1.0}, MechanismConfig{}),
               dls::PreconditionError);
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

TEST(AssessDlsLbl, FromSolutionMatchesAssessCompliantBitForBit) {
  // One workspace across chains of growing and shrinking length: the
  // held solution is copied in, or used in place when it is ws's own.
  dls::common::Rng rng(2024);
  const MechanismConfig config{};
  AssessWorkspace ws;
  for (const std::size_t m : {3u, 40u, 1u, 17u, 40u}) {
    const auto net = LinearNetwork::random(m + 1, rng, 0.3, 3.0, 0.02, 0.5);
    const auto rates = net.processing_times();
    const auto direct = assess_compliant(net, rates, config);
    const auto solved = dls::dlt::solve_linear_boundary(net);
    const auto expect_same = [&](const DlsLblResult& got) {
      ASSERT_EQ(got.processors.size(), direct.processors.size());
      for (std::size_t j = 0; j < direct.processors.size(); ++j) {
        EXPECT_EQ(bits(got.processors[j].money.payment),
                  bits(direct.processors[j].money.payment))
            << "m=" << m << " j=" << j;
        EXPECT_EQ(got.processors[j].money.utility,
                  direct.processors[j].money.utility);
      }
      EXPECT_EQ(got.total_payment, direct.total_payment);
      EXPECT_EQ(got.mechanism_cost, direct.mechanism_cost);
      EXPECT_EQ(got.solution.alpha, direct.solution.alpha);
      EXPECT_EQ(got.solution.makespan, direct.solution.makespan);
      EXPECT_TRUE(got.solution.steps.empty());
    };
    expect_same(assess_compliant_from_solution(net, solved, rates, config, ws));
    const auto& held = ws.result.solution;
    expect_same(assess_compliant_from_solution(net, held, rates, config, ws));
  }
}

TEST(AssessDlsLbl, FromSolutionRejectsAMismatchedSolution) {
  const LinearNetwork net({1.0, 2.0, 1.5}, {0.3, 0.2});
  const LinearNetwork longer({1.0, 2.0, 1.5, 3.0}, {0.3, 0.2, 0.4});
  const auto solved = dls::dlt::solve_linear_boundary(longer);
  const auto rates = net.processing_times();
  const MechanismConfig config{};
  AssessWorkspace ws;
  const auto assess = [&] {
    return assess_compliant_from_solution(net, solved, rates, config, ws);
  };
  EXPECT_THROW(assess(), dls::PreconditionError);
}

TEST(CheatingProfitBound, ExceedsAnyBonusAndCompensation) {
  const LinearNetwork net({1.0, 2.0, 1.5, 3.0}, {0.3, 0.2, 0.4});
  const std::vector<double> actual = {1.0, 2.0, 1.5, 3.0};
  const DlsLblResult result =
      assess_compliant(net, actual, MechanismConfig{});
  const double bound = cheating_profit_bound(net);
  EXPECT_GT(bound, result.total_payment);
}

}  // namespace
