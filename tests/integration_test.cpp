// Cross-module integration tests: solver ↔ simulator ↔ mechanism ↔
// protocol agreement on randomized instances, and repeated-round "market"
// behaviour (truth-telling emerges as the best response).
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "agents/agent.hpp"
#include "analysis/experiments.hpp"
#include "common/rng.hpp"
#include "core/dls_lbl.hpp"
#include "core/dls_star.hpp"
#include "dlt/linear.hpp"
#include "net/networks.hpp"
#include "protocol/runner.hpp"
#include "protocol/star_runner.hpp"
#include "sim/linear_execution.hpp"

namespace {

using dls::agents::Behavior;
using dls::agents::Population;
using dls::agents::StrategicAgent;
using dls::common::Rng;
using dls::core::MechanismConfig;
using dls::net::LinearNetwork;
using dls::protocol::ProtocolOptions;
using dls::protocol::run_protocol;
using dls::protocol::RunReport;

class RandomizedIntegration : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(RandomizedIntegration, ProtocolAgreesWithCentralMechanism) {
  Rng rng(GetParam());
  const auto m = static_cast<std::size_t>(rng.uniform_int(2, 10));
  const LinearNetwork net = LinearNetwork::random(
      m + 1, rng, dls::analysis::kWLo, dls::analysis::kWHi,
      dls::analysis::kZLo, dls::analysis::kZHi);
  std::vector<StrategicAgent> agents;
  for (std::size_t i = 1; i <= m; ++i) {
    agents.push_back(StrategicAgent{i, net.w(i), Behavior::truthful()});
  }
  const RunReport report =
      run_protocol(net, Population(std::move(agents)), {});
  ASSERT_FALSE(report.aborted);

  std::vector<double> actual(net.processing_times().begin(),
                             net.processing_times().end());
  const auto central =
      dls::core::assess_compliant(net, actual, MechanismConfig{});
  for (std::size_t i = 0; i <= m; ++i) {
    EXPECT_NEAR(report.processors[i].utility,
                central.processors[i].money.utility, 1e-9)
        << "P" << i;
    EXPECT_NEAR(report.processors[i].assigned, central.processors[i].alpha,
                1e-12);
  }
  // The simulated makespan equals the solver's promise (Theorem 2.1 end
  // to end through the event simulator).
  EXPECT_NEAR(report.makespan, central.solution.makespan, 1e-9);
}

TEST_P(RandomizedIntegration, MixedDeviantsAllEndBelowHonest) {
  Rng rng(GetParam() ^ 0xaaaau);
  const std::size_t m = 5;
  const LinearNetwork net = LinearNetwork::random(
      m + 1, rng, dls::analysis::kWLo, dls::analysis::kWHi,
      dls::analysis::kZLo, dls::analysis::kZHi);
  auto make_population = [&](std::size_t deviant, const Behavior& b) {
    std::vector<StrategicAgent> agents;
    for (std::size_t i = 1; i <= m; ++i) {
      agents.push_back(StrategicAgent{
          i, net.w(i), i == deviant ? b : Behavior::truthful()});
    }
    return Population(std::move(agents));
  };
  const RunReport honest =
      run_protocol(net, make_population(0, Behavior::truthful()), {});
  const std::vector<Behavior> deviations = {
      Behavior::underbid(0.5),     Behavior::overbid(2.0),
      Behavior::slow_execution(1.8), Behavior::load_shedder(0.5)};
  for (const Behavior& b : deviations) {
    for (std::size_t deviant = 1; deviant <= m; ++deviant) {
      const RunReport report =
          run_protocol(net, make_population(deviant, b), {});
      EXPECT_LE(report.processors[deviant].utility,
                honest.processors[deviant].utility + 1e-9)
          << b.name << " at P" << deviant;
    }
  }
}

TEST_P(RandomizedIntegration, StarProtocolAgreesWithCentralMechanism) {
  Rng rng(GetParam() ^ 0x57a7u);
  const auto m = static_cast<std::size_t>(rng.uniform_int(2, 10));
  const auto star = dls::net::StarNetwork::random(
      m, rng, dls::analysis::kWLo, dls::analysis::kWHi, dls::analysis::kZLo,
      dls::analysis::kZHi, true);
  std::vector<StrategicAgent> agents;
  std::vector<double> rates(m);
  for (std::size_t i = 0; i < m; ++i) {
    rates[i] = star.w(i);
    agents.push_back(
        StrategicAgent{i + 1, star.w(i), Behavior::truthful()});
  }
  const auto report = dls::protocol::run_star_protocol(
      star, Population(std::move(agents)), {});
  ASSERT_FALSE(report.aborted);
  const auto central = dls::core::assess_dls_star(
      star, rates, dls::core::MechanismConfig{});
  for (std::size_t i = 0; i < m; ++i) {
    EXPECT_NEAR(report.workers[i + 1].utility, central.workers[i].utility,
                1e-9)
        << "worker " << i;
    EXPECT_GE(report.workers[i + 1].utility, -1e-9);
  }
  EXPECT_NEAR(report.ledger.conservation_residual(), 0.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomizedIntegration,
                         ::testing::Values(101u, 202u, 303u, 404u, 505u));

TEST(MarketDynamics, BestResponseConvergesToTruth) {
  // A crude learning loop: one strategic agent tries a grid of bid
  // multipliers each epoch and adopts the best performer. With DLS-LBL
  // it must settle on (and stay at) multiplier 1.
  const LinearNetwork net({1.0, 1.3, 0.9, 1.1}, {0.2, 0.1, 0.3});
  const std::size_t learner = 2;
  double multiplier = 0.5;  // starts out lying aggressively
  const std::vector<double> candidates = {0.5, 0.75, 0.9,  1.0,
                                          1.1, 1.5,  2.0};
  for (int epoch = 0; epoch < 4; ++epoch) {
    double best_u = -1e300;
    double best_mult = multiplier;
    for (const double c : candidates) {
      std::vector<StrategicAgent> agents;
      for (std::size_t i = 1; i < net.size(); ++i) {
        Behavior b = Behavior::truthful();
        if (i == learner) {
          b = c < 1.0 ? Behavior::underbid(c)
                      : (c > 1.0 ? Behavior::overbid(c)
                                 : Behavior::truthful());
        }
        agents.push_back(StrategicAgent{i, net.w(i), b});
      }
      const RunReport report =
          run_protocol(net, Population(std::move(agents)), {});
      const double u = report.processors[learner].utility;
      if (u > best_u) {
        best_u = u;
        best_mult = c;
      }
    }
    multiplier = best_mult;
  }
  EXPECT_DOUBLE_EQ(multiplier, 1.0);
}

TEST(CrossNetwork, ChainAndStarAgreeOnDegenerateShapes) {
  // A 2-processor chain is simultaneously a 1-worker star; the two
  // mechanism implementations must agree on allocation and makespan.
  const LinearNetwork chain({1.0, 2.0}, {0.5});
  const dls::net::StarNetwork star(1.0, {2.0}, {0.5});
  std::vector<double> chain_actual = {1.0, 2.0};
  std::vector<double> star_actual = {2.0};
  const auto lbl =
      dls::core::assess_compliant(chain, chain_actual, MechanismConfig{});
  const auto st =
      dls::core::assess_dls_star(star, star_actual, MechanismConfig{});
  EXPECT_NEAR(lbl.solution.alpha[1], st.solution.alpha[0], 1e-12);
  EXPECT_NEAR(lbl.solution.makespan, st.solution.makespan, 1e-12);
  // Both mechanisms grant the worker a strictly positive utility.
  EXPECT_GT(lbl.processors[1].money.utility, 0.0);
  EXPECT_GT(st.workers[0].utility, 0.0);
}

}  // namespace
