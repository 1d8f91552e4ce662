// Property tests for the paper's central results:
//   Lemma 5.3 / Theorem 5.3 — truth-telling (and full-capacity execution)
//     is a dominant strategy under the DLS-LBL payments;
//   Lemma 5.4 / Theorem 5.4 — truthful processors never lose money.
// Each property is checked on randomized instances across bid grids.
#include <gtest/gtest.h>

#include <vector>

#include "analysis/experiments.hpp"
#include "analysis/sweep.hpp"
#include "common/rng.hpp"
#include "core/dls_lbl.hpp"
#include "core/dls_star.hpp"
#include "net/networks.hpp"

namespace {

using dls::analysis::logspace;
using dls::analysis::max_truth_advantage_gap;
using dls::analysis::truthful_participation;
using dls::analysis::utility_vs_bid;
using dls::analysis::utility_vs_speed;
using dls::common::Rng;
using dls::core::MechanismConfig;
using dls::core::utility_under_bid;
using dls::net::LinearNetwork;
using dls::net::StarNetwork;

class Strategyproofness : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  LinearNetwork random_network(Rng& rng, std::size_t max_m = 12) {
    const auto m =
        static_cast<std::size_t>(rng.uniform_int(1, static_cast<std::int64_t>(max_m)));
    return LinearNetwork::random(m + 1, rng, 0.5, 5.0, 0.05, 0.5);
  }
};

TEST_P(Strategyproofness, TruthfulBidDominatesOnAGrid) {
  Rng rng(GetParam());
  const MechanismConfig config;
  for (int rep = 0; rep < 8; ++rep) {
    const LinearNetwork net = random_network(rng);
    for (std::size_t i = 1; i < net.size(); ++i) {
      const double t = net.w(i);
      const auto grid = logspace(t * 0.2, t * 5.0, 41);
      const auto curve = utility_vs_bid(net, i, grid, config);
      EXPECT_LE(max_truth_advantage_gap(curve), 1e-9)
          << "P" << i << " of " << net.describe();
    }
  }
}

TEST_P(Strategyproofness, UtilityIsSinglePeakedAtTruth) {
  // Stronger shape check: utilities are non-decreasing up to the truth
  // and non-increasing beyond it (the bonus construction gives a kinked
  // single-peaked curve).
  Rng rng(GetParam() ^ 0xbeefu);
  const MechanismConfig config;
  const LinearNetwork net = random_network(rng);
  for (std::size_t i = 1; i < net.size(); ++i) {
    const double t = net.w(i);
    std::vector<double> grid;
    for (double f = 0.3; f <= 3.0; f += 0.1) grid.push_back(t * f);
    grid.push_back(t);  // include the exact truth
    std::sort(grid.begin(), grid.end());
    const auto curve = utility_vs_bid(net, i, grid, config);
    // Find the truth position.
    std::size_t truth_pos = 0;
    for (std::size_t k = 0; k < grid.size(); ++k) {
      if (grid[k] == t) truth_pos = k;
    }
    for (std::size_t k = 0; k + 1 <= truth_pos; ++k) {
      EXPECT_LE(curve.utilities[k], curve.utilities[k + 1] + 1e-9);
    }
    for (std::size_t k = truth_pos; k + 1 < grid.size(); ++k) {
      EXPECT_GE(curve.utilities[k], curve.utilities[k + 1] - 1e-9);
    }
  }
}

TEST_P(Strategyproofness, FullCapacityExecutionDominates) {
  // Lemma 5.3 case (ii): with a truthful bid, any slowdown w̃ > t weakly
  // reduces utility.
  Rng rng(GetParam() ^ 0xcafeu);
  const MechanismConfig config;
  for (int rep = 0; rep < 5; ++rep) {
    const LinearNetwork net = random_network(rng);
    for (std::size_t i = 1; i < net.size(); ++i) {
      std::vector<double> mults;
      for (double f = 1.0; f <= 2.5; f += 0.125) mults.push_back(f);
      const auto curve = utility_vs_speed(net, i, mults, config);
      for (std::size_t k = 0; k < curve.utilities.size(); ++k) {
        EXPECT_LE(curve.utilities[k], curve.utility_at_truth + 1e-9)
            << "P" << i << " multiplier " << mults[k];
      }
      // Strictness: a big slowdown must strictly hurt.
      EXPECT_LT(curve.utilities.back(), curve.utility_at_truth);
    }
  }
}

TEST_P(Strategyproofness, SlowExecutionCannotRescueAnUnderbid) {
  // Joint deviation: underbid to grab load, then run at true capacity.
  // Still dominated by (truth, full speed).
  Rng rng(GetParam() ^ 0xd00du);
  const MechanismConfig config;
  const LinearNetwork net = random_network(rng);
  for (std::size_t i = 1; i < net.size(); ++i) {
    const double t = net.w(i);
    const double truth_u = utility_under_bid(net, i, t, t, config);
    for (const double bid_f : {0.4, 0.7, 0.9}) {
      for (const double run_f : {1.0, 1.2, 1.6}) {
        const double u =
            utility_under_bid(net, i, t * bid_f, t * run_f, config);
        EXPECT_LE(u, truth_u + 1e-9);
      }
    }
  }
}

TEST_P(Strategyproofness, VoluntaryParticipationHolds) {
  // Lemma 5.4: truthful compliant agents end with U_i >= 0; in fact
  // U_i = w_{i-1} − w̄_{i-1} which is strictly positive here.
  Rng rng(GetParam() ^ 0xfeedu);
  for (int rep = 0; rep < 10; ++rep) {
    const LinearNetwork net = random_network(rng, 30);
    const auto sample = truthful_participation(net, MechanismConfig{});
    EXPECT_GE(sample.min_utility, 0.0) << net.describe();
    EXPECT_GT(sample.total_payment, 0.0);
  }
}

TEST_P(Strategyproofness, TruthfulUtilityEqualsBonusIdentity) {
  // The algebra of Lemma 5.4: U_j = w_{j-1} − w̄_{j-1} at truth.
  Rng rng(GetParam() ^ 0x1221u);
  const LinearNetwork net = random_network(rng);
  std::vector<double> actual(net.processing_times().begin(),
                             net.processing_times().end());
  const auto result =
      dls::core::assess_compliant(net, actual, MechanismConfig{});
  for (std::size_t j = 1; j < net.size(); ++j) {
    const double expected =
        net.w(j - 1) - result.solution.equivalent_w[j - 1];
    EXPECT_NEAR(result.processors[j].money.utility, expected, 1e-9);
  }
}

// Worker `index` of the star bids `bid` and executes at `actual_rate`
// while everyone else is truthful; returns its utility under
// assess_dls_star.
double star_utility_under_bid(const StarNetwork& true_network,
                              std::size_t index, double bid,
                              double actual_rate,
                              const MechanismConfig& config) {
  std::vector<double> w, z, actual;
  for (std::size_t i = 0; i < true_network.workers(); ++i) {
    w.push_back(i == index ? bid : true_network.w(i));
    z.push_back(true_network.z(i));
    actual.push_back(i == index ? actual_rate : true_network.w(i));
  }
  const StarNetwork bid_network(true_network.root_w(), std::move(w),
                                std::move(z));
  return dls::core::assess_dls_star(bid_network, actual, config)
      .workers[index]
      .utility;
}

TEST_P(Strategyproofness, StarMechanismTruthDominates) {
  Rng rng(GetParam() ^ 0x5151u);
  const MechanismConfig config;
  for (int rep = 0; rep < 5; ++rep) {
    const auto m = static_cast<std::size_t>(rng.uniform_int(2, 8));
    const StarNetwork net =
        StarNetwork::random(m, rng, 0.5, 5.0, 0.05, 0.5, true);
    for (std::size_t i = 0; i < m; ++i) {
      const double t = net.w(i);
      const double truth_u = star_utility_under_bid(net, i, t, t, config);
      EXPECT_GE(truth_u, -1e-9);  // voluntary participation
      for (const double f : {0.3, 0.6, 0.9, 1.1, 1.5, 3.0}) {
        const double u = star_utility_under_bid(net, i, t * f, t, config);
        EXPECT_LE(u, truth_u + 1e-9) << "worker " << i << " factor " << f;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Strategyproofness,
                         ::testing::Values(11u, 22u, 33u, 44u, 55u, 66u,
                                           77u, 88u));

}  // namespace
