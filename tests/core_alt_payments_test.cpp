// Tests for the alternative payment rules used in the shootout bench —
// they must be broken in exactly the documented ways.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/alt_payments.hpp"
#include "core/dls_lbl.hpp"
#include "dlt/linear.hpp"
#include "net/networks.hpp"

namespace {

using dls::common::Rng;
using dls::core::makespan_without;
using dls::core::paper_vcg_utility_under_bid;
using dls::net::LinearNetwork;

TEST(MakespanWithout, RelayingAProcessorSlowsTheChain) {
  const LinearNetwork net({1.0, 1.2, 0.8, 1.5}, {0.2, 0.15, 0.25});
  const double full = dls::dlt::solve_linear_boundary(net).makespan;
  for (std::size_t i = 1; i < net.size(); ++i) {
    EXPECT_GT(makespan_without(net, i), full) << "P" << i;
  }
}

TEST(PaperVcg, TruthfulUtilityIsTheMarginalContribution) {
  const LinearNetwork net({1.0, 1.2, 0.8}, {0.2, 0.2});
  const double t = net.w(1);
  const double u = paper_vcg_utility_under_bid(net, 1, t, t);
  const double expected = makespan_without(net, 1) -
                          dls::dlt::solve_linear_boundary(net).makespan;
  EXPECT_NEAR(u, expected, 1e-12);
  EXPECT_GT(u, 0.0);
}

TEST(PaperVcg, UnderbiddingStrictlyBeatsTruth) {
  // The documented defect: claiming to be faster raises the on-paper
  // marginal contribution, and the rule never consults the meter.
  Rng rng(77);
  for (int rep = 0; rep < 10; ++rep) {
    const auto m = static_cast<std::size_t>(rng.uniform_int(2, 8));
    const LinearNetwork net =
        LinearNetwork::random(m + 1, rng, 0.5, 5.0, 0.05, 0.5);
    const auto i = static_cast<std::size_t>(
        rng.uniform_int(1, static_cast<std::int64_t>(m)));
    const double t = net.w(i);
    const double truth = paper_vcg_utility_under_bid(net, i, t, t);
    const double lie = paper_vcg_utility_under_bid(net, i, t * 0.3, t);
    EXPECT_GT(lie, truth) << "P" << i << " of " << net.describe();
  }
}

TEST(PaperVcg, ContrastWithDlsLbl) {
  // On the same instance, DLS-LBL punishes the same underbid.
  const LinearNetwork net({1.0, 1.2, 0.8}, {0.2, 0.2});
  const double t = net.w(2);
  const dls::core::MechanismConfig config;
  EXPECT_GT(paper_vcg_utility_under_bid(net, 2, t * 0.3, t),
            paper_vcg_utility_under_bid(net, 2, t, t));
  EXPECT_LT(dls::core::utility_under_bid(net, 2, t * 0.3, t, config),
            dls::core::utility_under_bid(net, 2, t, t, config));
}

TEST(AltPayments, ValidateArguments) {
  const LinearNetwork net({1.0, 1.2}, {0.2});
  EXPECT_THROW(paper_vcg_utility_under_bid(net, 0, 1.0, 1.0),
               dls::PreconditionError);
  EXPECT_THROW(paper_vcg_utility_under_bid(net, 1, -1.0, 1.2),
               dls::PreconditionError);
}

}  // namespace
