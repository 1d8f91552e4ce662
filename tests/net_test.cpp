// Tests for the network descriptions.
#include <gtest/gtest.h>

#include <limits>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "dlt/linear.hpp"
#include "net/networks.hpp"

namespace {

using dls::common::Rng;
using dls::InfeasibleError;
using dls::PreconditionError;
using dls::net::BusNetwork;
using dls::net::InteriorLinearNetwork;
using dls::net::LinearNetwork;
using dls::net::StarNetwork;

TEST(LinearNetwork, AccessorsAndSizes) {
  const LinearNetwork net({1.0, 2.0, 3.0}, {0.1, 0.2});
  EXPECT_EQ(net.size(), 3u);
  EXPECT_EQ(net.workers(), 2u);
  EXPECT_DOUBLE_EQ(net.w(0), 1.0);
  EXPECT_DOUBLE_EQ(net.w(2), 3.0);
  EXPECT_DOUBLE_EQ(net.z(1), 0.1);
  EXPECT_DOUBLE_EQ(net.z(2), 0.2);
}

TEST(LinearNetwork, ValidatesShapeAndPositivity) {
  EXPECT_THROW(LinearNetwork({}, {}), PreconditionError);
  EXPECT_THROW(LinearNetwork({1.0, 2.0}, {}), PreconditionError);
  EXPECT_THROW(LinearNetwork({1.0, -2.0}, {0.1}), InfeasibleError);
  EXPECT_THROW(LinearNetwork({1.0, 2.0}, {0.0}), InfeasibleError);
}

TEST(LinearNetwork, RejectsNonFiniteRates) {
  // `!(v > 0)` alone let +inf through: w = {1, inf}, z = {0.1} solved to
  // a NaN makespan with no error.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const double bad : {inf, -inf, nan}) {
    EXPECT_THROW(LinearNetwork({1.0, bad}, {0.1}), InfeasibleError) << bad;
    EXPECT_THROW(LinearNetwork({bad, 1.0}, {0.1}), InfeasibleError) << bad;
    EXPECT_THROW(LinearNetwork({1.0, 1.0}, {bad}), InfeasibleError) << bad;
  }
  // The reported case, and a counterfactual rebid reaching it.
  const auto solve_reported_case = [&] {
    return dls::dlt::solve_linear_boundary(LinearNetwork({1.0, inf}, {0.1}));
  };
  EXPECT_THROW(solve_reported_case(), InfeasibleError);
  EXPECT_THROW(LinearNetwork::uniform(2, 1.0, 0.1).with_processing_time(1, inf),
               InfeasibleError);
  // Extreme but finite rates stay valid.
  const double big = std::numeric_limits<double>::max();
  const double tiny = std::numeric_limits<double>::min();
  EXPECT_NO_THROW(LinearNetwork({1.0, big}, {tiny}));
}

TEST(LinearNetwork, IndexBoundsChecked) {
  const LinearNetwork net({1.0, 2.0}, {0.1});
  EXPECT_THROW(net.w(2), PreconditionError);
  EXPECT_THROW(net.z(0), PreconditionError);
  EXPECT_THROW(net.z(2), PreconditionError);
}

TEST(LinearNetwork, WithProcessingTimeIsACopy) {
  const LinearNetwork net({1.0, 2.0}, {0.1});
  const LinearNetwork other = net.with_processing_time(1, 5.0);
  EXPECT_DOUBLE_EQ(net.w(1), 2.0);
  EXPECT_DOUBLE_EQ(other.w(1), 5.0);
  EXPECT_DOUBLE_EQ(other.z(1), 0.1);
}

TEST(LinearNetwork, SuffixDropsPrefix) {
  const LinearNetwork net({1.0, 2.0, 3.0, 4.0}, {0.1, 0.2, 0.3});
  const LinearNetwork tail = net.suffix(2);
  EXPECT_EQ(tail.size(), 2u);
  EXPECT_DOUBLE_EQ(tail.w(0), 3.0);
  EXPECT_DOUBLE_EQ(tail.z(1), 0.3);
}

TEST(LinearNetwork, UniformAndRandomFactories) {
  const LinearNetwork u = LinearNetwork::uniform(5, 2.0, 0.3);
  EXPECT_EQ(u.size(), 5u);
  EXPECT_DOUBLE_EQ(u.w(4), 2.0);
  EXPECT_DOUBLE_EQ(u.z(1), 0.3);

  Rng rng(9);
  const LinearNetwork r = LinearNetwork::random(10, rng, 0.5, 5.0, 0.05, 0.5);
  for (std::size_t i = 0; i < r.size(); ++i) {
    EXPECT_GE(r.w(i), 0.5);
    EXPECT_LE(r.w(i), 5.0);
  }
  for (std::size_t j = 1; j < r.size(); ++j) {
    EXPECT_GE(r.z(j), 0.05);
    EXPECT_LE(r.z(j), 0.5);
  }
}

TEST(LinearNetwork, DescribeMentionsEveryRate) {
  const LinearNetwork net({1.5, 2.5}, {0.25});
  const std::string text = net.describe();
  EXPECT_NE(text.find("1.5"), std::string::npos);
  EXPECT_NE(text.find("2.5"), std::string::npos);
  EXPECT_NE(text.find("0.25"), std::string::npos);
}

TEST(InteriorLinearNetwork, ValidatesRootPosition) {
  EXPECT_THROW(InteriorLinearNetwork({1, 2, 3}, {0.1, 0.2}, 0),
               PreconditionError);
  EXPECT_THROW(InteriorLinearNetwork({1, 2, 3}, {0.1, 0.2}, 2),
               PreconditionError);
  EXPECT_NO_THROW(InteriorLinearNetwork({1, 2, 3}, {0.1, 0.2}, 1));
}

TEST(InteriorLinearNetwork, RejectsNonFiniteRates) {
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(InteriorLinearNetwork({1, inf, 3}, {0.1, 0.2}, 1),
               InfeasibleError);
  EXPECT_THROW(InteriorLinearNetwork({1, 2, 3}, {0.1, inf}, 1),
               InfeasibleError);
}

TEST(InteriorLinearNetwork, ChainsIncludeRootAndReverseLeft) {
  const InteriorLinearNetwork net({1, 2, 3, 4, 5}, {0.1, 0.2, 0.3, 0.4}, 2);
  const dls::net::LinearNetwork left = net.left_chain();
  ASSERT_EQ(left.size(), 3u);
  EXPECT_DOUBLE_EQ(left.w(0), 3.0);  // root first
  EXPECT_DOUBLE_EQ(left.w(1), 2.0);
  EXPECT_DOUBLE_EQ(left.w(2), 1.0);
  EXPECT_DOUBLE_EQ(left.z(1), 0.2);  // link P2-P1
  EXPECT_DOUBLE_EQ(left.z(2), 0.1);  // link P1-P0
  const dls::net::LinearNetwork right = net.right_chain();
  ASSERT_EQ(right.size(), 3u);
  EXPECT_DOUBLE_EQ(right.w(0), 3.0);
  EXPECT_DOUBLE_EQ(right.w(2), 5.0);
  EXPECT_DOUBLE_EQ(right.z(1), 0.3);
}

TEST(StarNetwork, OrderByLinkSpeedIsStable) {
  const StarNetwork net(1.0, {2.0, 3.0, 4.0}, {0.3, 0.1, 0.3});
  const auto order = net.order_by_link_speed();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 1u);  // fastest link first
  EXPECT_EQ(order[1], 0u);  // ties keep original order
  EXPECT_EQ(order[2], 2u);
}

TEST(StarNetwork, RootComputesFlag) {
  const StarNetwork with_root(1.0, {2.0}, {0.1});
  EXPECT_TRUE(with_root.root_computes());
  const StarNetwork without_root(0.0, {2.0}, {0.1});
  EXPECT_FALSE(without_root.root_computes());
}

TEST(StarNetwork, Validates) {
  EXPECT_THROW(StarNetwork(1.0, {}, {}), PreconditionError);
  EXPECT_THROW(StarNetwork(1.0, {2.0}, {0.1, 0.2}), PreconditionError);
  EXPECT_THROW(StarNetwork(1.0, {-2.0}, {0.1}), InfeasibleError);
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(StarNetwork(1.0, {inf}, {0.1}), InfeasibleError);
  EXPECT_THROW(StarNetwork(1.0, {2.0}, {inf}), InfeasibleError);
}

TEST(BusNetwork, AsStarSharesTheChannel) {
  const BusNetwork bus(1.0, {2.0, 3.0}, 0.25);
  const StarNetwork star = bus.as_star();
  EXPECT_EQ(star.workers(), 2u);
  EXPECT_DOUBLE_EQ(star.z(0), 0.25);
  EXPECT_DOUBLE_EQ(star.z(1), 0.25);
  EXPECT_DOUBLE_EQ(star.root_w(), 1.0);
}

TEST(BusNetwork, Validates) {
  EXPECT_THROW(BusNetwork(1.0, {2.0}, 0.0), PreconditionError);
  EXPECT_THROW(BusNetwork(1.0, {}, 0.1), PreconditionError);
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(BusNetwork(1.0, {2.0}, inf), PreconditionError);
  EXPECT_THROW(BusNetwork(1.0, {inf}, 0.1), InfeasibleError);
}

}  // namespace
