// Tests for the strategic behaviour models and agent populations.
#include <gtest/gtest.h>

#include "agents/agent.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"

namespace {

using dls::agents::Behavior;
using dls::agents::Population;
using dls::agents::StrategicAgent;
using dls::common::Rng;

TEST(Behavior, TruthfulIsFullyCompliant) {
  const Behavior b = Behavior::truthful();
  EXPECT_TRUE(b.follows_algorithm());
  EXPECT_TRUE(b.is_truthful_bid());
  EXPECT_DOUBLE_EQ(b.bid(1.5), 1.5);
  EXPECT_DOUBLE_EQ(b.actual_rate(1.5), 1.5);
}

TEST(Behavior, BidManipulationsAreInputsNotDeviations) {
  // Misreporting the bid is governed by strategyproofness, not fines —
  // it still "follows the algorithm" in the paper's sense.
  EXPECT_TRUE(Behavior::overbid(1.5).follows_algorithm());
  EXPECT_TRUE(Behavior::underbid(0.5).follows_algorithm());
  EXPECT_FALSE(Behavior::overbid(1.5).is_truthful_bid());
  EXPECT_DOUBLE_EQ(Behavior::overbid(2.0).bid(1.5), 3.0);
  EXPECT_DOUBLE_EQ(Behavior::underbid(0.5).bid(1.5), 0.75);
}

TEST(Behavior, AlgorithmDeviationsAreFlagged) {
  EXPECT_FALSE(Behavior::slow_execution(1.5).follows_algorithm());
  EXPECT_FALSE(Behavior::load_shedder(0.3).follows_algorithm());
  EXPECT_FALSE(Behavior::contradictor().follows_algorithm());
  EXPECT_FALSE(Behavior::miscomputer().follows_algorithm());
  EXPECT_FALSE(Behavior::overcharger(0.1).follows_algorithm());
  EXPECT_FALSE(Behavior::false_accuser().follows_algorithm());
  EXPECT_FALSE(Behavior::data_corruptor().follows_algorithm());
  EXPECT_FALSE(Behavior::colluding_victim().follows_algorithm());
}

TEST(Behavior, ActualRateNeverBeatsCapacity) {
  // w̃ >= t always: a sub-1 slowdown is clamped to capacity.
  Behavior b;
  b.slowdown = 0.5;
  EXPECT_DOUBLE_EQ(b.actual_rate(2.0), 2.0);
  EXPECT_DOUBLE_EQ(Behavior::slow_execution(1.5).actual_rate(2.0), 3.0);
}

TEST(Behavior, FactoriesValidateArguments) {
  EXPECT_THROW(Behavior::overbid(0.9), dls::PreconditionError);
  EXPECT_THROW(Behavior::underbid(1.1), dls::PreconditionError);
  EXPECT_THROW(Behavior::underbid(0.0), dls::PreconditionError);
  EXPECT_THROW(Behavior::slow_execution(0.9), dls::PreconditionError);
  EXPECT_THROW(Behavior::load_shedder(0.0), dls::PreconditionError);
  EXPECT_THROW(Behavior::load_shedder(1.5), dls::PreconditionError);
  EXPECT_THROW(Behavior::overcharger(-1.0), dls::PreconditionError);
}

TEST(Behavior, NamesIdentifyTheStrategy) {
  EXPECT_EQ(Behavior::truthful().name, "truthful");
  EXPECT_EQ(Behavior::load_shedder(0.5).name, "load-shedder");
  EXPECT_EQ(Behavior::colluding_victim().name, "colluding-victim");
}

TEST(Population, IndexingIsOneBasedAndContiguous) {
  const Population pop({StrategicAgent{1, 1.0, {}},
                        StrategicAgent{2, 2.0, {}}});
  EXPECT_EQ(pop.size(), 2u);
  EXPECT_DOUBLE_EQ(pop.agent(1).true_rate, 1.0);
  EXPECT_DOUBLE_EQ(pop.agent(2).true_rate, 2.0);
  EXPECT_THROW(pop.agent(0), dls::PreconditionError);
  EXPECT_THROW(pop.agent(3), dls::PreconditionError);
}

TEST(Population, RejectsBadConstruction) {
  EXPECT_THROW(Population({}), dls::PreconditionError);
  EXPECT_THROW(Population({StrategicAgent{2, 1.0, {}}}),
               dls::PreconditionError);  // must start at 1
  EXPECT_THROW(Population({StrategicAgent{1, 1.0, {}},
                           StrategicAgent{3, 1.0, {}}}),
               dls::PreconditionError);  // must be contiguous
  EXPECT_THROW(Population({StrategicAgent{1, -1.0, {}}}),
               dls::PreconditionError);  // positive rates
}

}  // namespace
