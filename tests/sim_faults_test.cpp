// Tests for cancellable simulator events and the deterministic
// crash-injection layer over the chain executor.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "dlt/linear.hpp"
#include "net/networks.hpp"
#include "sim/faults.hpp"
#include "sim/linear_execution.hpp"
#include "sim/simulator.hpp"

namespace {

using dls::common::Rng;
using dls::dlt::solve_linear_boundary;
using dls::net::LinearNetwork;
using dls::sim::EventId;
using dls::sim::execute_linear;
using dls::sim::execute_linear_faulty;
using dls::sim::ExecutionPlan;
using dls::sim::FaultEvent;
using dls::sim::FaultPlan;
using dls::sim::FaultyExecutionResult;
using dls::sim::Simulator;

// ---------------------------------------------------------------------------
// Cancellable event handles (satellite: Simulator::cancel).

TEST(SimulatorCancel, CancelledEventNeverFires) {
  Simulator sim;
  std::vector<int> fired;
  sim.schedule_at(1.0, [&](Simulator&) { fired.push_back(1); });
  const EventId doomed =
      sim.schedule_at(2.0, [&](Simulator&) { fired.push_back(2); });
  sim.schedule_at(3.0, [&](Simulator&) { fired.push_back(3); });
  EXPECT_TRUE(sim.cancel(doomed));
  sim.run();
  EXPECT_EQ(fired, (std::vector<int>{1, 3}));
  EXPECT_EQ(sim.executed(), 2u);
  EXPECT_EQ(sim.cancelled(), 1u);
}

TEST(SimulatorCancel, CancelReportsWhetherEventWasStillPending) {
  Simulator sim;
  const EventId id = sim.schedule_at(1.0, [](Simulator&) {});
  EXPECT_TRUE(sim.cancel(id));
  EXPECT_FALSE(sim.cancel(id));  // double cancel
  const EventId fired = sim.schedule_at(1.0, [](Simulator&) {});
  sim.run();
  EXPECT_FALSE(sim.cancel(fired));      // already fired
  EXPECT_FALSE(sim.cancel(EventId{99999}));  // never existed
}

TEST(SimulatorCancel, CancellationPreservesOrderOfSurvivors) {
  Simulator sim;
  std::vector<int> fired;
  std::vector<EventId> ids;
  for (int i = 0; i < 6; ++i) {
    ids.push_back(
        sim.schedule_at(1.0, [&fired, i](Simulator&) { fired.push_back(i); }));
  }
  EXPECT_TRUE(sim.cancel(ids[1]));
  EXPECT_TRUE(sim.cancel(ids[4]));
  sim.run();
  EXPECT_EQ(fired, (std::vector<int>{0, 2, 3, 5}));
}

TEST(SimulatorCancel, EventsCanCancelOtherEvents) {
  // A reply cancelling its own timeout timer — the heartbeat pattern.
  Simulator sim;
  bool timed_out = false;
  const EventId timer =
      sim.schedule_at(2.0, [&](Simulator&) { timed_out = true; });
  sim.schedule_at(1.0, [&](Simulator& s) { EXPECT_TRUE(s.cancel(timer)); });
  sim.run();
  EXPECT_FALSE(timed_out);
}

TEST(SimulatorCancel, PendingCountsOnlyLiveEvents) {
  Simulator sim;
  const EventId a = sim.schedule_at(1.0, [](Simulator&) {});
  sim.schedule_at(2.0, [](Simulator&) {});
  EXPECT_EQ(sim.pending(), 2u);
  sim.cancel(a);
  EXPECT_EQ(sim.pending(), 1u);
}

// ---------------------------------------------------------------------------
// Fault plan bookkeeping.

TEST(FaultPlan, EmptyAndLookupAccessors) {
  FaultPlan plan;
  EXPECT_TRUE(plan.empty());
  plan.crash_at_work(2, 0.4);
  EXPECT_FALSE(plan.empty());
  ASSERT_TRUE(plan.crash_of(2).has_value());
  EXPECT_DOUBLE_EQ(plan.crash_of(2)->at_work_fraction, 0.4);
  EXPECT_FALSE(plan.crash_of(1).has_value());
}

TEST(FaultPlan, ValidatesSpecs) {
  FaultPlan plan;
  EXPECT_THROW(plan.crash_at_work(1, 1.5), dls::PreconditionError);
  EXPECT_THROW(plan.crash_at_work(1, -0.1), dls::PreconditionError);
}

TEST(FaultPlan, RandomCrashesAreDeterministic) {
  Rng a(99), b(99);
  const FaultPlan p1 = FaultPlan::random_crashes(8, 0.5, a);
  const FaultPlan p2 = FaultPlan::random_crashes(8, 0.5, b);
  ASSERT_EQ(p1.crashes().size(), p2.crashes().size());
  for (std::size_t i = 0; i < p1.crashes().size(); ++i) {
    EXPECT_EQ(p1.crashes()[i].processor, p2.crashes()[i].processor);
    EXPECT_DOUBLE_EQ(p1.crashes()[i].at_work_fraction,
                     p2.crashes()[i].at_work_fraction);
  }
}

// ---------------------------------------------------------------------------
// Faulty chain executor.

FaultyExecutionResult run_compliant_faulty(const LinearNetwork& net,
                                           const FaultPlan& plan) {
  const auto sol = solve_linear_boundary(net);
  return execute_linear_faulty(net, ExecutionPlan::compliant(net, sol), plan);
}

TEST(ExecuteLinearFaulty, EmptyPlanReproducesFailFreeRun) {
  Rng rng(4242);
  for (int rep = 0; rep < 20; ++rep) {
    const auto m = static_cast<std::size_t>(rng.uniform_int(1, 12));
    const LinearNetwork net =
        LinearNetwork::random(m + 1, rng, 0.5, 5.0, 0.05, 0.5);
    const auto sol = solve_linear_boundary(net);
    const ExecutionPlan plan = ExecutionPlan::compliant(net, sol);
    const auto clean = execute_linear(net, plan);
    const auto faulty = execute_linear_faulty(net, plan, FaultPlan{});
    ASSERT_EQ(faulty.base.computed.size(), clean.computed.size());
    for (std::size_t i = 0; i < net.size(); ++i) {
      EXPECT_DOUBLE_EQ(faulty.base.computed[i], clean.computed[i]) << i;
      EXPECT_DOUBLE_EQ(faulty.base.finish_time[i], clean.finish_time[i]) << i;
      EXPECT_FALSE(faulty.crashed[i]);
    }
    EXPECT_DOUBLE_EQ(faulty.base.makespan, clean.makespan);
    EXPECT_FALSE(faulty.any_crash());
    EXPECT_NEAR(faulty.lost_load(), 0.0, 1e-12);
    EXPECT_TRUE(faulty.events.empty());
  }
}

TEST(ExecuteLinearFaulty, WorkFractionCrashKeepsVerifiedPartialWork) {
  const LinearNetwork net({1.0, 1.0, 1.0}, {0.2, 0.2});
  const auto sol = solve_linear_boundary(net);
  const FaultPlan plan = FaultPlan{}.crash_at_work(1, 0.5);
  const auto result = run_compliant_faulty(net, plan);
  EXPECT_TRUE(result.crashed[1]);
  EXPECT_GT(result.crash_time[1], 0.0);
  EXPECT_NEAR(result.base.computed[1], 0.5 * sol.alpha[1], 1e-9);
  EXPECT_NEAR(result.unfinished[1], 0.5 * sol.alpha[1], 1e-9);
  EXPECT_NEAR(result.lost_load(), 0.5 * sol.alpha[1], 1e-9);
  // The crash is on the forensic log.
  bool crash_logged = false;
  for (const FaultEvent& e : result.events) {
    if (e.kind == FaultEvent::Kind::kCrash && e.subject == 1) {
      crash_logged = true;
      EXPECT_DOUBLE_EQ(e.time, result.crash_time[1]);
    }
  }
  EXPECT_TRUE(crash_logged);
}

TEST(ExecuteLinearFaulty, CrashOnArrivalSeversTheChain) {
  // P1 dies the moment its load arrives: it computes nothing and relays
  // nothing, so only the root's share survives.
  const LinearNetwork net({1.0, 1.0, 1.0}, {0.2, 0.2});
  const auto sol = solve_linear_boundary(net);
  const auto result =
      run_compliant_faulty(net, FaultPlan{}.crash_at_work(1, 0.0));
  EXPECT_TRUE(result.crashed[1]);
  EXPECT_DOUBLE_EQ(result.base.computed[1], 0.0);
  EXPECT_DOUBLE_EQ(result.base.computed[2], 0.0);
  EXPECT_NEAR(result.base.computed[0], sol.alpha[0], 1e-12);
  EXPECT_NEAR(result.lost_load(), 1.0 - sol.alpha[0], 1e-9);
  EXPECT_GT(result.undelivered, 0.0);
  bool loss_logged = false;
  for (const FaultEvent& e : result.events) {
    loss_logged |= e.kind == FaultEvent::Kind::kMessageLost;
  }
  EXPECT_TRUE(loss_logged);
}

TEST(ExecuteLinearFaulty, LateCrashSparesForwardedLoad) {
  // P1 forwards downstream load before it finishes computing; a crash
  // after the forward must not claw back P2's share.
  const LinearNetwork net({1.0, 1.0, 1.0}, {0.2, 0.2});
  const auto sol = solve_linear_boundary(net);
  const auto result =
      run_compliant_faulty(net, FaultPlan{}.crash_at_work(1, 0.9));
  EXPECT_TRUE(result.crashed[1]);
  EXPECT_NEAR(result.base.computed[2], sol.alpha[2], 1e-9);
  EXPECT_NEAR(result.lost_load(), 0.1 * sol.alpha[1], 1e-9);
}

TEST(ExecuteLinearFaulty, SamePlanReplaysBitIdentically) {
  Rng rng(2026);
  const LinearNetwork net = LinearNetwork::random(6, rng, 0.5, 5.0, 0.05, 0.5);
  const auto sol = solve_linear_boundary(net);
  const ExecutionPlan plan = ExecutionPlan::compliant(net, sol);
  const FaultPlan faults = FaultPlan{}.crash_at_work(2, 0.3);
  const auto a = execute_linear_faulty(net, plan, faults);
  const auto b = execute_linear_faulty(net, plan, faults);
  ASSERT_EQ(a.events.size(), b.events.size());
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].kind, b.events[i].kind);
    EXPECT_DOUBLE_EQ(a.events[i].time, b.events[i].time);
    EXPECT_EQ(a.events[i].subject, b.events[i].subject);
  }
  for (std::size_t i = 0; i < net.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.base.computed[i], b.base.computed[i]);
    EXPECT_DOUBLE_EQ(a.base.finish_time[i], b.base.finish_time[i]);
    EXPECT_EQ(a.crashed[i], b.crashed[i]);
    EXPECT_DOUBLE_EQ(a.crash_time[i], b.crash_time[i]);
  }
  EXPECT_DOUBLE_EQ(a.undelivered, b.undelivered);
}

}  // namespace
