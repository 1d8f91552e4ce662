// Tests for the discrete-event engine, the chain and tree execution
// models and the Gantt renderer. The central property: the simulator
// reproduces the closed forms of eqs. (2.1)-(2.2) exactly.
#include <gtest/gtest.h>

#include <sstream>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "dlt/linear.hpp"
#include "dlt/tree.hpp"
#include "net/networks.hpp"
#include "net/tree.hpp"
#include "sim/gantt.hpp"
#include "sim/linear_execution.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"
#include "sim/tree_execution.hpp"

namespace {

using dls::common::Rng;
using dls::dlt::finish_times;
using dls::dlt::solve_linear_boundary;
using dls::net::LinearNetwork;
using dls::net::TreeNetwork;
using dls::sim::Activity;
using dls::sim::execute_linear;
using dls::sim::ExecutionPlan;
using dls::sim::ExecutionResult;
using dls::sim::Interval;
using dls::sim::render_gantt;
using dls::sim::Simulator;
using dls::sim::Trace;

TEST(Simulator, FiresInTimeOrder) {
  Simulator sim;
  std::vector<int> fired;
  sim.schedule_at(2.0, [&](Simulator&) { fired.push_back(2); });
  sim.schedule_at(1.0, [&](Simulator&) { fired.push_back(1); });
  sim.schedule_at(3.0, [&](Simulator&) { fired.push_back(3); });
  EXPECT_DOUBLE_EQ(sim.run(), 3.0);
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.executed(), 3u);
}

TEST(Simulator, SimultaneousEventsKeepScheduleOrder) {
  Simulator sim;
  std::vector<int> fired;
  for (int i = 0; i < 5; ++i) {
    sim.schedule_at(1.0, [&fired, i](Simulator&) { fired.push_back(i); });
  }
  sim.run();
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulator, EventsCanScheduleMoreEvents) {
  Simulator sim;
  int count = 0;
  std::function<void(Simulator&)> tick = [&](Simulator& s) {
    if (++count < 10) s.schedule_after(0.5, tick);
  };
  sim.schedule_at(0.0, tick);
  EXPECT_DOUBLE_EQ(sim.run(), 4.5);
  EXPECT_EQ(count, 10);
}

TEST(Simulator, RunUntilLeavesFutureEventsQueued) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(1.0, [&](Simulator&) { ++fired; });
  sim.schedule_at(5.0, [&](Simulator&) { ++fired; });
  sim.run_until(2.0);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.pending(), 1u);
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, RejectsSchedulingIntoThePast) {
  Simulator sim;
  sim.schedule_at(1.0, [](Simulator& s) {
    EXPECT_THROW(s.schedule_at(0.5, [](Simulator&) {}),
                 dls::PreconditionError);
  });
  sim.run();
}

TEST(Trace, FinishQueriesAndOnePortCheck) {
  Trace trace;
  trace.record(Interval{0, Activity::kSend, 0.0, 1.0, 0.5});
  trace.record(Interval{0, Activity::kCompute, 0.0, 2.0, 0.5});
  trace.record(Interval{1, Activity::kReceive, 0.0, 1.0, 0.5});
  EXPECT_DOUBLE_EQ(trace.processor_finish(0), 2.0);
  EXPECT_DOUBLE_EQ(trace.compute_finish(0), 2.0);
  EXPECT_DOUBLE_EQ(trace.compute_finish(1), 0.0);
  EXPECT_DOUBLE_EQ(trace.end(), 2.0);
  EXPECT_EQ(trace.processors(), 2u);
  EXPECT_TRUE(trace.check_one_port().empty());
  trace.record(Interval{0, Activity::kSend, 0.5, 1.5, 0.1});
  EXPECT_FALSE(trace.check_one_port().empty());
}

TEST(Trace, OverlappingReceivesAreFlagged) {
  Trace trace;
  trace.record(Interval{2, Activity::kReceive, 0.0, 1.0, 0.5});
  trace.record(Interval{2, Activity::kReceive, 0.5, 1.5, 0.5});
  const std::string violation = trace.check_one_port();
  ASSERT_FALSE(violation.empty());
  EXPECT_NE(violation.find("receive"), std::string::npos);
}

TEST(Trace, RejectsBackwardsIntervals) {
  Trace trace;
  EXPECT_THROW(trace.record(Interval{0, Activity::kSend, 2.0, 1.0, 0.1}),
               dls::PreconditionError);
}

TEST(ExecuteLinear, CompliantRunMatchesClosedForm) {
  Rng rng(123);
  for (int rep = 0; rep < 25; ++rep) {
    const auto m = static_cast<std::size_t>(rng.uniform_int(1, 25));
    const LinearNetwork net =
        LinearNetwork::random(m + 1, rng, 0.5, 5.0, 0.05, 0.5);
    const auto sol = solve_linear_boundary(net);
    const ExecutionResult result =
        execute_linear(net, ExecutionPlan::compliant(net, sol));
    const std::vector<double> expected = finish_times(net, sol.alpha);
    for (std::size_t i = 0; i < net.size(); ++i) {
      EXPECT_NEAR(result.finish_time[i], expected[i], 1e-9)
          << "P" << i << " " << net.describe();
      EXPECT_NEAR(result.computed[i], sol.alpha[i], 1e-12);
      EXPECT_NEAR(result.received[i], sol.received[i], 1e-12);
    }
    EXPECT_NEAR(result.makespan, sol.makespan, 1e-9);
    EXPECT_TRUE(result.trace.check_one_port().empty());
  }
}

TEST(ExecuteLinear, SheddingOverloadsTheSuccessor) {
  const LinearNetwork net({1.0, 1.0, 1.0}, {0.2, 0.2});
  const auto sol = solve_linear_boundary(net);
  ExecutionPlan plan = ExecutionPlan::compliant(net, sol);
  plan.retain_fraction[1] *= 0.5;  // P1 sheds half its share
  const ExecutionResult result = execute_linear(net, plan);
  EXPECT_LT(result.computed[1], sol.alpha[1]);
  EXPECT_GT(result.received[2], sol.received[2] + 1e-12);
  EXPECT_GT(result.computed[2], sol.alpha[2]);
  // Everything still gets computed somewhere.
  double total = 0.0;
  for (const double c : result.computed) total += c;
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(ExecuteLinear, SlowProcessorDelaysOnlyItself) {
  const LinearNetwork net({1.0, 1.0, 1.0}, {0.2, 0.2});
  const auto sol = solve_linear_boundary(net);
  ExecutionPlan plan = ExecutionPlan::compliant(net, sol);
  plan.actual_rate[1] *= 2.0;
  const ExecutionResult slow = execute_linear(net, plan);
  const ExecutionResult fast =
      execute_linear(net, ExecutionPlan::compliant(net, sol));
  EXPECT_GT(slow.finish_time[1], fast.finish_time[1]);
  // Store-and-forward with front-ends: P2's schedule is unaffected by
  // P1's compute speed.
  EXPECT_NEAR(slow.finish_time[2], fast.finish_time[2], 1e-12);
  EXPECT_NEAR(slow.finish_time[0], fast.finish_time[0], 1e-12);
}

TEST(ExecuteLinear, TerminalAlwaysRetainsEverything) {
  const LinearNetwork net({1.0, 1.0}, {0.2});
  const auto sol = solve_linear_boundary(net);
  ExecutionPlan plan = ExecutionPlan::compliant(net, sol);
  plan.retain_fraction[1] = 0.25;  // ignored: P_m has no successor
  const ExecutionResult result = execute_linear(net, plan);
  EXPECT_NEAR(result.computed[1], result.received[1], 1e-15);
}

TEST(ExecuteLinear, ValidatesPlanShape) {
  const LinearNetwork net({1.0, 1.0}, {0.2});
  ExecutionPlan plan;
  plan.retain_fraction = {0.5};
  plan.actual_rate = {1.0, 1.0};
  EXPECT_THROW(execute_linear(net, plan), dls::PreconditionError);
  plan.retain_fraction = {0.5, 1.0};
  plan.actual_rate = {1.0, 0.0};
  EXPECT_THROW(execute_linear(net, plan), dls::PreconditionError);
}

// Shape: 0 -> {1, 2}; 1 -> {3, 4}
TreeNetwork test_tree() {
  return TreeNetwork({1.0, 1.2, 0.8, 1.5, 0.9},
                     {1.0, 0.2, 0.15, 0.25, 0.1}, {0, 0, 0, 1, 1});
}

TEST(ExecuteTree, CompliantRunMatchesSolver) {
  const TreeNetwork tree = test_tree();
  const auto sol = dls::dlt::solve_tree(tree);
  const auto result = dls::sim::execute_tree(
      tree, sol, dls::sim::TreeExecutionPlan::compliant(tree));
  const auto closed = dls::dlt::tree_finish_times(tree, sol);
  for (std::size_t v = 0; v < tree.size(); ++v) {
    EXPECT_NEAR(result.finish_time[v], closed[v], 1e-9) << "node " << v;
    EXPECT_NEAR(result.computed[v], sol.alpha[v], 1e-12);
    EXPECT_NEAR(result.received[v], sol.received[v], 1e-12);
  }
  EXPECT_NEAR(result.makespan, sol.makespan, 1e-9);
  EXPECT_TRUE(result.trace.check_one_port().empty());
}

TEST(ExecuteTree, SheddingOverloadsTheChildren) {
  const TreeNetwork tree = test_tree();
  const auto sol = dls::dlt::solve_tree(tree);
  auto plan = dls::sim::TreeExecutionPlan::compliant(tree);
  plan.keep_multiplier[1] = 0.5;  // node 1 sheds half its keep
  const auto result = dls::sim::execute_tree(tree, sol, plan);
  EXPECT_LT(result.computed[1], sol.alpha[1]);
  EXPECT_GT(result.received[3], sol.received[3] + 1e-12);
  EXPECT_GT(result.received[4], sol.received[4] + 1e-12);
  double total = 0.0;
  for (const double c : result.computed) total += c;
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(Gantt, RendersCommAboveAndComputeBelow) {
  const LinearNetwork net({1.0, 2.0}, {0.5});
  const auto sol = solve_linear_boundary(net);
  const ExecutionResult result =
      execute_linear(net, ExecutionPlan::compliant(net, sol));
  std::ostringstream os;
  render_gantt(os, result.trace, {.width = 60, .title = "golden"});
  const std::string out = os.str();
  EXPECT_NE(out.find("golden"), std::string::npos);
  EXPECT_NE(out.find("P0 comm"), std::string::npos);
  EXPECT_NE(out.find("comp"), std::string::npos);
  EXPECT_NE(out.find('>'), std::string::npos);  // send
  EXPECT_NE(out.find('<'), std::string::npos);  // receive
  EXPECT_NE(out.find('#'), std::string::npos);  // compute
}

TEST(Gantt, EmptyTraceIsHandled) {
  std::ostringstream os;
  render_gantt(os, Trace{});
  EXPECT_NE(os.str().find("empty"), std::string::npos);
}

}  // namespace
