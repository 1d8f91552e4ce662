// Deterministic-replay tests: running the protocol twice with the same
// seed must produce semantically identical traces and identical metric
// snapshots. The logical clock replaces wall time, the sink is drained
// between runs, and events are compared field by field — including
// timestamps, which the logical clock makes reproducible.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "agents/agent.hpp"
#include "net/networks.hpp"
#include "obs/obs.hpp"
#include "protocol/recovery.hpp"
#include "protocol/runner.hpp"
#include "sim/faults.hpp"

namespace {

using dls::agents::Behavior;
using dls::agents::Population;
using dls::agents::StrategicAgent;
using dls::net::LinearNetwork;
using dls::obs::MetricsRegistry;
using dls::obs::SpanEvent;
using dls::obs::TraceSink;
using dls::protocol::FaultToleranceOptions;
using dls::protocol::ProtocolOptions;

class ObsReplayTest : public ::testing::TestWithParam<std::size_t> {
 protected:
  void SetUp() override {
    TraceSink::global().clear();
    MetricsRegistry::global().reset();
  }
  void TearDown() override {
    dls::obs::set_active(false);
    TraceSink::global().clear();
    MetricsRegistry::global().reset();
    dls::obs::use_steady_clock();
  }
};

/// An m-worker chain with mildly heterogeneous rates.
LinearNetwork chain(std::size_t m) {
  std::vector<double> w, z;
  for (std::size_t i = 0; i <= m; ++i) {
    w.push_back(1.0 + 0.1 * static_cast<double>(i % 5));
  }
  for (std::size_t i = 0; i < m; ++i) {
    z.push_back(0.1 + 0.05 * static_cast<double>(i % 3));
  }
  return LinearNetwork(std::move(w), std::move(z));
}

Population truthful(const LinearNetwork& net) {
  std::vector<StrategicAgent> agents;
  for (std::size_t i = 1; i < net.size(); ++i) {
    agents.push_back(StrategicAgent{i, net.w(i), Behavior::truthful()});
  }
  return Population(std::move(agents));
}

/// Everything a replay must reproduce, timestamps included (the logical
/// clock is reset before each run, so matching tick sequences are part
/// of the determinism claim).
void expect_identical(const std::vector<SpanEvent>& a,
                      const std::vector<SpanEvent>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("event " + std::to_string(i) + " (" + a[i].name + ")");
    EXPECT_STREQ(a[i].name, b[i].name);
    EXPECT_EQ(a[i].start_ns, b[i].start_ns);
    EXPECT_EQ(a[i].end_ns, b[i].end_ns);
    EXPECT_EQ(a[i].seq, b[i].seq);
    EXPECT_EQ(a[i].thread, b[i].thread);
    EXPECT_EQ(a[i].depth, b[i].depth);
    EXPECT_EQ(a[i].track, b[i].track);
    EXPECT_EQ(a[i].args, b[i].args);
  }
}

struct TracedRun {
  std::vector<SpanEvent> events;
  std::string metrics_json;
};

template <typename Fn>
TracedRun traced(Fn&& run) {
  dls::obs::use_logical_clock();
  TraceSink::global().clear();
  MetricsRegistry::global().reset();
  dls::obs::set_active(true);
  run();
  dls::obs::set_active(false);
  TracedRun out;
  out.events = TraceSink::global().drain();
  out.metrics_json = MetricsRegistry::global().snapshot().to_json();
  return out;
}

TEST_P(ObsReplayTest, ProtocolRunReplaysIdentically) {
  const std::size_t m = GetParam();
  const LinearNetwork net = chain(m);
  const Population pop = truthful(net);
  ProtocolOptions options;
  options.seed = 1234;

  const auto run = [&] {
    const auto report = dls::protocol::run_protocol(net, pop, options);
    ASSERT_FALSE(report.aborted);
  };
  const TracedRun first = traced(run);
  const TracedRun second = traced(run);

  ASSERT_FALSE(first.events.empty());
  expect_identical(first.events, second.events);
  EXPECT_EQ(first.metrics_json, second.metrics_json);
}

TEST_P(ObsReplayTest, FaultyProtocolRunReplaysIdentically) {
  const std::size_t m = GetParam();
  const LinearNetwork net = chain(m);
  const Population pop = truthful(net);
  ProtocolOptions options;
  options.seed = 99;

  FaultToleranceOptions ft;
  dls::sim::FaultPlan faults;
  // Crash the last worker partway through its share; with m == 1 the
  // sole worker is the victim.
  faults.crash_at_work(m, 0.5);
  ft.faults = faults;

  const auto run = [&] {
    const auto report =
        dls::protocol::run_protocol_ft(net, pop, options, ft);
    ASSERT_TRUE(report.any_crash);
  };
  const TracedRun first = traced(run);
  const TracedRun second = traced(run);

  ASSERT_FALSE(first.events.empty());
  expect_identical(first.events, second.events);
  EXPECT_EQ(first.metrics_json, second.metrics_json);
}

TEST_P(ObsReplayTest, FaultFreeAndFaultyTracesDiffer) {
  const std::size_t m = GetParam();
  const LinearNetwork net = chain(m);
  const Population pop = truthful(net);
  ProtocolOptions options;
  options.seed = 5;

  FaultToleranceOptions ft;
  dls::sim::FaultPlan faults;
  faults.crash_at_work(m, 0.25);
  ft.faults = faults;

  const TracedRun clean = traced(
      [&] { dls::protocol::run_protocol(net, pop, options); });
  const TracedRun faulty = traced(
      [&] { dls::protocol::run_protocol_ft(net, pop, options, ft); });

  // The fault path must leave a visibly different trace (recovery spans,
  // crash counters) — otherwise the observability layer is lying.
  EXPECT_NE(clean.metrics_json, faulty.metrics_json);
}

INSTANTIATE_TEST_SUITE_P(WorkerCounts, ObsReplayTest,
                         ::testing::Values<std::size_t>(1, 2, 8, 32));

}  // namespace
