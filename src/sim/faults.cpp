#include "sim/faults.hpp"

#include <algorithm>
#include <memory>

#include "common/error.hpp"
#include "sim/obs_bridge.hpp"
#include "sim/simulator.hpp"

namespace dls::sim {

FaultPlan& FaultPlan::crash_at_work(std::size_t processor, double fraction) {
  DLS_REQUIRE(fraction >= 0.0 && fraction < 1.0,
              "crash work fraction must lie in [0, 1)");
  crashes_.push_back(CrashSpec{processor, fraction});
  return *this;
}

std::optional<CrashSpec> FaultPlan::crash_of(std::size_t processor) const {
  for (const CrashSpec& spec : crashes_) {
    if (spec.processor == processor) return spec;
  }
  return std::nullopt;
}

FaultPlan FaultPlan::random_crashes(std::size_t processors,
                                    double crash_probability,
                                    common::Rng& rng) {
  DLS_REQUIRE(crash_probability >= 0.0 && crash_probability <= 1.0,
              "crash probability must lie in [0, 1]");
  FaultPlan plan;
  // One draw is skipped before the crash draws: published fault-sweep
  // tables (bench_fault_sweep) depend on where each plan's draws fall in
  // the stream.
  static_cast<void>(rng.bits());
  for (std::size_t i = 1; i < processors; ++i) {
    if (rng.bernoulli(crash_probability)) {
      plan.crash_at_work(i, rng.uniform(0.05, 0.95));
    }
  }
  return plan;
}

bool FaultyExecutionResult::any_crash() const noexcept {
  return std::find(crashed.begin(), crashed.end(), true) != crashed.end();
}

double FaultyExecutionResult::total_computed() const noexcept {
  double sum = 0.0;
  for (const double c : base.computed) sum += c;
  return sum;
}

namespace {

void sort_events(std::vector<FaultEvent>& events) {
  std::stable_sort(events.begin(), events.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     return a.time < b.time;
                   });
}

/// Per-processor bookkeeping for the chain executor: what is in flight
/// and which event tokens to revoke if the node dies.
struct NodeState {
  bool dead = false;

  bool finish_pending = false;
  EventId finish_event = 0;
  Time compute_start = 0.0;
  Time compute_end = 0.0;
  double compute_amount = 0.0;

  bool arrival_pending = false;
  EventId arrival_event = 0;
  Time send_start = 0.0;
  double send_amount = 0.0;
  std::size_t send_link = 0;
};

struct FaultyChainState {
  const net::LinearNetwork* network = nullptr;
  const ExecutionPlan* plan = nullptr;
  const FaultPlan* faults = nullptr;

  FaultyExecutionResult result;
  std::vector<NodeState> nodes;

  void on_crash(Simulator& sim, std::size_t i) {
    NodeState& node = nodes[i];
    if (node.dead) return;
    node.dead = true;
    result.crashed[i] = true;
    result.crash_time[i] = sim.now();
    result.events.push_back(
        FaultEvent{FaultEvent::Kind::kCrash, sim.now(), i, 0.0});

    // Revoke the pending compute completion: the node dies mid-crunch
    // with only the elapsed fraction of its retained load finished.
    if (node.finish_pending && sim.cancel(node.finish_event)) {
      node.finish_pending = false;
      const double span = node.compute_end - node.compute_start;
      const double frac =
          span > 0.0 ? (sim.now() - node.compute_start) / span : 0.0;
      const double partial = node.compute_amount * frac;
      result.base.computed[i] = partial;
      result.unfinished[i] += node.compute_amount - partial;
      result.base.trace.record(Interval{i, Activity::kCompute,
                                        node.compute_start, sim.now(),
                                        partial});
    }
    // Revoke the in-flight outbound transfer: store-and-forward means a
    // partially-shipped batch never becomes usable downstream.
    if (node.arrival_pending && sim.cancel(node.arrival_event)) {
      node.arrival_pending = false;
      result.undelivered += node.send_amount;
      result.events.push_back(FaultEvent{FaultEvent::Kind::kMessageLost,
                                         sim.now(), node.send_link,
                                         node.send_amount});
      result.base.trace.record(Interval{i, Activity::kSend, node.send_start,
                                        sim.now(), node.send_amount});
    }
  }

  void on_load_available(Simulator& sim, std::size_t i, double load) {
    const std::size_t n = network->size();
    NodeState& node = nodes[i];
    result.base.received[i] = load;

    const bool terminal = (i + 1 == n);
    const double retain =
        terminal ? 1.0 : std::clamp(plan->retain_fraction[i], 0.0, 1.0);
    const double kept = retain * load;
    const double forwarded = load - kept;

    if (kept > 0.0) {
      const double duration = kept * plan->actual_rate[i];
      node.compute_start = sim.now();
      node.compute_end = sim.now() + duration;
      node.compute_amount = kept;
      node.finish_pending = true;
      node.finish_event = sim.schedule_after(duration, [this, i](Simulator& s) {
        NodeState& me = nodes[i];
        me.finish_pending = false;
        result.base.computed[i] = me.compute_amount;
        result.base.finish_time[i] = s.now();
        result.base.trace.record(Interval{i, Activity::kCompute,
                                          me.compute_start, s.now(),
                                          me.compute_amount});
      });
    }

    // The crash becomes an absolute instant once the compute window is
    // known.
    if (const auto spec = faults->crash_of(i); spec && kept > 0.0) {
      const double until_crash =
          spec->at_work_fraction * kept * plan->actual_rate[i];
      sim.schedule_after(until_crash,
                         [this, i](Simulator& s) { on_crash(s, i); });
    }

    if (terminal || forwarded <= 0.0) return;

    // Outbound transfer on link i+1.
    const std::size_t link = i + 1;
    const double duration = forwarded * network->z(link);
    const Time send_start = sim.now();
    const Time send_end = send_start + duration;

    node.send_start = send_start;
    node.send_amount = forwarded;
    node.send_link = link;
    node.arrival_pending = true;
    node.arrival_event = sim.schedule_after(
        duration, [this, i, forwarded, send_start, send_end](Simulator& s) {
          NodeState& me = nodes[i];
          me.arrival_pending = false;
          result.base.trace.record(Interval{i, Activity::kSend, send_start,
                                            send_end, forwarded});
          result.base.trace.record(Interval{i + 1, Activity::kReceive,
                                            send_start, send_end, forwarded});
          on_load_available(s, i + 1, forwarded);
        });
  }
};

}  // namespace

FaultyExecutionResult execute_linear_faulty(const net::LinearNetwork& network,
                                            const ExecutionPlan& plan,
                                            const FaultPlan& faults) {
  const std::size_t n = network.size();
  DLS_REQUIRE(plan.retain_fraction.size() == n,
              "plan retain_fraction size mismatch");
  DLS_REQUIRE(plan.actual_rate.size() == n, "plan actual_rate size mismatch");
  for (const double rate : plan.actual_rate) {
    DLS_REQUIRE(rate > 0.0, "actual rates must be positive");
  }
  for (const CrashSpec& spec : faults.crashes()) {
    DLS_REQUIRE(spec.processor < n, "crash processor out of range");
  }

  auto state = std::make_unique<FaultyChainState>();
  state->network = &network;
  state->plan = &plan;
  state->faults = &faults;
  state->result.base.received.assign(n, 0.0);
  state->result.base.computed.assign(n, 0.0);
  state->result.base.finish_time.assign(n, 0.0);
  state->result.crashed.assign(n, false);
  state->result.crash_time.assign(n, 0.0);
  state->result.unfinished.assign(n, 0.0);
  state->nodes.assign(n, NodeState{});

  Simulator sim;
  FaultyChainState* raw = state.get();
  sim.schedule_at(0.0,
                  [raw](Simulator& s) { raw->on_load_available(s, 0, 1.0); });
  sim.run();

  state->result.base.makespan =
      *std::max_element(state->result.base.finish_time.begin(),
                        state->result.base.finish_time.end());
  sort_events(state->result.events);
  publish_trace(state->result.base.trace);
  return std::move(state->result);
}

}  // namespace dls::sim
