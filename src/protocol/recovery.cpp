#include "protocol/recovery.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/error.hpp"
#include "core/dls_lbl.hpp"
#include "crypto/pki.hpp"
#include "obs/obs.hpp"
#include "protocol/meter.hpp"
#include "sim/simulator.hpp"

namespace dls::protocol {

UnderComputeVerdict classify_under_computation(double assigned,
                                               double computed,
                                               bool heartbeats_stopped,
                                               bool successor_excess_tokens,
                                               double tolerance) {
  // Token evidence outlives the node: dumped load convicts a shedder
  // whether or not it died afterwards.
  if (successor_excess_tokens) return UnderComputeVerdict::kShedding;
  if (computed + tolerance >= assigned) return UnderComputeVerdict::kCompliant;
  if (heartbeats_stopped) return UnderComputeVerdict::kCrash;
  // Alive, no dumping, under target: the node is merely slow — the
  // meter prices that through ŵ_j (Lemma 5.3), no incident.
  return UnderComputeVerdict::kCompliant;
}

namespace {

/// One probe exchange per missed deadline, with exponential backoff on
/// the retry timer; a reply cancels the pending retry and re-arms the
/// deadline. Runs on the discrete-event engine so the latency numbers
/// compose with the execution timeline.
struct Monitor {
  common::HeartbeatConfig cfg;
  std::optional<sim::Time> crash_time;
  sim::Time horizon = 0.0;

  DetectionReport report;
  bool done = false;
  std::size_t retries = 0;
  sim::EventId deadline = 0;
  bool deadline_armed = false;
  sim::EventId retry = 0;
  bool retry_armed = false;

  bool alive_at(sim::Time t) const {
    return !crash_time || t < *crash_time;
  }

  double backoff(std::size_t attempt) const {
    return common::exponential_backoff(cfg.timeout, cfg.backoff_factor, attempt,
                               cfg.max_backoff);
  }

  void arm_deadline(sim::Simulator& sim) {
    deadline_armed = true;
    deadline = sim.schedule_after(cfg.period + cfg.timeout,
                                  [this](sim::Simulator& s) { on_miss(s); });
  }

  void on_beat(sim::Simulator& sim) {
    if (done) return;
    if (deadline_armed) sim.cancel(deadline);
    if (retry_armed && sim.cancel(retry)) retry_armed = false;
    retries = 0;
    if (sim.now() + cfg.period > horizon) {
      done = true;  // no further beats are expected; stop watching
      return;
    }
    arm_deadline(sim);
  }

  void on_miss(sim::Simulator& sim) {
    deadline_armed = false;
    if (done) return;
    ++report.timeouts;
    probe(sim);
  }

  void probe(sim::Simulator& sim) {
    if (done) return;
    ++report.probes_sent;
    const double rtt = cfg.timeout * 0.5;
    if (alive_at(sim.now())) {
      sim.schedule_after(rtt, [this](sim::Simulator& s) { on_beat(s); });
    }
    // Pessimistically arm the retry; a reply in flight will cancel it.
    const double wait = std::max(backoff(retries), rtt * 1.5);
    retry_armed = true;
    retry = sim.schedule_after(wait, [this](sim::Simulator& s) {
      retry_armed = false;
      if (done) return;
      ++retries;
      if (retries >= cfg.retry_budget) {
        done = true;
        report.confirmed_dead = true;
        report.confirmed_at = s.now();
        return;
      }
      probe(s);
    });
  }
};

}  // namespace

DetectionReport monitor_processor(const common::HeartbeatConfig& config,
                                  std::optional<sim::Time> crash_time,
                                  sim::Time horizon) {
  DLS_REQUIRE(config.period > 0.0 && config.timeout > 0.0,
              "heartbeat period and timeout must be positive");
  DLS_REQUIRE(config.retry_budget >= 1, "retry budget must be >= 1");
  DLS_SPAN("recovery.monitor");

  Monitor monitor;
  monitor.cfg = config;
  monitor.crash_time = crash_time;
  monitor.horizon = horizon;
  monitor.report.crash_time = crash_time.value_or(0.0);

  sim::Simulator sim;
  // The worker streams beats every period while alive; the root arms
  // the first deadline at t = 0.
  // Beat times are computed by multiplication, not accumulation, so the
  // schedule is exact and replays identically.
  for (std::size_t k = 1;; ++k) {
    const sim::Time t = config.period * static_cast<double>(k);
    if (t > horizon || !monitor.alive_at(t)) break;
    sim.schedule_at(t, [&monitor](sim::Simulator& s) { monitor.on_beat(s); });
  }
  monitor.arm_deadline(sim);
  sim.run();

  DLS_COUNT("recovery.probes", monitor.report.probes_sent);
  if (monitor.report.confirmed_dead) {
    DLS_COUNT("recovery.crashes_confirmed");
  }
  return monitor.report;
}

namespace {

net::LinearNetwork prefix_network(const net::LinearNetwork& full,
                                  std::size_t count) {
  std::vector<double> w(full.processing_times().begin(),
                        full.processing_times().begin() +
                            static_cast<std::ptrdiff_t>(count));
  std::vector<double> z;
  for (std::size_t j = 1; j < count; ++j) z.push_back(full.z(j));
  return net::LinearNetwork(std::move(w), std::move(z));
}

}  // namespace

FtRunReport run_protocol_ft(const net::LinearNetwork& true_network,
                            const agents::Population& population,
                            const ProtocolOptions& options,
                            const FaultToleranceOptions& ft) {
  const std::size_t n = true_network.size();
  DLS_REQUIRE(n >= 2, "the protocol needs at least one strategic worker");
  DLS_REQUIRE(population.size() == n - 1,
              "population must cover every non-root processor");
  DLS_REQUIRE(!ft.faults.crash_of(0),
              "the root is trusted infrastructure and cannot crash");
  DLS_SPAN_ARGS("protocol.run_ft", "{\"m\":" + std::to_string(n - 1) + "}");

  if (ft.faults.empty()) {
    FtRunReport out;
    out.round = run_protocol(true_network, population, options);
    out.detection.assign(n, DetectionReport{});
    out.verdicts.assign(n, UnderComputeVerdict::kCompliant);
    for (std::size_t i = 0; i < n; ++i) out.survivors.push_back(i);
    out.recovered = !out.round.aborted;
    out.degraded_makespan = out.round.makespan;
    return out;
  }

  FtRunReport out;
  RunReport& report = out.round;
  report.round = options.round;
  common::Rng rng(options.seed);

  // PKI enrolment and ledger accounts, as in the fail-free runner.
  crypto::KeyRegistry registry;
  std::vector<crypto::Signer> signers;
  signers.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    signers.push_back(
        registry.enroll(static_cast<crypto::AgentId>(i), rng));
    report.ledger.open_account(static_cast<payment::AccountId>(i));
  }

  // Phase I/II: bids inward, allocation outward (assumed undisturbed —
  // the chaos plan targets Phase III; pre-execution message faults are
  // absorbed by the same retry machinery the heartbeats use).
  std::vector<double> w(n);
  w[0] = true_network.w(0);
  for (std::size_t i = 1; i < n; ++i) {
    w[i] = population.agent(i).bid();
    report.bids.push_back(w[i]);
  }
  const net::LinearNetwork bid_network(
      std::vector<double>(w),
      {true_network.link_times().begin(), true_network.link_times().end()});
  report.solution = dlt::solve_linear_boundary(bid_network);
  const dlt::LinearSolution& sol = report.solution;
  double fine = options.mechanism.fine;
  if (options.auto_size_fine) {
    fine = std::max(fine, core::cheating_profit_bound(bid_network) + 1.0);
  }

  // Phase III under the fault plan.
  sim::ExecutionPlan plan;
  plan.retain_fraction.resize(n);
  plan.actual_rate.resize(n);
  plan.retain_fraction[0] = sol.alpha_hat[0];
  plan.actual_rate[0] = true_network.w(0);
  for (std::size_t i = 1; i < n; ++i) {
    const agents::StrategicAgent& agent = population.agent(i);
    plan.retain_fraction[i] =
        sol.alpha_hat[i] * (1.0 - agent.behavior.shed_fraction);
    plan.actual_rate[i] = agent.actual_rate();
  }
  const sim::FaultyExecutionResult fx =
      sim::execute_linear_faulty(true_network, plan, ft.faults);
  report.execution = fx.base;
  out.fault_events = fx.events;
  out.any_crash = fx.any_crash();

  // Liveness monitoring: heartbeats double as signed progress claims.
  const sim::Time exec_end = fx.base.trace.end();
  const sim::Time horizon = exec_end + ft.heartbeat.period;
  out.detection.assign(n, DetectionReport{});
  for (std::size_t i = 1; i < n; ++i) {
    const std::optional<sim::Time> crash_time =
        fx.crashed[i] ? std::optional<sim::Time>(fx.crash_time[i])
                      : std::nullopt;
    out.detection[i] = monitor_processor(ft.heartbeat, crash_time, horizon);
  }

  // Verdicts: token evidence (excess received vs published D) against
  // liveness evidence (exhausted probe budget).
  const double tol =
      2.0 / static_cast<double>(options.blocks_per_unit);
  out.verdicts.assign(n, UnderComputeVerdict::kCompliant);
  for (std::size_t i = 1; i < n; ++i) {
    // Evidence must pin the dump on its ORIGINATOR: the successor's
    // signed receipt is compared against the compliant forwarding bound
    // (1 - α̂_i) · received_i derived from P_i's own signed receipt. A
    // node merely relaying excess introduced upstream forwards exactly
    // its bound; a node starved by an upstream crash forwards nothing;
    // only the node that kept less than its α̂_i share exceeds it.
    const bool successor_excess =
        (i + 1 < n) &&
        fx.base.received[i + 1] >
            (1.0 - sol.alpha_hat[i]) * fx.base.received[i] + tol;
    out.verdicts[i] = classify_under_computation(
        sol.alpha[i], fx.base.computed[i],
        out.detection[i].confirmed_dead && fx.crashed[i], successor_excess,
        tol);
  }

  // Incidents and fines from the verdicts.
  for (std::size_t i = 1; i < n; ++i) {
    if (out.verdicts[i] == UnderComputeVerdict::kShedding) {
      Incident incident;
      incident.kind = Incident::Kind::kLoadShedding;
      incident.accused = i;
      incident.reporter = i + 1 < n ? i + 1 : 0;
      incident.substantiated = true;
      incident.fine = options.fines_enabled ? fine : 0.0;
      incident.detail = "excess tokens downstream of P" + std::to_string(i);
      report.incidents.push_back(incident);
      if (options.fines_enabled) {
        report.ledger.post({static_cast<payment::AccountId>(i),
                            payment::kTreasury, payment::TransferKind::kFine,
                            fine, "load shedding (token evidence)"});
        report.ledger.post({payment::kTreasury,
                            static_cast<payment::AccountId>(incident.reporter),
                            payment::TransferKind::kReward, fine,
                            "shedding report reward"});
      }
    } else if (fx.crashed[i] && out.detection[i].confirmed_dead) {
      Incident incident;
      incident.kind = Incident::Kind::kCrash;
      incident.accused = i;
      incident.reporter = 0;
      incident.substantiated = true;
      incident.fine = 0.0;
      std::ostringstream detail;
      detail << "crash at t=" << fx.crash_time[i] << ", confirmed t="
             << out.detection[i].confirmed_at << " after "
             << out.detection[i].probes_sent << " probes";
      incident.detail = detail.str();
      report.incidents.push_back(incident);
    }
  }
  for (const DetectionReport& det : out.detection) {
    if (det.confirmed_dead) {
      out.detection_latency = std::max(out.detection_latency, det.latency());
    }
  }

  // Survivor re-solve: redistribute everything nobody verifiably
  // computed over the longest still-reachable prefix.
  for (std::size_t i = 0; i < n; ++i) {
    if (!fx.crashed[i]) out.survivors.push_back(i);
  }
  std::size_t prefix_len = n;
  for (std::size_t i = 0; i < n; ++i) {
    if (fx.crashed[i]) {
      prefix_len = i;
      break;
    }
  }
  const double residual = std::max(0.0, fx.lost_load());
  out.residual_load = residual;

  std::vector<double> final_computed = fx.base.computed;
  out.degraded_makespan = fx.base.makespan;
  if (residual > 1e-12) {
    DLS_SPAN("recovery.resolve");
    DLS_COUNT("recovery.resolves");
    out.recovery_start = exec_end;
    for (std::size_t i = 1; i < n; ++i) {
      if (fx.crashed[i] && out.detection[i].confirmed_dead) {
        out.recovery_start =
            std::max(out.recovery_start, out.detection[i].confirmed_at);
      }
    }
    const net::LinearNetwork rec_bid = prefix_network(bid_network, prefix_len);
    out.recovery_solution = dlt::solve_linear_boundary(rec_bid);

    // The recovery pass is executed for a unit load on the true prefix
    // (DLT is scale-free: times and shares scale linearly by residual).
    sim::ExecutionPlan rec_plan;
    rec_plan.retain_fraction = out.recovery_solution.alpha_hat;
    rec_plan.actual_rate.assign(plan.actual_rate.begin(),
                                plan.actual_rate.begin() +
                                    static_cast<std::ptrdiff_t>(prefix_len));
    const net::LinearNetwork rec_true =
        prefix_network(true_network, prefix_len);
    out.recovery_execution = sim::execute_linear(rec_true, rec_plan);
    for (std::size_t j = 0; j < prefix_len; ++j) {
      final_computed[j] += residual * out.recovery_execution->computed[j];
    }
    out.degraded_makespan =
        std::max(out.degraded_makespan,
                 out.recovery_start +
                     residual * out.recovery_execution->makespan);
  }
  double covered = 0.0;
  for (const double c : final_computed) covered += c;
  out.recovered = std::abs(covered - 1.0) <= 1e-9;
  report.makespan = out.degraded_makespan;

  // Phase IV: metering, assessment over the *final* computed loads, and
  // settlement.
  const TamperProofMeter meter(signers[0], options.round);
  std::vector<double> metered(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double declared = i == 0 ? true_network.w(0) : w[i];
    const crypto::SignedClaim claim = meter.read(fx.base, i, declared);
    DLS_REQUIRE(crypto::verify(registry, claim), "meter claims must verify");
    metered[i] = claim.claim.value;
  }
  report.assessment = core::assess_dls_lbl(bid_network, metered,
                                           final_computed, options.mechanism,
                                           /*solution_found=*/true);

  for (std::size_t j = 1; j < n; ++j) {
    core::Assessment& a = report.assessment.processors[j];
    if (fx.crashed[j]) {
      // E_j settlement: the crashed node is paid exactly its verified
      // partial work at the metered rate — no bonus, no fine. Utility
      // nets to zero: it is made whole for effort, not rewarded for a
      // contract it failed.
      const double verified = fx.base.computed[j];
      const double paid = verified * metered[j];
      CrashSettlement settlement;
      settlement.processor = j;
      settlement.assigned = sol.alpha[j];
      settlement.verified_computed = verified;
      settlement.settlement_paid = paid;
      settlement.fine = 0.0;
      settlement.detection = out.detection[j];
      out.crashes.push_back(settlement);

      report.assessment.total_payment += paid - a.money.payment;
      a.money.compensation = paid;
      a.money.recompense = paid;
      a.money.bonus = 0.0;
      a.money.payment = paid;
      a.money.utility = a.money.valuation + paid;
      if (paid > 0.0) {
        report.ledger.post({payment::kTreasury,
                            static_cast<payment::AccountId>(j),
                            payment::TransferKind::kRecompense, paid,
                            "crash settlement E_" + std::to_string(j)});
      }
      continue;
    }
    const double payment = a.money.payment;
    const double recompense = std::min(a.money.recompense, payment);
    if (payment > 0.0) {
      if (recompense > 0.0) {
        report.ledger.post({payment::kTreasury,
                            static_cast<payment::AccountId>(j),
                            payment::TransferKind::kRecompense, recompense,
                            "E_" + std::to_string(j) + " (recovery share)"});
      }
      report.ledger.post({payment::kTreasury,
                          static_cast<payment::AccountId>(j),
                          payment::TransferKind::kCompensation,
                          payment - recompense, "Q_" + std::to_string(j)});
    } else if (payment < 0.0) {
      report.ledger.post({static_cast<payment::AccountId>(j),
                          payment::kTreasury,
                          payment::TransferKind::kCompensation, -payment,
                          "Q_" + std::to_string(j)});
    }
  }
  const double root_cost =
      report.assessment.processors[0].money.compensation;
  if (root_cost > 0.0) {
    report.ledger.post({payment::kTreasury, 0,
                        payment::TransferKind::kCompensation, root_cost,
                        "root reimbursement"});
  }

  // Final per-processor accounting, mirroring the fail-free runner.
  report.processors.assign(n, ProcessorReport{});
  for (std::size_t i = 0; i < n; ++i) {
    ProcessorReport& p = report.processors[i];
    p.index = i;
    p.true_rate = true_network.w(i);
    p.bid_rate = w[i];
    const core::Assessment& a = report.assessment.processors[i];
    p.actual_rate = a.actual_rate;
    p.assigned = a.alpha;
    p.computed = a.computed;
    p.valuation = a.money.valuation;
  }
  for (const auto& inc : report.incidents) {
    const std::size_t loser = inc.substantiated ? inc.accused : inc.reporter;
    const std::size_t winner = inc.substantiated ? inc.reporter : inc.accused;
    if (inc.fine > 0.0) {
      report.processors[loser].fines += inc.fine;
      report.processors[winner].rewards += inc.fine;
    }
  }
  for (std::size_t i = 1; i < n; ++i) {
    report.processors[i].payment =
        report.ledger.net_of_kind(static_cast<payment::AccountId>(i),
                                  payment::TransferKind::kCompensation) +
        report.ledger.net_of_kind(static_cast<payment::AccountId>(i),
                                  payment::TransferKind::kRecompense);
  }
  for (std::size_t i = 0; i < n; ++i) {
    ProcessorReport& p = report.processors[i];
    p.utility = p.valuation + p.payment - p.fines + p.rewards;
  }
  report.processors[0].utility = 0.0;  // eq. (4.3)
  return out;
}

}  // namespace dls::protocol
