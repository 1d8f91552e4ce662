#include "protocol/runner.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "check/mechanism_invariants.hpp"
#include "check/protocol_invariants.hpp"
#include "common/error.hpp"
#include "common/tolerance.hpp"
#include "crypto/pki.hpp"
#include "obs/obs.hpp"
#include "protocol/meter.hpp"
#include "protocol/wire.hpp"

namespace dls::protocol {

std::string to_string(Incident::Kind kind) {
  switch (kind) {
    case Incident::Kind::kContradictoryMessages:
      return "contradictory-messages";
    case Incident::Kind::kMiscomputation:
      return "miscomputation";
    case Incident::Kind::kLoadShedding:
      return "load-shedding";
    case Incident::Kind::kOvercharge:
      return "overcharge";
    case Incident::Kind::kFalseAccusation:
      return "false-accusation";
    case Incident::Kind::kDataCorruption:
      return "data-corruption";
    case Incident::Kind::kCrash:
      return "crash";
  }
  return "unknown";
}

double RunReport::total_fines(std::size_t i) const {
  double total = 0.0;
  for (const auto& inc : incidents) {
    const std::size_t loser = inc.substantiated ? inc.accused : inc.reporter;
    if (loser == i) total += inc.fine;
  }
  return total;
}

namespace {

using agents::Population;
using crypto::Claim;
using crypto::ClaimKind;
using crypto::SignedClaim;

/// Everything the run needs in one place.
struct Round {
  const net::LinearNetwork* truth = nullptr;
  const Population* population = nullptr;
  ProtocolOptions options;
  double fine = 0.0;

  crypto::KeyRegistry registry;
  std::vector<crypto::Signer> signers;  // index = processor
  common::Rng rng{1};

  RunReport report;

  std::size_t n() const noexcept { return truth->size(); }

  const agents::Behavior& behavior(std::size_t i) const {
    return population->agent(i).behavior;
  }

  /// The fine that will actually be charged — zero under the ablation
  /// switch (incidents are still recorded).
  double effective_fine(double amount) const noexcept {
    return options.fines_enabled ? amount : 0.0;
  }

  void post_fine(std::size_t offender, std::size_t beneficiary,
                 double fine_amount, double reward_amount,
                 payment::TransferKind fine_kind, const std::string& memo) {
    if (!options.fines_enabled) return;
    report.ledger.post({static_cast<payment::AccountId>(offender),
                        payment::kTreasury, fine_kind, fine_amount, memo});
    if (reward_amount > 0.0) {
      report.ledger.post({payment::kTreasury,
                          static_cast<payment::AccountId>(beneficiary),
                          payment::TransferKind::kReward, reward_amount,
                          memo});
    }
  }
};

/// Phase I: bids flow from the far end toward the root. Returns false if
/// the round aborted on a substantiated grievance.
bool phase1(Round& round, std::vector<SignedClaim>& bid_claims) {
  DLS_SPAN("protocol.phase1");
  const std::size_t n = round.n();
  DLS_COUNT("protocol.msgs.bid", n);
  const net::LinearNetwork& truth = *round.truth;

  // Equivalent bids computed from the rate bids (the agents' inputs).
  std::vector<double> wbar(n, 0.0);
  {
    std::vector<double> w(n);
    w[0] = truth.w(0);
    for (std::size_t i = 1; i < n; ++i) {
      w[i] = round.population->agent(i).bid();
    }
    wbar[n - 1] = w[n - 1];
    for (std::size_t i = n - 1; i-- > 0;) {
      wbar[i] = dlt::pair_equivalent_w(w[i], truth.z(i + 1), wbar[i + 1]);
    }
  }

  bid_claims.assign(n, SignedClaim{});
  for (std::size_t i = 0; i < n; ++i) {
    Claim claim{ClaimKind::kEquivalentBid, static_cast<crypto::AgentId>(i),
                round.options.round, wbar[i]};
    bid_claims[i] = crypto::make_signed(round.signers[i], claim);
  }

  // Deviation (i): a contradictor sends its predecessor two different
  // signed bids. The predecessor submits both to the root, which checks
  // the signatures and the contradiction and fines the sender.
  for (std::size_t i = n; i-- > 1;) {
    if (!round.behavior(i).contradictory_messages) continue;
    Claim other{ClaimKind::kEquivalentBid, static_cast<crypto::AgentId>(i),
                round.options.round, wbar[i] * 1.05};
    const SignedClaim duplicate =
        crypto::make_signed(round.signers[i], other);
    const bool valid_pair = crypto::verify(round.registry, bid_claims[i]) &&
                            crypto::verify(round.registry, duplicate) &&
                            crypto::contradicts(bid_claims[i], duplicate);
    Incident incident;
    incident.kind = Incident::Kind::kContradictoryMessages;
    incident.accused = i;
    incident.reporter = i - 1;
    incident.substantiated = valid_pair;
    incident.fine = round.effective_fine(round.fine);
    incident.detail = "two signed Phase I bids with different values";
    round.report.incidents.push_back(incident);
    round.post_fine(i, i - 1, round.fine, round.fine,
                    payment::TransferKind::kFine, "phase I contradiction");
    round.report.aborted = true;
    round.report.abort_reason =
        "substantiated contradictory messages from P" + std::to_string(i);
    return false;
  }

  // Deviation (v): a false accuser fabricates a contradiction claim
  // against its predecessor. The forged second message cannot carry a
  // valid signature (the accuser lacks SK_{i-1}), so the root exculpates
  // the accused and fines the accuser (Lemma 5.2).
  for (std::size_t i = 1; i < n; ++i) {
    if (!round.behavior(i).false_accusation) continue;
    const std::size_t accused = i - 1;
    Claim fabricated{ClaimKind::kEquivalentBid,
                     static_cast<crypto::AgentId>(accused),
                     round.options.round, wbar[accused] * 1.1};
    // Signed with the accuser's own key — verification against the
    // accused's registered key must fail.
    SignedClaim forged = crypto::make_signed(round.signers[i], fabricated);
    forged.signer = static_cast<crypto::AgentId>(accused);
    const bool substantiated = crypto::verify(round.registry, forged);
    Incident incident;
    incident.kind = Incident::Kind::kFalseAccusation;
    incident.accused = accused;
    incident.reporter = i;
    incident.substantiated = substantiated;  // always false: forgery fails
    incident.fine = round.effective_fine(round.fine);
    incident.detail = "fabricated contradiction evidence";
    round.report.incidents.push_back(incident);
    if (!substantiated) {
      round.post_fine(i, accused, round.fine, round.fine,
                      payment::TransferKind::kFine,
                      "false accusation exculpated");
    }
  }
  return true;
}

/// Phase II: allocation messages travel from the root outward; every
/// recipient verifies signatures and arithmetic. Returns false on abort.
bool phase2(Round& round, const std::vector<SignedClaim>& bid_claims) {
  DLS_SPAN("protocol.phase2");
  const std::size_t n = round.n();
  DLS_COUNT("protocol.msgs.allocation", n - 1);
  const net::LinearNetwork& truth = *round.truth;
  const dlt::LinearSolution& sol = round.report.solution;

  // Received-load fractions D_j and rate-bid claims, signed by the
  // processor that computes/knows them.
  std::vector<SignedClaim> d_claims(n);
  std::vector<SignedClaim> w_claims(n);
  std::vector<double> d_value(n);
  for (std::size_t j = 0; j < n; ++j) {
    d_value[j] = sol.received[j];
    // Deviation (ii): a miscomputing P_{j-1} corrupts the D_j it signs
    // for its successor (claiming to ship less than the algorithm
    // prescribes, so it can keep a lighter share).
    const std::size_t signer = j == 0 ? 0 : j - 1;
    double value = d_value[j];
    if (j >= 1 && signer >= 1 &&
        round.behavior(signer).miscompute_allocation) {
      value *= 0.9;  // ships 10% less than the algorithm prescribes
      d_value[j] = value;
    }
    d_claims[j] = crypto::make_signed(
        round.signers[signer],
        Claim{ClaimKind::kReceivedLoad, static_cast<crypto::AgentId>(j),
              round.options.round, value});
    const double w_j =
        j == 0 ? truth.w(0) : round.population->agent(j).bid();
    w_claims[j] = crypto::make_signed(
        round.signers[j],
        Claim{ClaimKind::kBidRate, static_cast<crypto::AgentId>(j),
              round.options.round, w_j});
  }

  for (std::size_t i = 1; i < n; ++i) {
    AllocationMessage g;
    g.received_pred = d_claims[i - 1];
    g.received_self = d_claims[i];
    g.equiv_bid_pred = bid_claims[i - 1];
    g.rate_bid_pred = w_claims[i - 1];
    g.equiv_bid_self = bid_claims[i];

    // Ship G_i through the wire format — the recipient verifies what
    // came off the wire, not the sender's in-memory object.
    const AllocationMessage received =
        decode_allocation_message(encode_allocation_message(g));

    const VerificationResult check = verify_allocation_message(
        round.registry, received, i, truth.z(i), bid_claims[i],
        round.options.round);
    if (check.ok) continue;
    // An honest P_i files the grievance; a deviant recipient would stay
    // silent about its own corruption, but the corrupted value here was
    // produced by the *predecessor*, so the victim always reports.
    const std::size_t accused = i - 1;
    // Root re-runs the arithmetic to substantiate.
    const bool substantiated = true;  // evidence is the signed G_i itself
    Incident incident;
    incident.kind = Incident::Kind::kMiscomputation;
    incident.accused = accused;
    incident.reporter = i;
    incident.substantiated = substantiated;
    incident.fine = round.effective_fine(round.fine);
    incident.detail = check.failure;
    round.report.incidents.push_back(incident);
    round.post_fine(accused, i, round.fine, round.fine,
                    payment::TransferKind::kFine, "phase II miscomputation");
    round.report.aborted = true;
    round.report.abort_reason = "substantiated Phase II grievance against P" +
                                std::to_string(accused) + ": " +
                                check.failure;
    return false;
  }
  return true;
}

/// Phase III: load distribution and computation through the simulator,
/// with Λ tokens proving received amounts.
void phase3(Round& round) {
  DLS_SPAN("protocol.phase3");
  const std::size_t n = round.n();
  const net::LinearNetwork& truth = *round.truth;
  const dlt::LinearSolution& sol = round.report.solution;

  sim::ExecutionPlan plan;
  plan.retain_fraction.resize(n);
  plan.actual_rate.resize(n);
  plan.retain_fraction[0] = sol.alpha_hat[0];
  plan.actual_rate[0] = truth.w(0);
  for (std::size_t i = 1; i < n; ++i) {
    const agents::StrategicAgent& agent = round.population->agent(i);
    plan.retain_fraction[i] =
        sol.alpha_hat[i] * (1.0 - agent.behavior.shed_fraction);
    plan.actual_rate[i] = agent.actual_rate();
  }
  round.report.execution = sim::execute_linear(truth, plan);
  const sim::ExecutionResult& exec = *round.report.execution;
  round.report.makespan = exec.makespan;

  // Λ tokens: mirror the simulated flow in block counts. Λ_i witnesses
  // everything P_i received (footnote 1), so each processor keeps a copy
  // of the batch that arrived before splitting off the forwarded part.
  TokenAuthority authority(round.options.blocks_per_unit, round.rng);
  TokenBatch pool = authority.issue_unit_load();
  std::vector<TokenBatch> lambda(n);
  for (std::size_t i = 0; i < n; ++i) {
    lambda[i] = pool;  // Λ_i: the full received batch
    if (i + 1 < n) {
      const std::size_t keep =
          std::min(authority.to_blocks(exec.computed[i]), pool.blocks());
#if DLS_CHECK_LEVEL >= 2
      // Token rule: retained + forwarded must partition the received
      // batch in order, with every identifier genuinely issued.
      const TokenBatch kept = pool.take_front(keep);
      check::check_token_split(authority, lambda[i], kept, pool);
#else
      pool.take_front(keep);  // retained blocks stay; the rest forwards
#endif
    }
  }

  // Grievances: the first processor that received more load than the
  // published D_i reports its predecessor. (Downstream overloads are a
  // consequence of the same deviation; the root attributes them all to
  // the original offender and sizes the fine accordingly.)
  const double tol =
      2.0 / static_cast<double>(round.options.blocks_per_unit);
  for (std::size_t i = 1; i < n; ++i) {
    const double planned = sol.received[i];
    const double actual = exec.received[i];
    if (actual <= planned + tol) continue;
    // A colluding successor swallows the overload silently — the
    // grievance (and the fine) never reaches the root.
    if (round.behavior(i).suppress_grievance) continue;
    const std::size_t offender = i - 1;
    // The victim proves receipt with its token batch Λ_i; the root
    // validates every identifier against the issue log.
    DLS_REQUIRE(authority.validate(lambda[i]),
                "victim's token batch must validate");
    const std::size_t received_blocks = lambda[i].blocks();
    double extra_cost = 0.0;
    for (std::size_t j = i; j < n; ++j) {
      const double extra = exec.computed[j] - sol.alpha[j];
      if (extra > 0.0) extra_cost += extra * plan.actual_rate[j];
    }
    Incident incident;
    incident.kind = Incident::Kind::kLoadShedding;
    incident.accused = offender;
    incident.reporter = i;
    incident.substantiated = true;
    incident.fine = round.effective_fine(round.fine + extra_cost);
    std::ostringstream detail;
    detail << "received " << actual << " (" << received_blocks
           << " blocks) against published D_" << i << " = " << planned;
    incident.detail = detail.str();
    round.report.incidents.push_back(incident);
    round.post_fine(offender, i, round.fine + extra_cost, round.fine,
                    payment::TransferKind::kFine, "phase III load shedding");
    break;
  }

  // Data corruption (Theorem 5.2): not fined, but the solution is lost.
  for (std::size_t i = 1; i < n; ++i) {
    if (!round.behavior(i).corrupt_data) continue;
    round.report.solution_found = false;
    Incident incident;
    incident.kind = Incident::Kind::kDataCorruption;
    incident.accused = i;
    incident.reporter = 0;
    incident.substantiated = true;
    incident.fine = 0.0;
    incident.detail = "forwarded corrupted data; solution unverifiable";
    round.report.incidents.push_back(incident);
  }
}

/// Phase IV: metering, payment computation, billing and audits.
void phase4(Round& round) {
  DLS_SPAN("protocol.phase4");
  const std::size_t n = round.n();
  DLS_COUNT("protocol.msgs.meter", n);
  const net::LinearNetwork& truth = *round.truth;
  const sim::ExecutionResult& exec = *round.report.execution;

  // Metered actual rates (dsm_0(w̃_i)).
  const TamperProofMeter meter(round.signers[0], round.options.round);
  std::vector<double> declared(n);
  declared[0] = truth.w(0);
  for (std::size_t i = 1; i < n; ++i) {
    declared[i] = round.population->agent(i).bid();
  }
  const std::vector<SignedClaim> metered = meter.read_all(exec, declared);
  std::vector<double> actual_rates(n);
  for (std::size_t i = 0; i < n; ++i) {
    DLS_REQUIRE(crypto::verify(round.registry, metered[i]),
                "meter claims must verify");
    actual_rates[i] = metered[i].claim.value;
  }

  // The bid network the allocation was computed from.
  std::vector<double> w(n);
  w[0] = truth.w(0);
  for (std::size_t i = 1; i < n; ++i) {
    w[i] = round.population->agent(i).bid();
  }
  const net::LinearNetwork bid_network(
      std::move(w), {truth.link_times().begin(), truth.link_times().end()});

  round.report.assessment = core::assess_dls_lbl(
      bid_network, actual_rates, exec.computed, round.options.mechanism,
      round.report.solution_found);

  // Billing: every strategic processor submits Q_j (+ any overcharge);
  // the root audits each bill with probability q.
  const double q = round.options.mechanism.audit_probability;
  for (std::size_t j = 1; j < n; ++j) {
    const core::Assessment& a = round.report.assessment.processors[j];
    const double correct = a.money.payment;
    const double overcharge = round.behavior(j).overcharge;
    const double billed = correct + overcharge;
    double paid = billed;
    if (round.rng.bernoulli(q)) {
      // Proof_j is requested. An honest bill verifies; an inflated one
      // cannot be backed by the signed claims and costs F/q.
      if (billed > correct + 1e-9) {
        paid = correct;
        Incident incident;
        incident.kind = Incident::Kind::kOvercharge;
        incident.accused = j;
        incident.reporter = 0;
        incident.substantiated = true;
        incident.fine = round.effective_fine(round.fine / q);
        incident.detail = "billed " + std::to_string(billed) +
                          ", provable " + std::to_string(correct);
        round.report.incidents.push_back(incident);
        round.post_fine(j, 0, round.fine / q, 0.0,
                        payment::TransferKind::kAuditPenalty,
                        "phase IV overcharge");
      }
    }
    if (paid > 0.0) {
      round.report.ledger.post({payment::kTreasury,
                                static_cast<payment::AccountId>(j),
                                payment::TransferKind::kCompensation, paid,
                                "Q_" + std::to_string(j)});
    } else if (paid < 0.0) {
      // A negative payment (possible for heavy deviants whose bonus went
      // negative) flows back to the treasury.
      round.report.ledger.post({static_cast<payment::AccountId>(j),
                                payment::kTreasury,
                                payment::TransferKind::kCompensation, -paid,
                                "Q_" + std::to_string(j)});
    }
  }
  // The obedient root is reimbursed its cost.
  const double root_cost =
      round.report.assessment.processors[0].money.compensation;
  if (root_cost > 0.0) {
    round.report.ledger.post({payment::kTreasury, 0,
                              payment::TransferKind::kCompensation,
                              root_cost, "root reimbursement"});
  }
}

void finalize(Round& round) {
  DLS_SPAN("protocol.finalize");
  const std::size_t n = round.n();
  round.report.processors.assign(n, ProcessorReport{});
  for (std::size_t i = 0; i < n; ++i) {
    ProcessorReport& p = round.report.processors[i];
    p.index = i;
    p.true_rate = round.truth->w(i);
    p.bid_rate =
        i == 0 ? round.truth->w(0) : round.population->agent(i).bid();
    if (!round.report.aborted) {
      const core::Assessment& a = round.report.assessment.processors[i];
      p.actual_rate = a.actual_rate;
      p.assigned = a.alpha;
      p.computed = a.computed;
      p.valuation = a.money.valuation;
    }
  }
  // Fines and rewards from the incident list.
  for (const auto& inc : round.report.incidents) {
    const std::size_t loser = inc.substantiated ? inc.accused : inc.reporter;
    const std::size_t winner = inc.substantiated ? inc.reporter : inc.accused;
    if (inc.fine > 0.0) {
      round.report.processors[loser].fines += inc.fine;
      if (inc.kind != Incident::Kind::kOvercharge) {
        // Overcharge penalties go to the treasury, not a reporter.
        round.report.processors[winner].rewards += round.fine;
      }
    }
  }
  // Payments actually made (ledger truth).
  for (std::size_t i = 1; i < n; ++i) {
    round.report.processors[i].payment = round.report.ledger.net_of_kind(
        static_cast<payment::AccountId>(i),
        payment::TransferKind::kCompensation);
  }
  for (std::size_t i = 0; i < n; ++i) {
    ProcessorReport& p = round.report.processors[i];
    p.utility = p.valuation + p.payment - p.fines + p.rewards;
  }
  // The obedient root's utility is zero by construction (4.3).
  round.report.processors[0].utility = 0.0;
}

}  // namespace

RunReport run_protocol(const net::LinearNetwork& true_network,
                       const agents::Population& population,
                       const ProtocolOptions& options) {
  const std::size_t n = true_network.size();
  DLS_REQUIRE(n >= 2, "the protocol needs at least one strategic worker");
  DLS_REQUIRE(population.size() == n - 1,
              "population must cover every non-root processor");
  DLS_SPAN_ARGS("protocol.run", "{\"m\":" + std::to_string(n - 1) +
                                    ",\"round\":" +
                                    std::to_string(options.round) + "}");
  DLS_COUNT("protocol.rounds");

  Round round;
  round.truth = &true_network;
  round.population = &population;
  round.options = options;
  round.rng = common::Rng(options.seed);
  round.report.round = options.round;

  // PKI enrolment.
  round.signers.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    round.signers.push_back(
        round.registry.enroll(static_cast<crypto::AgentId>(i), round.rng));
    round.report.ledger.open_account(static_cast<payment::AccountId>(i));
  }

  // The bid network and the published allocation.
  {
    std::vector<double> w(n);
    w[0] = true_network.w(0);
    for (std::size_t i = 1; i < n; ++i) {
      w[i] = population.agent(i).bid();
      round.report.bids.push_back(w[i]);
    }
    const net::LinearNetwork bid_network(
        std::move(w), {true_network.link_times().begin(),
                       true_network.link_times().end()});
    DLS_SPAN("protocol.solve");
    round.report.solution = dlt::solve_linear_boundary(bid_network);
    round.fine = options.mechanism.fine;
    if (options.auto_size_fine) {
      round.fine = std::max(round.fine,
                            core::cheating_profit_bound(bid_network) + 1.0);
    }
  }

  // The phase tracker enforces the paper's message order: strictly
  // forward through I -> II -> III -> IV, with the substantiated-
  // grievance abort as the only legal shortcut.
  check::PhaseOrderChecker phases;
  std::vector<SignedClaim> bid_claims;
  phases.advance(check::ProtocolPhase::kBids);
  if (phase1(round, bid_claims)) {
    phases.advance(check::ProtocolPhase::kAllocation);
    if (phase2(round, bid_claims)) {
      phases.advance(check::ProtocolPhase::kExecution);
      phase3(round);
      phases.advance(check::ProtocolPhase::kSettlement);
      phase4(round);
    }
  }
  phases.advance(check::ProtocolPhase::kDone);
  finalize(round);
  if constexpr (obs::compiled(1)) {
    if (obs::active()) {
      if (round.report.aborted) {
        obs::MetricsRegistry::global().counter("protocol.aborts").add();
      }
      // Incident kinds are dynamic, so the static-cache DLS_COUNT form
      // does not apply; one registry lookup per incident is fine here.
      for (const auto& inc : round.report.incidents) {
        obs::MetricsRegistry::global()
            .counter("protocol.incidents." + to_string(inc.kind))
            .add();
      }
    }
  }
  // Money is conserved across every account including the treasury —
  // fines, rewards and payments are all double-entry.
  if constexpr (check::enabled(1)) {
    check::check_ledger_conservation(round.report.ledger);
  }
  return round.report;
}

}  // namespace dls::protocol
