#include "protocol/star_runner.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "crypto/signed_claim.hpp"
#include "dlt/star.hpp"
#include "protocol/meter.hpp"

namespace dls::protocol {

namespace {

using crypto::Claim;
using crypto::ClaimKind;
using crypto::SignedClaim;

double star_cheating_profit_bound(const net::StarNetwork& bids) {
  // Everything the mechanism could pay on a unit load: per worker its
  // compensation bound (its own bid) plus the bonus bound ρ_{-i} ≤ the
  // slowest single participant's completion; the root's rate bounds
  // each ρ_{-i} when it computes, otherwise use the sum of worker bids.
  double bound = 0.0;
  double rho_cap = bids.root_computes() ? bids.root_w() : 0.0;
  for (std::size_t i = 0; i < bids.workers(); ++i) {
    if (!bids.root_computes()) {
      rho_cap = std::max(rho_cap, bids.z(i) + bids.w(i));
    }
    bound += bids.w(i);
  }
  return bound + static_cast<double>(bids.workers()) * rho_cap;
}

}  // namespace

StarRunReport run_star_protocol(const net::StarNetwork& true_network,
                                const agents::Population& population,
                                const ProtocolOptions& options) {
  const std::size_t m = true_network.workers();
  DLS_REQUIRE(population.size() == m,
              "population must cover every worker");
  for (const auto& agent : population.all()) {
    const agents::Behavior& b = agent.behavior;
    DLS_REQUIRE(b.shed_fraction == 0.0 && !b.miscompute_allocation &&
                    !b.suppress_grievance,
                "behaviour not applicable to star networks");
  }

  StarRunReport report;
  common::Rng rng(options.seed);
  crypto::KeyRegistry registry;
  std::vector<crypto::Signer> signers;
  signers.reserve(m + 1);
  for (std::size_t i = 0; i <= m; ++i) {
    signers.push_back(
        registry.enroll(static_cast<crypto::AgentId>(i), rng));
    report.ledger.open_account(static_cast<payment::AccountId>(i));
  }

  // Bids and the bid network.
  std::vector<double> bid_w(m), bid_z(m);
  for (std::size_t i = 0; i < m; ++i) {
    bid_w[i] = population.agent(i + 1).bid();
    bid_z[i] = true_network.z(i);
    report.bids.push_back(bid_w[i]);
  }
  const net::StarNetwork bid_network(true_network.root_w(), bid_w, bid_z);
  double fine = options.mechanism.fine;
  if (options.auto_size_fine) {
    fine = std::max(fine, star_cheating_profit_bound(bid_network) + 1.0);
  }
  const double charged_fine = options.fines_enabled ? fine : 0.0;

  auto post_fine = [&](std::size_t offender, std::size_t beneficiary,
                       double amount, double reward,
                       payment::TransferKind kind, const char* memo) {
    if (!options.fines_enabled) return;
    report.ledger.post({static_cast<payment::AccountId>(offender),
                        payment::kTreasury, kind, amount, memo});
    if (reward > 0.0) {
      report.ledger.post({payment::kTreasury,
                          static_cast<payment::AccountId>(beneficiary),
                          payment::TransferKind::kReward, reward, memo});
    }
  };

  // --- Phase I: signed bids straight to the root. ----------------------
  std::vector<SignedClaim> bid_claims(m);
  for (std::size_t i = 0; i < m; ++i) {
    const auto id = static_cast<crypto::AgentId>(i + 1);
    bid_claims[i] = crypto::make_signed(
        signers[i + 1],
        Claim{ClaimKind::kBidRate, id, options.round, bid_w[i]});
    DLS_REQUIRE(crypto::verify(registry, bid_claims[i]),
                "freshly signed bid must verify");
  }
  for (std::size_t i = 0; i < m; ++i) {
    if (!population.agent(i + 1).behavior.contradictory_messages) continue;
    const auto id = static_cast<crypto::AgentId>(i + 1);
    const SignedClaim duplicate = crypto::make_signed(
        signers[i + 1],
        Claim{ClaimKind::kBidRate, id, options.round, bid_w[i] * 1.05});
    Incident incident;
    incident.kind = Incident::Kind::kContradictoryMessages;
    incident.accused = i + 1;
    incident.reporter = 0;  // the root itself holds the evidence
    incident.substantiated = crypto::verify(registry, duplicate) &&
                             crypto::contradicts(bid_claims[i], duplicate);
    incident.fine = charged_fine;
    incident.detail = "two signed bids with different values";
    report.incidents.push_back(incident);
    post_fine(i + 1, 0, fine, 0.0, payment::TransferKind::kFine,
              "star phase I contradiction");
    report.aborted = true;
    report.abort_reason = "contradictory bids from worker " +
                          std::to_string(i + 1);
  }
  // False accusers fabricate evidence against a neighbouring worker; the
  // forged signature fails and the accuser is fined (Lemma 5.2).
  for (std::size_t i = 0; i < m && !report.aborted; ++i) {
    if (!population.agent(i + 1).behavior.false_accusation) continue;
    const std::size_t accused = i == 0 ? std::min<std::size_t>(2, m) : i;
    SignedClaim forged = crypto::make_signed(
        signers[i + 1], Claim{ClaimKind::kBidRate,
                              static_cast<crypto::AgentId>(accused),
                              options.round, 99.0});
    forged.signer = static_cast<crypto::AgentId>(accused);
    Incident incident;
    incident.kind = Incident::Kind::kFalseAccusation;
    incident.accused = accused;
    incident.reporter = i + 1;
    incident.substantiated = crypto::verify(registry, forged);
    incident.fine = charged_fine;
    incident.detail = "fabricated contradiction evidence";
    report.incidents.push_back(incident);
    if (!incident.substantiated) {
      post_fine(i + 1, accused, fine, fine, payment::TransferKind::kFine,
                "star false accusation exculpated");
    }
  }

  if (!report.aborted) {
    // --- Phase II/III: allocation and execution. -----------------------
    const dlt::StarSolution solution = dlt::solve_star(bid_network);
    sim::StarSchedule schedule = sim::single_installment(
        bid_network, solution.alpha_root, solution.alpha, solution.order);
    // Execute at ACTUAL speeds: rebuild the star with metered-true rates
    // for the computation legs.
    std::vector<double> actual_w(m);
    for (std::size_t i = 0; i < m; ++i) {
      actual_w[i] = population.agent(i + 1).actual_rate();
    }
    const net::StarNetwork actual_network(true_network.root_w(), actual_w,
                                          bid_z);
    report.execution = sim::execute_star(actual_network, schedule);
    report.makespan = report.execution->makespan;

    // Data corruption forfeits the solution bonus (Theorem 5.2).
    for (std::size_t i = 0; i < m; ++i) {
      if (!population.agent(i + 1).behavior.corrupt_data) continue;
      report.solution_found = false;
      Incident incident;
      incident.kind = Incident::Kind::kDataCorruption;
      incident.accused = i + 1;
      incident.reporter = 0;
      incident.substantiated = true;
      incident.detail = "returned corrupted results";
      report.incidents.push_back(incident);
    }

    // --- Phase IV: metering, assessment, billing, audits. --------------
    std::vector<double> metered(m);
    for (std::size_t i = 0; i < m; ++i) {
      // The tamper-proof meter reads the true execution rate.
      metered[i] = actual_w[i];
    }
    report.assessment = core::assess_dls_star(bid_network, metered,
                                              options.mechanism);
    const double q = options.mechanism.audit_probability;
    const double s_bonus =
        options.mechanism.solution_bonus_enabled && report.solution_found
            ? options.mechanism.solution_bonus
            : 0.0;
    for (std::size_t i = 0; i < m; ++i) {
      const auto& a = report.assessment.workers[i];
      const double correct = a.payment + s_bonus;
      const double overcharge = population.agent(i + 1).behavior.overcharge;
      double paid = correct + overcharge;
      if (overcharge > 0.0 && rng.bernoulli(q)) {
        paid = correct;
        Incident incident;
        incident.kind = Incident::Kind::kOvercharge;
        incident.accused = i + 1;
        incident.reporter = 0;
        incident.substantiated = true;
        incident.fine = options.fines_enabled ? fine / q : 0.0;
        incident.detail = "billed above the provable payment";
        report.incidents.push_back(incident);
        post_fine(i + 1, 0, fine / q, 0.0,
                  payment::TransferKind::kAuditPenalty, "star overcharge");
      }
      if (paid > 0.0) {
        report.ledger.post({payment::kTreasury,
                            static_cast<payment::AccountId>(i + 1),
                            payment::TransferKind::kCompensation, paid,
                            "Q_" + std::to_string(i + 1)});
      } else if (paid < 0.0) {
        report.ledger.post({static_cast<payment::AccountId>(i + 1),
                            payment::kTreasury,
                            payment::TransferKind::kCompensation, -paid,
                            "Q_" + std::to_string(i + 1)});
      }
    }
    if (bid_network.root_computes()) {
      const double root_cost =
          report.assessment.solution.alpha_root * bid_network.root_w();
      report.ledger.post({payment::kTreasury, 0,
                          payment::TransferKind::kCompensation, root_cost,
                          "root reimbursement"});
    }
  }

  // --- Final accounting. ------------------------------------------------
  report.workers.assign(m + 1, ProcessorReport{});
  report.workers[0].index = 0;
  for (std::size_t i = 0; i < m; ++i) {
    ProcessorReport& p = report.workers[i + 1];
    p.index = i + 1;
    p.true_rate = true_network.w(i);
    p.bid_rate = bid_w[i];
    if (!report.aborted) {
      const auto& a = report.assessment.workers[i];
      p.actual_rate = a.actual_rate;
      p.assigned = a.alpha;
      p.computed = report.execution->computed[i];
      p.valuation = -p.computed * p.actual_rate;
    }
    p.payment = report.ledger.net_of_kind(
        static_cast<payment::AccountId>(i + 1),
        payment::TransferKind::kCompensation);
  }
  for (const auto& incident : report.incidents) {
    const std::size_t loser =
        incident.substantiated ? incident.accused : incident.reporter;
    const std::size_t winner =
        incident.substantiated ? incident.reporter : incident.accused;
    if (incident.fine > 0.0 && loser >= 1) {
      report.workers[loser].fines += incident.fine;
      if (incident.kind == Incident::Kind::kFalseAccusation &&
          winner >= 1) {
        report.workers[winner].rewards += charged_fine;
      }
    }
  }
  for (std::size_t i = 1; i <= m; ++i) {
    ProcessorReport& p = report.workers[i];
    p.utility = p.valuation + p.payment - p.fines + p.rewards;
  }
  report.workers[0].utility = 0.0;
  return report;
}

}  // namespace dls::protocol
