// The distributed DLS-LBL protocol (Sect. 4, Phases I-IV) executed over
// the simulated chain.
//
// The runner plays every role: it lets each strategic agent produce its
// (possibly deviant) messages and execution behaviour, performs the
// neighbour-side verification a compliant processor would perform,
// routes grievances to the obedient root for arbitration, runs Phase III
// through the discrete-event simulator with the Λ token device, meters
// actual rates, computes Phase IV payments (with probabilistic bill
// audits) and settles everything on the payment ledger.
//
// The outcome of a run is a full forensic report: who was fined for
// what, what every processor's final utility is, and whether the round
// aborted (substantiated Phase I/II grievances terminate the protocol,
// as in the paper).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "agents/agent.hpp"
#include "core/dls_lbl.hpp"
#include "net/networks.hpp"
#include "payment/ledger.hpp"
#include "protocol/messages.hpp"
#include "protocol/tokens.hpp"
#include "sim/linear_execution.hpp"

namespace dls::protocol {

/// A deviation the protocol noticed, and how arbitration resolved it.
struct Incident {
  enum class Kind : std::uint8_t {
    kContradictoryMessages,  ///< Phase I/II, Lemma 5.1 case (i)
    kMiscomputation,         ///< Phase II, case (ii)
    kLoadShedding,           ///< Phase III, case (iii)
    kOvercharge,             ///< Phase IV, case (iv)
    kFalseAccusation,        ///< case (v)
    kDataCorruption,         ///< Thm 5.2 (not fined; costs the bonus S)
    kCrash,                  ///< confirmed fail-stop fault (not fined)
  };
  Kind kind{};
  std::size_t accused = 0;
  std::size_t reporter = 0;
  bool substantiated = false;  ///< did the root uphold the claim?
  double fine = 0.0;           ///< amount charged to the losing party
  std::string detail;
};

std::string to_string(Incident::Kind kind);

/// Final accounting for one processor.
struct ProcessorReport {
  std::size_t index = 0;
  double true_rate = 0.0;
  double bid_rate = 0.0;       ///< w_i it bid (root: its true rate)
  double actual_rate = 0.0;    ///< w̃_i the meter recorded
  double assigned = 0.0;       ///< α_i from the bid solution
  double computed = 0.0;       ///< α̃_i actually computed
  double valuation = 0.0;      ///< V_i
  double payment = 0.0;        ///< Q_i actually paid out (after audits)
  double fines = 0.0;          ///< fines charged
  double rewards = 0.0;        ///< reporting rewards received
  double utility = 0.0;        ///< V + Q − fines + rewards
};

struct RunReport {
  bool aborted = false;
  std::string abort_reason;
  std::uint64_t round = 0;

  std::vector<double> bids;            ///< w_1..w_m as submitted
  dlt::LinearSolution solution;        ///< Algorithm 1 on the bids
  std::optional<sim::ExecutionResult> execution;  ///< Phase III (if reached)
  core::DlsLblResult assessment;       ///< Phase IV arithmetic
  std::vector<ProcessorReport> processors;  ///< index 0..m
  std::vector<Incident> incidents;
  payment::Ledger ledger;
  bool solution_found = true;          ///< false if data was corrupted
  double makespan = 0.0;               ///< realised makespan (0 if aborted)

  const ProcessorReport& processor(std::size_t i) const {
    return processors.at(i);
  }
  /// Incidents where `i` lost money.
  double total_fines(std::size_t i) const;
};

struct ProtocolOptions {
  core::MechanismConfig mechanism;
  std::uint64_t seed = 1;              ///< audits, keys, token identifiers
  std::uint64_t round = 1;             ///< protocol round tag in claims
  std::size_t blocks_per_unit = 4096;  ///< Λ granularity
  /// When true, the fine F is raised to cheating_profit_bound() + 1 if
  /// the configured value is below it (the paper requires F to exceed
  /// any attainable cheating profit).
  bool auto_size_fine = true;

  /// ABLATION SWITCH — when false, deviations are still detected and
  /// recorded as incidents, but no fines or reporting rewards are
  /// posted. Theorem 5.1 fails without fines: load shedding becomes
  /// profitable. Keep true except in the ablation bench.
  bool fines_enabled = true;
};

/// Runs one full round. `true_network` holds the true rates t_i (w(0) is
/// the obedient root's rate) and the trusted link times; `population`
/// holds one strategic agent per non-root processor.
RunReport run_protocol(const net::LinearNetwork& true_network,
                       const agents::Population& population,
                       const ProtocolOptions& options);

}  // namespace dls::protocol
