// The distributed mechanism for star networks — the protocol-level
// realisation of the DLS-star analogue (core/dls_star.hpp), mirroring
// the companion bus/tree mechanisms [9, 14].
//
// The star topology simplifies the chain protocol considerably:
//  * Phase I: every worker signs its rate bid and sends it straight to
//    the root — no relaying, so the only message deviation left is
//    sending the root two contradictory signed bids;
//  * Phase II: the (obedient) root computes the allocation and echoes
//    each worker's signed bid back with its share — workers verify the
//    echo; there is no miscomputation case because only the root
//    computes allocations;
//  * Phase III: execution through the event-driven star executor; load
//    shedding is impossible (nobody forwards), leaving slow execution
//    (metered) and data corruption (solution bonus) as the execution
//    deviations;
//  * Phase IV: billing with probabilistic audits, exactly as in the
//    chain protocol.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "agents/agent.hpp"
#include "core/dls_star.hpp"
#include "net/networks.hpp"
#include "payment/ledger.hpp"
#include "protocol/runner.hpp"
#include "sim/star_execution.hpp"

namespace dls::protocol {

struct StarRunReport {
  bool aborted = false;
  std::string abort_reason;

  std::vector<double> bids;  ///< w_1..w_m as submitted
  core::DlsStarResult assessment;
  std::optional<sim::StarExecutionResult> execution;
  std::vector<ProcessorReport> workers;  ///< index 0 = root (utility 0)
  std::vector<Incident> incidents;
  payment::Ledger ledger;
  bool solution_found = true;
  double makespan = 0.0;
};

/// Runs one round on the star. `true_network` carries the true rates;
/// `population` has one strategic agent per worker (indices 1..m map to
/// workers 0..m-1). Chain-only behaviours (load shedding, miscomputed
/// allocations, grievance suppression) are rejected.
StarRunReport run_star_protocol(const net::StarNetwork& true_network,
                                const agents::Population& population,
                                const ProtocolOptions& options);

}  // namespace dls::protocol
