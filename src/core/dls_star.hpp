// Mechanism analogues for bus and star networks, used as the
// cross-network baselines of experiment XNET.
//
// The authors' companion mechanisms for bus [14] and tree [9] networks
// share DLS-LBL's shape: compensate verified cost, plus a bonus that a
// processor maximises by bidding its true rate and running at capacity.
// We reconstruct that shape for the single-level star (the bus is a star
// with a shared channel): worker i's bonus is the *marginal speedup* it
// contributes, evaluated against its verified actual rate,
//   B_i = ρ_{-i}(bids) − ρ̂(α(bids), actuals),
// where ρ is the equivalent unit time of the whole star (its makespan on
// a unit load), ρ_{-i} excludes worker i, and ρ̂ keeps the bid-derived
// allocation and service order but charges worker i's computation at the
// metered rate w̃_i. ρ_{-i} does not depend on i's bid, and ρ̂ is
// minimised by truthful bidding (the bid-optimal allocation evaluated
// truthfully is the true optimum), so truth-telling maximises B_i; at
// truth B_i = ρ_{-i} − ρ >= 0, giving voluntary participation.
#pragma once

#include <span>
#include <vector>

#include "core/payment_rules.hpp"
#include "dlt/star.hpp"
#include "net/networks.hpp"

namespace dls::core {

struct StarAssessment {
  std::size_t worker = 0;   ///< worker index (0-based, network order)
  double bid_rate = 0.0;
  double actual_rate = 0.0;
  double alpha = 0.0;
  double valuation = 0.0;       ///< -α_i w̃_i
  double compensation = 0.0;    ///< α_i w̃_i
  double bonus = 0.0;           ///< ρ_{-i} − ρ̂
  double payment = 0.0;
  double utility = 0.0;
  double rho_without = 0.0;     ///< ρ_{-i}
  double rho_realized = 0.0;    ///< ρ̂ with this worker at its actual rate
};

struct DlsStarResult {
  dlt::StarSolution solution;   ///< allocation from bids
  std::vector<StarAssessment> workers;
  double total_payment = 0.0;
};

/// Runs the star mechanism arithmetic. The network carries the bid rates;
/// `actual_rates` carries w̃_i per worker. Requires either a computing
/// root or at least two workers (so ρ_{-i} exists for every i).
DlsStarResult assess_dls_star(const net::StarNetwork& bid_network,
                              std::span<const double> actual_rates,
                              const MechanismConfig& config);

}  // namespace dls::core
