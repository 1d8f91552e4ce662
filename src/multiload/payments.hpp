// Per-load DLS-LBL payments for multi-load schedules.
//
// The paper's mechanism (Sect. 4) prices one unit load; a multi-load
// round prices each load separately so every client is billed for its
// own traffic and every processor is paid per load it computed. The
// payment rules are linear in the load size — α, V, C, E, B all scale
// with the units processed — except the flat Theorem 5.2 solution
// bonus, which is a fixed reward per verified solution. So one unit
// assessment of the bid network (core::assess_compliant) prices every
// load: Q_j(load) = size · (Q_j(unit) − S) + S.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/dls_lbl.hpp"
#include "multiload/types.hpp"
#include "net/networks.hpp"

namespace dls::multiload {

/// Monetary outcome of one load, per processor (index 0..m; the root's
/// payment entry is 0, its compensation is the mechanism's
/// reimbursement of the root's own compute cost).
struct LoadPayments {
  std::uint64_t load_id = 0;
  double size = 0.0;
  std::vector<double> payment;        ///< size-scaled Q_j
  std::vector<double> compensation;   ///< size-scaled C_j
  std::vector<double> bonus;          ///< size-scaled B_j
  std::vector<double> solution_bonus; ///< flat S per processor (unscaled)
  double total_payment = 0.0;         ///< Σ_{j>=1} payment[j]
  double mechanism_cost = 0.0;        ///< total + root reimbursement
};

/// The shared unit assessment plus its per-load scalings.
struct MultiLoadAssessment {
  core::DlsLblResult unit;  ///< assess_compliant on the bid network
  std::vector<LoadPayments> loads;  ///< one entry per input load
  double total_payment = 0.0;
  double mechanism_cost = 0.0;
};

/// Prices every load of a multi-load round with ONE unit assessment
/// (reused via `ws` when provided). `actual_rates` are the metered
/// rates, as in core::assess_compliant.
MultiLoadAssessment assess_loads(const net::LinearNetwork& bid_network,
                                 std::span<const double> actual_rates,
                                 const std::vector<LoadSpec>& loads,
                                 const core::MechanismConfig& config);

MultiLoadAssessment assess_loads(const net::LinearNetwork& bid_network,
                                 std::span<const double> actual_rates,
                                 const std::vector<LoadSpec>& loads,
                                 const core::MechanismConfig& config,
                                 core::AssessWorkspace& ws);

}  // namespace dls::multiload
