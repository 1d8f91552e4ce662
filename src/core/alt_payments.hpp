// Alternative payment rules for the payment-rule shootout
// (bench_payment_shootout): two natural competitors to the paper's bonus
// (4.9), each broken in an instructive way.
//
//  * PAPER-VCG ("VCG on paper"): B_j = T_{-j}(bids) − T(bids), the
//    textbook marginal-contribution payment computed entirely from bids
//    (T_{-j} = optimal makespan with P_j as pure relay). Without
//    verification a processor can inflate its marginal contribution by
//    *underbidding* — claiming to be fast makes T(bids) small on paper —
//    so truth-telling is NOT optimal.
//  * COST-PLUS: Q_j = α_j w̃_j + φ, metered cost plus a flat fee. Utility
//    is φ regardless of the bid, so agents are indifferent — bids carry
//    no information, the allocation is computed from noise, and the
//    schedule's efficiency collapses even though nobody "cheats".
//
// The DLS-LBL bonus is exactly the VCG idea made verification-aware: the
// marginal contribution is re-evaluated at the metered actual rate, which
// restores the truthful peak (see core/payment_rules.hpp).
#pragma once

#include <span>

#include "net/networks.hpp"

namespace dls::core {

/// A processor's utility under the paper-VCG rule when it bids `bid`,
/// executes at `actual_rate`, and everyone else is truthful and
/// compliant. Compensation covers metered cost, so U = B^VCG(bids).
double paper_vcg_utility_under_bid(const net::LinearNetwork& true_network,
                                   std::size_t index, double bid,
                                   double actual_rate);

/// Optimal makespan of the bid chain with processor `index` reduced to a
/// pure relay (its rate pushed beyond usefulness) — the T_{-j} of the
/// VCG rule. For the root or a single-worker chain this is the rest of
/// the chain doing everything.
double makespan_without(const net::LinearNetwork& bid_network,
                        std::size_t index);

}  // namespace dls::core
