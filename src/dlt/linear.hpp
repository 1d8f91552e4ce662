// LINEAR BOUNDARY-LINEAR: optimal divisible-load allocation on a daisy
// chain with boundary load origination (Sect. 2, Algorithm 1).
//
// The solver implements the equivalent-processor reduction of eqs.
// (2.3)-(2.7): working inward from the far end of the chain, processors
// P_i and the already-reduced suffix are collapsed into one equivalent
// processor of unit time w̄_i = α̂_i w_i, where the local fraction α̂_i
// balances P_i's computation against shipping the remainder onward:
//     α̂_i w_i = (1 - α̂_i)(z_{i+1} + w̄_{i+1}).             (2.7)
// The optimal allocation makes every processor finish at the same instant
// (Theorem 2.1) and the chain's makespan equals w̄_0.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "net/networks.hpp"

namespace dls::dlt {

/// One step of the recursive reduction (Figure 3), exposed so tests and
/// the FIG3 bench can inspect the collapse sequence.
struct ReductionStep {
  std::size_t index;       ///< i: the processor absorbed in this step
  double alpha_hat;        ///< α̂_i
  double equivalent_w;     ///< w̄_i after collapsing P_i with its suffix
  double tail_w;           ///< w̄_{i+1} before the collapse
  double link_z;           ///< z_{i+1}
};

/// Full output of Algorithm 1.
struct LinearSolution {
  std::vector<double> alpha;         ///< α_i, global load fractions (Σ = 1)
  std::vector<double> alpha_hat;     ///< α̂_i, local fractions (α̂_m = 1)
  std::vector<double> equivalent_w;  ///< w̄_i of the suffix chain (P_i..P_m)
  std::vector<double> received;      ///< D_i, load arriving at P_i (D_0 = 1)
  std::vector<ReductionStep> steps;  ///< reduction trace, far end first
  double makespan = 0.0;             ///< T(α*) = w̄_0
};

/// Solves a boundary-origination chain. Throws InfeasibleError on
/// non-positive rates (via LinearNetwork's own validation).
LinearSolution solve_linear_boundary(const net::LinearNetwork& network);

/// Allocation-free core of Algorithm 1: writes into `out`, reusing its
/// buffers (no heap traffic once they have warmed to the chain size).
/// `want_steps` false skips building the reduction trace entirely —
/// Monte-Carlo loops never look at it.
void solve_linear_boundary_into(const net::LinearNetwork& network,
                                LinearSolution& out, bool want_steps = true);

/// Caller-owned reusable buffers for the solver hot path. Construct one
/// per thread (or per sweep), then every solve through it is
/// allocation-free after the first.
struct LinearSolverWorkspace {
  LinearSolution solution;  ///< reused by solve_linear_boundary
};

/// Workspace flavour of Algorithm 1; returns ws.solution. Skips the
/// reduction trace by default — pass want_steps if you need it.
const LinearSolution& solve_linear_boundary(const net::LinearNetwork& network,
                                            LinearSolverWorkspace& ws,
                                            bool want_steps = false);

/// The pairwise collapse of eq. (2.7): local fraction for a processor of
/// unit time `w_front` feeding a tail of equivalent unit time `tail_w`
/// across a link of unit time `z`. Requires positive arguments.
double pair_alpha_hat(double w_front, double z, double tail_w);

/// Equivalent unit time of the collapsed pair (= α̂ · w_front at the
/// optimum, eq. 2.4).
double pair_equivalent_w(double w_front, double z, double tail_w);

/// Realised equivalent unit time of a front/tail pair by eq. (2.3) when
/// the *allocation* was fixed by bids (α̂ = alpha_hat) but the tail in
/// fact behaves as `tail_actual_w`:
///   max(α̂ · w_front, (1-α̂) · (z + tail_actual_w)).
/// This is the w̄_{j-1}(α(bids), actuals) appearing in the bonus (4.9).
double pair_realized_w(double alpha_hat, double w_front, double z,
                       double tail_actual_w);

/// Finish times by eqs. (2.1)-(2.2) for an arbitrary allocation `alpha`
/// (not necessarily optimal): T_0 = α_0 w_0 and
///   T_j = Σ_{k=1..j} D_k z_k + α_j w_j  (0 when α_j = 0),
/// where D_k = 1 - Σ_{l<k} α_l is the load transiting link l_k.
/// Requires alpha.size() == network.size(), all entries >= 0, Σ <= 1+eps.
std::vector<double> finish_times(const net::LinearNetwork& network,
                                 std::span<const double> alpha);

/// Allocation-free flavour: writes into `out` (resized to fit, reused
/// across calls).
void finish_times_into(const net::LinearNetwork& network,
                       std::span<const double> alpha,
                       std::vector<double>& out);

/// max over finish_times.
double makespan(const net::LinearNetwork& network,
                std::span<const double> alpha);

/// Largest pairwise relative gap between finish times of *participating*
/// processors — 0 at the optimum by Theorem 2.1.
double finish_time_spread(const net::LinearNetwork& network,
                          std::span<const double> alpha);

}  // namespace dls::dlt
