// Incremental counterfactual re-solves of Algorithm 1.
//
// The equivalent-processor reduction of eqs. (2.4)/(2.7) collapses the
// chain from the far end toward the root, so w̄_i depends only on the
// SUFFIX (P_i..P_m). Re-bidding processor j therefore leaves every
// w̄_i with i > j untouched: only the prefix 0..j has to be recomputed.
// The strategyproofness sweeps (THM5.3, best-response dynamics) evaluate
// hundreds of bids per processor against a fixed rest-of-population —
// exactly this access pattern. Caching the base reduction turns an
// O(m)-with-allocations full solve per bid point into an O(j)
// allocation-free prefix update.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "dlt/linear.hpp"
#include "net/networks.hpp"

namespace dls::dlt {

/// Caches the suffix reduction of a base chain and answers "what if
/// processor j had bid w instead" in O(j) with zero heap allocation.
/// Holds mutable scratch — use one instance per thread.
class CounterfactualSolver {
 public:
  explicit CounterfactualSolver(const net::LinearNetwork& network);

  /// Solution entries of the counterfactual chain that differ from the
  /// base; everything with index > `index` is unchanged by construction.
  struct Rebid {
    std::size_t index = 0;
    double bid = 0.0;
    double alpha = 0.0;           ///< α_index under the new bid
    double alpha_hat = 0.0;       ///< α̂_index
    double equivalent_w = 0.0;    ///< w̄_index
    double alpha_hat_pred = 0.0;  ///< α̂_{index-1} (0 when index == 0)
    double makespan = 0.0;        ///< w̄_0 of the counterfactual chain
  };

  std::size_t size() const noexcept { return w_.size(); }
  double w(std::size_t i) const { return w_[i]; }
  /// Unit time of link l_j (P_{j-1} -> P_j), j in [1, size()-1].
  double z(std::size_t j) const { return z_[j - 1]; }

  /// Algorithm 1 on the unmodified base chain (computed once).
  const LinearSolution& base() const noexcept { return base_; }

  /// Incremental re-solve with processor `index` bidding `bid`; O(index).
  /// rebid(index, w(index)) reproduces the base solution bit-for-bit.
  /// `bid` must be finite and positive (PreconditionError otherwise).
  Rebid rebid(std::size_t index, double bid);

  /// Full allocation vector of the counterfactual chain, written into
  /// `alpha_out` (resized; reused across calls). O(size()).
  Rebid rebid_allocation(std::size_t index, double bid,
                         std::vector<double>& alpha_out);

  /// Batched rebid: out[k] = rebid(index, bids[k]) bit-for-bit, for all
  /// candidate bids in lockstep. The prefix recurrence runs across bid
  /// lanes in SoA layout (the vectorized lane kernels of
  /// batch_kernels.hpp), so a sweep of K bids costs one O(index) pass
  /// instead of K — the utility-curve hot path of
  /// CounterfactualMechanism. Requires bids.size() == out.size() and
  /// every bid finite and positive (rejected exactly as rebid() rejects
  /// it); allocation-free once scratch has warmed to the lane count.
  void rebid_batch(std::size_t index, std::span<const double> bids,
                   std::span<Rebid> out);

 private:
  std::vector<double> w_;
  std::vector<double> z_;
  LinearSolution base_;
  std::vector<double> ah_scratch_;  ///< α̂_0..α̂_index under the rebid

  // rebid_batch scratch, row-major across bid lanes: row i of
  // batch_ah_ holds α̂_i for every lane.
  std::vector<double> batch_ah_;
  std::vector<double> batch_eqw_;
  std::vector<double> batch_remaining_;
};

}  // namespace dls::dlt
