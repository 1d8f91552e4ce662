#include "dlt/counterfactual.hpp"

#include <cmath>

#include "check/solver_invariants.hpp"
#include "common/discipline.hpp"
#include "common/error.hpp"
#include "dlt/batch_kernels.hpp"
#include "obs/obs.hpp"

namespace dls::dlt {

CounterfactualSolver::CounterfactualSolver(const net::LinearNetwork& network)
    : w_(network.processing_times().begin(), network.processing_times().end()),
      z_(network.link_times().begin(), network.link_times().end()),
      ah_scratch_(network.size(), 0.0) {
  solve_linear_boundary_into(network, base_, /*want_steps=*/false);
  // Debug/CI builds audit the bit-identity claim: rebidding each base
  // rate must reproduce the base solution exactly (O(n^2), once per
  // solver, so sweeps that share a solver pay it once).
  if constexpr (check::enabled(2)) {
    check::check_counterfactual_identity(*this);
  }
}

DLS_HOT_NOALLOC
CounterfactualSolver::Rebid CounterfactualSolver::rebid(std::size_t index,
                                                        double bid) {
  const std::size_t n = w_.size();
  DLS_REQUIRE(index < n, "processor index out of range");
  DLS_REQUIRE(bid > 0.0 && std::isfinite(bid),
              "bid must be finite and positive");
  // rebid() is the counterfactual hot path (ns-scale); only the detail
  // level pays for a span here, the counter is one relaxed fetch_add.
  DLS_SPAN_DETAIL("solve.rebid");
  DLS_COUNT("solver.rebids");

  Rebid r;
  r.index = index;
  r.bid = bid;

  // Collapse step for the re-bid processor itself: the suffix beyond it
  // is untouched, so its cached equivalent time feeds eq. (2.7) directly.
  if (index + 1 == n) {
    r.alpha_hat = 1.0;
    r.equivalent_w = bid;
  } else {
    r.alpha_hat =
        pair_alpha_hat(bid, z(index + 1), base_.equivalent_w[index + 1]);
    r.equivalent_w = r.alpha_hat * bid;  // eq. (2.4)
  }
  ah_scratch_[index] = r.alpha_hat;

  // Recompute the prefix 0..index-1 — identical arithmetic to the full
  // backward pass, seeded with the counterfactual tail.
  double eqw = r.equivalent_w;
  for (std::size_t i = index; i-- > 0;) {
    const double ah = pair_alpha_hat(w_[i], z(i + 1), eqw);
    ah_scratch_[i] = ah;
    eqw = ah * w_[i];
  }
  r.makespan = eqw;  // w̄_0 (= r.equivalent_w when index == 0)

  // Forward unroll only as far as the queried processor.
  double remaining = 1.0;
  for (std::size_t i = 0; i < index; ++i) remaining *= (1.0 - ah_scratch_[i]);
  r.alpha = remaining * r.alpha_hat;
  r.alpha_hat_pred = index > 0 ? ah_scratch_[index - 1] : 0.0;
  return r;
}

DLS_HOT_NOALLOC
void CounterfactualSolver::rebid_batch(std::size_t index,
                                       std::span<const double> bids,
                                       std::span<Rebid> out) {
  const std::size_t n = w_.size();
  const std::size_t k = bids.size();
  DLS_REQUIRE(index < n, "processor index out of range");
  DLS_REQUIRE(out.size() == k, "rebid_batch output size mismatch");
  if (k == 0) return;
  DLS_SPAN_ARGS("solve.rebid_batch", "{\"j\":" + std::to_string(index) +
                                         ",\"k\":" + std::to_string(k) + "}");
  DLS_COUNT("solver.rebids", k);
  DLS_COUNT("solver.batch.rebid_calls");

  batch_ah_.resize((index + 1) * k);
  batch_eqw_.resize(k);
  batch_remaining_.resize(k);

  // Collapse step for the re-bid processor itself, per lane — the
  // collapse_own_lanes kernel replicates the scalar rebid() expressions
  // with the association order preserved exactly.
  for (std::size_t lane = 0; lane < k; ++lane) {
    DLS_REQUIRE(bids[lane] > 0.0 && std::isfinite(bids[lane]),
                "bid must be finite and positive");
  }
  double* const ah_own = batch_ah_.data() + index * k;
  if (index + 1 == n) {
    for (std::size_t lane = 0; lane < k; ++lane) {
      ah_own[lane] = 1.0;
      batch_eqw_[lane] = bids[lane];
    }
  } else {
    detail::collapse_own_lanes(bids.data(), base_.equivalent_w[index + 1],
                               z(index + 1), ah_own, batch_eqw_.data(), k);
  }

  // Prefix 0..index-1 across lanes: the chain's own w/z broadcast, only
  // the equivalent tail differs per lane.
  for (std::size_t i = index; i-- > 0;) {
    detail::reduce_lanes_bcast(w_[i], z(i + 1), batch_eqw_.data(),
                               batch_ah_.data() + i * k, k);
  }

  // Forward unroll in ascending order, matching the scalar product.
  for (std::size_t lane = 0; lane < k; ++lane) batch_remaining_[lane] = 1.0;
  for (std::size_t i = 0; i < index; ++i) {
    detail::remaining_lanes(batch_ah_.data() + i * k,
                            batch_remaining_.data(), k);
  }

  const double* const ah_pred =
      index > 0 ? batch_ah_.data() + (index - 1) * k : nullptr;
  for (std::size_t lane = 0; lane < k; ++lane) {
    Rebid& r = out[lane];
    r.index = index;
    r.bid = bids[lane];
    r.alpha_hat = ah_own[lane];
    r.equivalent_w =
        index + 1 == n ? bids[lane] : ah_own[lane] * bids[lane];
    r.alpha = batch_remaining_[lane] * ah_own[lane];
    r.alpha_hat_pred = ah_pred != nullptr ? ah_pred[lane] : 0.0;
    // batch_eqw_ now holds w̄_0 per lane (= r.equivalent_w when the
    // queried processor is the root).
    r.makespan = batch_eqw_[lane];
  }
}

CounterfactualSolver::Rebid CounterfactualSolver::rebid_allocation(
    std::size_t index, double bid, std::vector<double>& alpha_out) {
  const Rebid r = rebid(index, bid);
  const std::size_t n = w_.size();
  alpha_out.assign(n, 0.0);
  double remaining = 1.0;
  for (std::size_t i = 0; i < n; ++i) {
    // α̂ comes from the rebid prefix up to `index`, from the cached base
    // solution beyond it.
    const double ah = i <= index ? ah_scratch_[i] : base_.alpha_hat[i];
    alpha_out[i] = remaining * ah;
    remaining *= (1.0 - ah);
  }
  return r;
}

}  // namespace dls::dlt
