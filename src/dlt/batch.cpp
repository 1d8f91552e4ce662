#include "dlt/batch.hpp"

#include <algorithm>
#include <string>

#include "check/solver_invariants.hpp"
#include "common/discipline.hpp"
#include "common/error.hpp"
#include "dlt/batch_kernels.hpp"
#include "obs/obs.hpp"

namespace dls::dlt {

bool batch_simd_compiled() noexcept {
#if DLS_LANE_AVX2_CLONE || defined(__aarch64__)
  return true;
#else
  return false;
#endif
}

bool batch_simd_available() noexcept {
#if DLS_LANE_AVX2_CLONE
  static const bool have = __builtin_cpu_supports("avx2") != 0;
  return have;
#else
  return batch_simd_compiled();
#endif
}

namespace {

/// Cold failure path of BatchLinearSolver::solve, kept out of the
/// annotated hot function so the formatted message's string building is
/// a named, waivable call (see common/discipline.hpp).
[[noreturn]] void throw_lanes_unfilled(std::size_t filled,
                                       std::size_t lanes) {
  throw PreconditionError("every lane must be set before solving (filled " +
                          std::to_string(filled) + " of " +
                          std::to_string(lanes) + ")");
}

}  // namespace

void BatchLinearSolver::reserve(std::size_t processors, std::size_t lanes) {
  const std::size_t cells = processors * lanes;
  const std::size_t link_cells = processors > 0 ? (processors - 1) * lanes : 0;
  w_stage_.reserve(cells);
  z_stage_.reserve(link_cells);
  row_w_.reserve(lanes);
  row_z_.reserve(lanes);
  alpha_.reserve(cells);
  alpha_hat_.reserve(cells);
  equivalent_w_.reserve(cells);
  received_.reserve(cells);
  tail_.reserve(lanes);
  remaining_.reserve(lanes);
  lane_filled_.reserve(lanes);
}

void BatchLinearSolver::begin(std::size_t processors, std::size_t lanes) {
  DLS_REQUIRE(processors >= 1, "a chain needs at least one processor");
  DLS_REQUIRE(lanes >= 1, "a batch needs at least one lane");
  processors_ = processors;
  lanes_ = lanes;
  solved_ = false;
  const std::size_t cells = processors * lanes;
  w_stage_.resize(cells);
  z_stage_.resize((processors - 1) * lanes);
  row_w_.resize(lanes);
  row_z_.resize(lanes);
  alpha_.resize(cells);
  alpha_hat_.resize(cells);
  equivalent_w_.resize(cells);
  received_.resize(cells);
  tail_.resize(lanes);
  remaining_.resize(lanes);
  lane_filled_.assign(lanes, 0);
  filled_count_ = 0;
}

void BatchLinearSolver::set_instance(std::size_t lane,
                                     std::span<const double> w,
                                     std::span<const double> z) {
  DLS_REQUIRE(lane < lanes_, "lane index out of range");
  DLS_REQUIRE(w.size() == processors_,
              "instance must match the batch chain length");
  DLS_REQUIRE(z.size() + 1 == processors_,
              "a chain needs one link per non-root processor");
  net::LinearNetwork::validate(w, z);
  std::copy(w.begin(), w.end(), w_stage_.begin() + lane * processors_);
  std::copy(z.begin(), z.end(), z_stage_.begin() + lane * (processors_ - 1));
  if (lane_filled_[lane] == 0) {
    lane_filled_[lane] = 1;
    ++filled_count_;
  }
}

void BatchLinearSolver::set_instance(std::size_t lane,
                                     const net::LinearNetwork& network) {
  // A LinearNetwork validated sizes and positivity at construction, so
  // this overload is a pair of straight copies — it matters on the
  // serve path, where per-element re-validation of a large batch costs
  // a measurable slice of the whole solve.
  DLS_REQUIRE(lane < lanes_, "lane index out of range");
  DLS_REQUIRE(network.size() == processors_,
              "instance must match the batch chain length");
  const std::span<const double> w = network.processing_times();
  const std::span<const double> z = network.link_times();
  std::copy(w.begin(), w.end(), w_stage_.begin() + lane * processors_);
  std::copy(z.begin(), z.end(), z_stage_.begin() + lane * (processors_ - 1));
  if (lane_filled_[lane] == 0) {
    lane_filled_[lane] = 1;
    ++filled_count_;
  }
}

DLS_HOT_NOALLOC
void BatchLinearSolver::solve() {
  if (filled_count_ != lanes_) throw_lanes_unfilled(filled_count_, lanes_);
  const std::size_t n = processors_;
  const std::size_t k = lanes_;
  DLS_SPAN_ARGS("solve.batch", "{\"m\":" + std::to_string(n) +
                                   ",\"k\":" + std::to_string(k) + "}");
  DLS_COUNT("solver.batch.solves");
  DLS_COUNT("solver.batch.lanes", k);

  // Steps 1-6 of Algorithm 1 across lanes: terminal seed, then collapse
  // row by row toward the root. Same arithmetic as
  // solve_linear_boundary_into, with the chain loop outside and the
  // lane loop inside each kernel. Instance data sits lane-major in the
  // staging buffers; each row is gathered into a small per-row buffer
  // just before its kernel call — the strided read set stays
  // L1-resident (consecutive rows revisit the same source cache lines)
  // and no full SoA copy of w/z is ever materialised.
  double* const tail = tail_.data();
  const double* const last_w = w_stage_.data() + (n - 1);
  for (std::size_t lane = 0; lane < k; ++lane) {
    const double w_m = last_w[lane * n];
    alpha_hat_[(n - 1) * k + lane] = 1.0;
    equivalent_w_[(n - 1) * k + lane] = w_m;
    tail[lane] = w_m;
  }
  for (std::size_t i = n - 1; i-- > 0;) {
    const double* const w_src = w_stage_.data() + i;
    const double* const z_src = z_stage_.data() + i;
    for (std::size_t lane = 0; lane < k; ++lane) {
      row_w_[lane] = w_src[lane * n];
      row_z_[lane] = z_src[lane * (n - 1)];
    }
    detail::reduce_lanes(row_w_.data(), row_z_.data(), tail,
                         alpha_hat_.data() + i * k,
                         equivalent_w_.data() + i * k, k);
  }

  // Steps 7-10: unroll local fractions into global ones, per lane.
  for (std::size_t lane = 0; lane < k; ++lane) remaining_[lane] = 1.0;
  for (std::size_t i = 0; i < n; ++i) {
    detail::unroll_lanes(alpha_hat_.data() + i * k, remaining_.data(),
                         received_.data() + i * k, alpha_.data() + i * k, k);
  }
  solved_ = true;

  if constexpr (check::enabled(1)) audit_lanes();
}

// Audit strategy, graded by DLS_CHECK_LEVEL like the scalar solver's:
//   level 2 (Debug/CI): replay EVERY lane against the scalar recurrence
//     with exact == — O(n*k), full coverage per solve.
//   level 1 (optimised builds): replay the LAST lane (the ragged tail
//     the vector loop's remainder handles — the most bug-prone spot)
//     plus one rotating lane per solve. A miscompiled kernel clone
//     corrupts all lanes uniformly, so sampling catches it immediately —
//     including the baseline clone on pre-AVX2 hosts, which CI cannot
//     run — and the cursor covers every lane across repeated solves at
//     O(2n) cost, cheap enough to leave on in production.
void BatchLinearSolver::audit_lanes() {
  const std::size_t n = processors_;
  const std::size_t k = lanes_;
  const auto audit = [&](std::size_t lane) {
    check::check_batch_lane(
        w_stage_.data() + lane * n, 1,
        n > 1 ? z_stage_.data() + lane * (n - 1) : nullptr, 1,
        alpha_.data() + lane, alpha_hat_.data() + lane,
        equivalent_w_.data() + lane, received_.data() + lane, makespan(lane),
        n, k, lane);
  };
  if constexpr (check::enabled(2)) {
    for (std::size_t lane = 0; lane < k; ++lane) audit(lane);
    return;
  }
  audit(k - 1);
  if (k > 1) {
    audit_cursor_ = (audit_cursor_ + 1) % (k - 1);
    audit(audit_cursor_);
  }
}

DLS_HOT_NOALLOC
void BatchLinearSolver::extract(std::size_t lane, LinearSolution& out) const {
  DLS_REQUIRE(solved_, "extract requires a solved batch");
  DLS_REQUIRE(lane < lanes_, "lane index out of range");
  const std::size_t n = processors_;
  out.alpha.resize(n);
  out.alpha_hat.resize(n);
  out.equivalent_w.resize(n);
  out.received.resize(n);
  out.steps.clear();
  for (std::size_t i = 0; i < n; ++i) {
    out.alpha[i] = alpha_[i * lanes_ + lane];
    out.alpha_hat[i] = alpha_hat_[i * lanes_ + lane];
    out.equivalent_w[i] = equivalent_w_[i * lanes_ + lane];
    out.received[i] = received_[i * lanes_ + lane];
  }
  out.makespan = out.equivalent_w[0];
}

}  // namespace dls::dlt
