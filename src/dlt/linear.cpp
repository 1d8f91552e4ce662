#include "dlt/linear.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "check/solver_invariants.hpp"
#include "common/discipline.hpp"
#include "common/error.hpp"
#include "common/tolerance.hpp"
#include "obs/obs.hpp"

namespace dls::dlt {

double pair_alpha_hat(double w_front, double z, double tail_w) {
  DLS_REQUIRE(w_front > 0.0 && z > 0.0 && tail_w > 0.0,
              "pair_alpha_hat requires positive rates");
  return (tail_w + z) / (w_front + tail_w + z);
}

double pair_equivalent_w(double w_front, double z, double tail_w) {
  return pair_alpha_hat(w_front, z, tail_w) * w_front;
}

double pair_realized_w(double alpha_hat, double w_front, double z,
                       double tail_actual_w) {
  DLS_REQUIRE(alpha_hat >= 0.0 && alpha_hat <= 1.0,
              "alpha_hat must be a fraction");
  return std::max(alpha_hat * w_front,
                  (1.0 - alpha_hat) * (z + tail_actual_w));
}

DLS_HOT_NOALLOC
void solve_linear_boundary_into(const net::LinearNetwork& network,
                                LinearSolution& out, bool want_steps) {
  const std::size_t n = network.size();
  DLS_SPAN_ARGS("solve.reduce", "{\"m\":" + std::to_string(n) + "}");
  DLS_COUNT("solver.solves");
  out.alpha.assign(n, 0.0);
  out.alpha_hat.assign(n, 0.0);
  out.equivalent_w.assign(n, 0.0);
  out.received.assign(n, 0.0);
  out.steps.clear();

  // Steps 1-6 of Algorithm 1: collapse from the far end toward the root.
  out.alpha_hat[n - 1] = 1.0;
  out.equivalent_w[n - 1] = network.w(n - 1);
  if (want_steps) out.steps.reserve(n - 1);
  for (std::size_t i = n - 1; i-- > 0;) {
    DLS_SPAN_DETAIL("solve.reduce.step");
    const double tail_w = out.equivalent_w[i + 1];
    const double link_z = network.z(i + 1);
    const double ah = pair_alpha_hat(network.w(i), link_z, tail_w);
    out.alpha_hat[i] = ah;
    out.equivalent_w[i] = ah * network.w(i);  // eq. (2.4)
    if (want_steps) {
      out.steps.push_back(
          ReductionStep{i, ah, out.equivalent_w[i], tail_w, link_z});
    }
  }

  // Steps 7-10: unroll local fractions into global ones.
  double remaining = 1.0;
  for (std::size_t i = 0; i < n; ++i) {
    out.received[i] = remaining;
    out.alpha[i] = remaining * out.alpha_hat[i];
    remaining *= (1.0 - out.alpha_hat[i]);
  }
  out.makespan = out.equivalent_w[0];

  // Debug/CI builds audit every solve against the Sect. 2 closed forms
  // (Theorem 2.1 equal finish times, Σα = 1, the collapse equations).
  if constexpr (check::enabled(2)) {
    check::check_linear_solution(network, out);
  }
}

LinearSolution solve_linear_boundary(const net::LinearNetwork& network) {
  LinearSolution sol;
  solve_linear_boundary_into(network, sol, /*want_steps=*/true);
  return sol;
}

DLS_HOT_NOALLOC
const LinearSolution& solve_linear_boundary(const net::LinearNetwork& network,
                                            LinearSolverWorkspace& ws,
                                            bool want_steps) {
  solve_linear_boundary_into(network, ws.solution, want_steps);
  return ws.solution;
}

DLS_HOT_NOALLOC
void finish_times_into(const net::LinearNetwork& network,
                       std::span<const double> alpha,
                       std::vector<double>& out) {
  const std::size_t n = network.size();
  DLS_REQUIRE(alpha.size() == n, "allocation size must match network");
  double total = 0.0;
  for (const double a : alpha) {
    DLS_REQUIRE(a >= 0.0, "allocation fractions must be non-negative");
    total += a;
  }
  DLS_REQUIRE(total <= 1.0 + 1e-9, "allocation exceeds the unit load");

  out.assign(n, 0.0);
  out[0] = alpha[0] * network.w(0);  // eq. (2.1)
  double assigned = alpha[0];
  double arrival = 0.0;  // Σ_{k=1..j} D_k z_k so far
  for (std::size_t j = 1; j < n; ++j) {
    const double transiting = 1.0 - assigned;  // D_j
    arrival += transiting * network.z(j);
    out[j] = alpha[j] > 0.0 ? arrival + alpha[j] * network.w(j) : 0.0;
    assigned += alpha[j];
  }
}

std::vector<double> finish_times(const net::LinearNetwork& network,
                                 std::span<const double> alpha) {
  std::vector<double> t;
  finish_times_into(network, alpha, t);
  return t;
}

double makespan(const net::LinearNetwork& network,
                std::span<const double> alpha) {
  const std::vector<double> t = finish_times(network, alpha);
  return *std::max_element(t.begin(), t.end());
}

double finish_time_spread(const net::LinearNetwork& network,
                          std::span<const double> alpha) {
  const std::vector<double> t = finish_times(network, alpha);
  double lo = std::numeric_limits<double>::infinity();
  double hi = 0.0;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (alpha[i] <= 0.0) continue;  // non-participants finish "at 0"
    lo = std::min(lo, t[i]);
    hi = std::max(hi, t[i]);
  }
  if (!std::isfinite(lo)) return 0.0;  // nobody participates
  return common::relative_error(lo, hi);
}

}  // namespace dls::dlt
