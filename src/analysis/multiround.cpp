#include "analysis/multiround.hpp"

#include <algorithm>
#include <cmath>

#include "analysis/sweep.hpp"
#include "common/error.hpp"
#include "common/optimize.hpp"
#include "dlt/star.hpp"
#include "exec/thread_pool.hpp"
#include "obs/obs.hpp"

namespace dls::analysis {

namespace {

/// Builds the R-round schedule for given root share and ratio θ: within
/// each round workers get chunks proportional to the single-round
/// optimal proportions, rounds scale as θ^r, everything normalised to
/// cover 1 − root_share.
sim::StarSchedule build_schedule(const dlt::StarSolution& base,
                                 std::size_t rounds, double root_share,
                                 double theta) {
  sim::StarSchedule schedule;
  schedule.root_share = root_share;
  double worker_total = 0.0;
  for (const double a : base.alpha) worker_total += a;
  if (worker_total <= 0.0) return schedule;

  double geo_total = 0.0;
  for (std::size_t r = 0; r < rounds; ++r) {
    geo_total += std::pow(theta, static_cast<double>(r));
  }
  const double budget = 1.0 - root_share;
  for (std::size_t r = 0; r < rounds; ++r) {
    const double round_budget =
        budget * std::pow(theta, static_cast<double>(r)) / geo_total;
    for (const std::size_t idx : base.order) {
      const double proportion = base.alpha[idx] / worker_total;
      const double chunk = round_budget * proportion;
      if (chunk > 0.0) {
        schedule.sends.push_back(sim::Installment{idx, chunk});
      }
    }
  }
  // Absorb any rounding residue into the final chunk.
  const double residue = 1.0 - schedule.total();
  if (!schedule.sends.empty()) {
    schedule.sends.back().chunk += residue;
  } else {
    schedule.root_share += residue;
  }
  return schedule;
}

}  // namespace

MultiRoundSolution solve_multiround_star(const net::StarNetwork& network,
                                         std::size_t rounds) {
  DLS_REQUIRE(rounds >= 1, "need at least one round");
  DLS_SPAN_ARGS("analysis.multiround",
                "{\"rounds\":" + std::to_string(rounds) + "}");
  const dlt::StarSolution base = dlt::solve_star(network);

  auto evaluate = [&](double root_share, double theta) {
    const sim::StarSchedule schedule =
        build_schedule(base, rounds, root_share, theta);
    return sim::execute_star(network, schedule).makespan;
  };

  const double theta_lo = 0.25, theta_hi = 4.0;
  double best_root = 0.0;
  double best_theta = 1.0;
  if (network.root_computes()) {
    // Coarse (root share x θ) grid evaluated on the shared pool —
    // every cell is an independent event-driven simulation — followed by
    // a golden-section polish of each coordinate inside the bracketing
    // grid cells. Replaces the serial nested golden search (1600+
    // sequential simulations) at equal or better schedule quality.
    const auto roots = linspace(0.0, 0.9, 13);
    const auto thetas = logspace(theta_lo, theta_hi, 17);
    std::vector<double> cost(roots.size() * thetas.size());
    DLS_COUNT("analysis.grid_points", cost.size());
    exec::ThreadPool::global().parallel_for(
        cost.size(),
        [&](std::size_t k) {
          cost[k] = evaluate(roots[k / thetas.size()],
                             thetas[k % thetas.size()]);
        },
        {.grain = 1});
    const std::size_t best_cell = static_cast<std::size_t>(
        std::min_element(cost.begin(), cost.end()) - cost.begin());
    const std::size_t ri = best_cell / thetas.size();
    const std::size_t ti = best_cell % thetas.size();

    const double r_lo = roots[ri == 0 ? 0 : ri - 1];
    const double r_hi = roots[std::min(ri + 1, roots.size() - 1)];
    const double t_lo = thetas[ti == 0 ? 0 : ti - 1];
    const double t_hi = thetas[std::min(ti + 1, thetas.size() - 1)];
    best_theta = thetas[ti];
    best_root = dls::common::golden_minimize(
                    [&](double root_share) {
                      return evaluate(root_share, best_theta);
                    },
                    r_lo, r_hi, 40)
                    .x;
    best_theta = dls::common::golden_minimize(
                     [&](double theta) { return evaluate(best_root, theta); },
                     t_lo, t_hi, 40)
                     .x;
  } else {
    const auto thetas = logspace(theta_lo, theta_hi, 17);
    std::vector<double> cost(thetas.size());
    DLS_COUNT("analysis.grid_points", cost.size());
    exec::ThreadPool::global().parallel_for(
        cost.size(), [&](std::size_t k) { cost[k] = evaluate(0.0, thetas[k]); },
        {.grain = 1});
    const std::size_t ti = static_cast<std::size_t>(
        std::min_element(cost.begin(), cost.end()) - cost.begin());
    best_theta = dls::common::golden_minimize(
                     [&](double theta) { return evaluate(0.0, theta); },
                     thetas[ti == 0 ? 0 : ti - 1],
                     thetas[std::min(ti + 1, thetas.size() - 1)], 40)
                     .x;
  }

  MultiRoundSolution sol;
  sol.rounds = rounds;
  sol.theta = best_theta;
  sol.schedule =
      build_schedule(base, rounds, best_root, best_theta);
  sol.makespan = sim::execute_star(network, sol.schedule).makespan;

  // The single-round optimum is always a candidate; never return a
  // schedule worse than it.
  const sim::StarSchedule single = sim::single_installment(
      network, base.alpha_root, base.alpha, base.order);
  const double single_makespan = sim::execute_star(network, single).makespan;
  if (single_makespan < sol.makespan) {
    sol.schedule = single;
    sol.theta = 1.0;
    sol.makespan = single_makespan;
  }
  return sol;
}

}  // namespace dls::analysis
