#include "core/dls_star.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace dls::core {

namespace {

/// Makespan of the bid star with worker `target` charged at `rate`
/// instead of its bid; allocation and service order stay bid-derived.
double realized_rho(const net::StarNetwork& bid_network,
                    const dlt::StarSolution& solution, std::size_t target,
                    double rate) {
  double rho = 0.0;
  if (bid_network.root_computes()) {
    rho = solution.alpha_root * bid_network.root_w();
  }
  double clock = 0.0;
  for (const std::size_t idx : solution.order) {
    const double a = solution.alpha[idx];
    if (a <= 0.0) continue;
    clock += a * bid_network.z(idx);
    const double w = idx == target ? rate : bid_network.w(idx);
    rho = std::max(rho, clock + a * w);
  }
  return rho;
}

/// ρ_{-i}: the optimal equivalent time of the star without worker `skip`.
double rho_without(const net::StarNetwork& bid_network, std::size_t skip) {
  std::vector<double> w, z;
  for (std::size_t i = 0; i < bid_network.workers(); ++i) {
    if (i == skip) continue;
    w.push_back(bid_network.w(i));
    z.push_back(bid_network.z(i));
  }
  if (w.empty()) {
    DLS_REQUIRE(bid_network.root_computes(),
                "removing the only worker leaves nobody to compute");
    return bid_network.root_w();
  }
  const net::StarNetwork reduced(bid_network.root_w(), std::move(w),
                                 std::move(z));
  return dlt::solve_star(reduced).makespan;
}

}  // namespace

DlsStarResult assess_dls_star(const net::StarNetwork& bid_network,
                              std::span<const double> actual_rates,
                              const MechanismConfig& config) {
  const std::size_t m = bid_network.workers();
  DLS_REQUIRE(actual_rates.size() == m, "actual_rates size mismatch");
  DLS_REQUIRE(bid_network.root_computes() || m >= 2,
              "need a computing root or at least two workers");
  (void)config;

  DlsStarResult result;
  result.solution = dlt::solve_star(bid_network);
  result.workers.resize(m);
  for (std::size_t i = 0; i < m; ++i) {
    StarAssessment& a = result.workers[i];
    a.worker = i;
    a.bid_rate = bid_network.w(i);
    a.actual_rate = actual_rates[i];
    a.alpha = result.solution.alpha[i];
    a.valuation = -a.alpha * a.actual_rate;
    a.rho_without = rho_without(bid_network, i);
    a.rho_realized =
        realized_rho(bid_network, result.solution, i, a.actual_rate);
    if (a.alpha > 0.0) {
      a.compensation = a.alpha * a.actual_rate;
      a.bonus = a.rho_without - a.rho_realized;
      a.payment = a.compensation + a.bonus;
    }
    a.utility = a.valuation + a.payment;
    result.total_payment += a.payment;
  }
  return result;
}

double star_utility_under_bid(const net::StarNetwork& true_network,
                              std::size_t index, double bid,
                              double actual_rate,
                              const MechanismConfig& config) {
  const std::size_t m = true_network.workers();
  DLS_REQUIRE(index < m, "worker index out of range");
  DLS_REQUIRE(bid > 0.0, "bid must be positive");
  DLS_REQUIRE(actual_rate >= true_network.w(index) - 1e-12,
              "cannot execute faster than the true rate");

  std::vector<double> w, z, actual;
  w.reserve(m);
  z.reserve(m);
  actual.reserve(m);
  for (std::size_t i = 0; i < m; ++i) {
    w.push_back(i == index ? bid : true_network.w(i));
    z.push_back(true_network.z(i));
    actual.push_back(i == index ? actual_rate : true_network.w(i));
  }
  const net::StarNetwork bid_network(true_network.root_w(), std::move(w),
                                     std::move(z));
  const DlsStarResult result =
      assess_dls_star(bid_network, actual, config);
  return result.workers[index].utility;
}

}  // namespace dls::core
