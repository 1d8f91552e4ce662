#include "multiload/payments.hpp"

#include <string>
#include <utility>

#include "common/error.hpp"

namespace dls::multiload {

namespace {

/// size · (x − flat) + flat: the linear part of a unit quantity scaled
/// to the load, with the flat solution-bonus part carried unscaled. At
/// size == 1 this is bit-identical to x (1·(x−f)+f == x only up to
/// rounding in general, so the scaler special-cases it).
double scale_with_flat(double unit_value, double flat, double size) {
  if (size == 1.0) return unit_value;
  return size * (unit_value - flat) + flat;
}

void fill_load(const core::DlsLblResult& unit, const LoadSpec& spec,
               LoadPayments& out) {
  const std::size_t n = unit.processors.size();
  out.load_id = spec.id;
  out.size = spec.size;
  out.payment.assign(n, 0.0);
  out.compensation.assign(n, 0.0);
  out.bonus.assign(n, 0.0);
  out.solution_bonus.assign(n, 0.0);
  out.total_payment = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    const core::PaymentBreakdown& money = unit.processors[j].money;
    out.compensation[j] = spec.size * money.compensation;
    out.bonus[j] = spec.size * money.bonus;
    out.solution_bonus[j] = money.solution_bonus;
    if (j > 0) {
      out.payment[j] =
          scale_with_flat(money.payment, money.solution_bonus, spec.size);
      out.total_payment += out.payment[j];
    }
  }
  out.mechanism_cost = out.total_payment + out.compensation[0];
}

}  // namespace

MultiLoadAssessment assess_loads(const net::LinearNetwork& bid_network,
                                 std::span<const double> actual_rates,
                                 const std::vector<LoadSpec>& loads,
                                 const core::MechanismConfig& config) {
  core::AssessWorkspace ws;
  return assess_loads(bid_network, actual_rates, loads, config, ws);
}

MultiLoadAssessment assess_loads(const net::LinearNetwork& bid_network,
                                 std::span<const double> actual_rates,
                                 const std::vector<LoadSpec>& loads,
                                 const core::MechanismConfig& config,
                                 core::AssessWorkspace& ws) {
  DLS_REQUIRE(!loads.empty(), "assess_loads needs at least one load");
  MultiLoadAssessment result;
  result.unit = core::assess_compliant(bid_network, actual_rates, config, ws);
  result.loads.resize(loads.size());
  for (std::size_t k = 0; k < loads.size(); ++k) {
    DLS_REQUIRE(loads[k].size > 0.0, "load sizes must be positive");
    fill_load(result.unit, loads[k], result.loads[k]);
    result.total_payment += result.loads[k].total_payment;
    result.mechanism_cost += result.loads[k].mechanism_cost;
  }
  return result;
}

}  // namespace dls::multiload
