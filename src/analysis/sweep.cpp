#include "analysis/sweep.hpp"

#include <cmath>

#include "common/error.hpp"

namespace dls::analysis {

std::vector<double> linspace(double lo, double hi, std::size_t count) {
  DLS_REQUIRE(count >= 2, "linspace needs at least two points");
  DLS_REQUIRE(lo < hi, "linspace requires lo < hi");
  std::vector<double> out(count);
  const double step = (hi - lo) / static_cast<double>(count - 1);
  for (std::size_t i = 0; i < count; ++i) {
    out[i] = lo + step * static_cast<double>(i);
  }
  out.back() = hi;  // avoid accumulated rounding at the endpoint
  return out;
}

std::vector<double> logspace(double lo, double hi, std::size_t count) {
  DLS_REQUIRE(count >= 2, "logspace needs at least two points");
  DLS_REQUIRE(lo > 0.0 && lo < hi, "logspace requires 0 < lo < hi");
  std::vector<double> out = linspace(std::log(lo), std::log(hi), count);
  for (double& x : out) x = std::exp(x);
  out.back() = hi;
  return out;
}

std::vector<std::size_t> int_ladder(std::size_t lo, std::size_t hi,
                                    double factor) {
  DLS_REQUIRE(lo >= 1 && lo <= hi, "int_ladder requires 1 <= lo <= hi");
  DLS_REQUIRE(factor > 1.0, "int_ladder factor must exceed 1");
  std::vector<std::size_t> out;
  double x = static_cast<double>(lo);
  while (static_cast<std::size_t>(x) < hi) {
    const auto v = static_cast<std::size_t>(x);
    if (out.empty() || out.back() != v) out.push_back(v);
    x *= factor;
  }
  if (out.empty() || out.back() != hi) out.push_back(hi);
  return out;
}

}  // namespace dls::analysis
