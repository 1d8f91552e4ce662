#include "common/stats.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace dls::common {

void OnlineStats::add(double x) noexcept {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  sum_ += x;
  mean_ += (x - mean_) / static_cast<double>(n_);
}

double percentile(std::span<const double> xs, double p) {
  DLS_REQUIRE(!xs.empty(), "percentile of empty sample");
  DLS_REQUIRE(p >= 0.0 && p <= 100.0, "percentile p must be in [0,100]");
  std::vector<double> sorted(xs.begin(), xs.end());
  std::sort(sorted.begin(), sorted.end());
  if (sorted.size() == 1) return sorted.front();
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

std::size_t argmax(std::span<const double> xs) {
  DLS_REQUIRE(!xs.empty(), "argmax of empty sample");
  std::size_t best = 0;
  for (std::size_t i = 1; i < xs.size(); ++i) {
    if (xs[i] > xs[best]) best = i;
  }
  return best;
}

}  // namespace dls::common
