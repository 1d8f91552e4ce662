// Streaming and batch descriptive statistics used by the experiment
// harness and the benches.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace dls::common {

/// Online accumulator: count, running mean (Welford's update), min, max
/// and sum without storing the sample.
class OnlineStats {
 public:
  void add(double x) noexcept;

  std::size_t count() const noexcept { return n_; }
  double mean() const noexcept { return n_ ? mean_ : 0.0; }
  double min() const noexcept { return min_; }
  double max() const noexcept { return max_; }
  double sum() const noexcept { return sum_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

/// Linearly-interpolated percentile, p in [0, 100]. Sorts a copy.
/// Requires a non-empty sample.
double percentile(std::span<const double> xs, double p);

/// Index of the maximum element; requires non-empty input. Ties resolve to
/// the first maximum.
std::size_t argmax(std::span<const double> xs);

}  // namespace dls::common
