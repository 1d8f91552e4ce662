// Parameter-sweep utilities shared by the bench binaries.
#pragma once

#include <cstddef>
#include <vector>

namespace dls::analysis {

/// `count` evenly spaced values over [lo, hi] inclusive; count >= 2.
std::vector<double> linspace(double lo, double hi, std::size_t count);

/// `count` logarithmically spaced values over [lo, hi]; 0 < lo < hi.
std::vector<double> logspace(double lo, double hi, std::size_t count);

/// Roughly geometric integer ladder from lo to hi (inclusive, deduped),
/// e.g. {2, 4, 8, ..., hi}. Requires 1 <= lo <= hi.
std::vector<std::size_t> int_ladder(std::size_t lo, std::size_t hi,
                                    double factor = 2.0);

}  // namespace dls::analysis
