#include "common/backoff.hpp"

#include <algorithm>

namespace dls::common {

double exponential_backoff(double base, double factor, std::size_t attempt,
                           double cap) noexcept {
  double wait = base;
  for (std::size_t r = 0; r < attempt; ++r) wait *= factor;
  return std::min(wait, cap);
}

}  // namespace dls::common
