// Seeded violation for the fp-fence check: an `omp simd` loop with a
// reduction clause. The reduction licenses the compiler to re-associate
// the sum into per-vector partial sums, so its bits depend on the vector
// width of the clone the loader picks. The analyzer must flag it.
#include <cstddef>

namespace fixture {

double planted_lane_sum(const double* x, std::size_t count) {
  double sum = 0.0;
#pragma omp simd reduction(+ : sum)  // planted: re-associating reduction
  for (std::size_t k = 0; k < count; ++k) sum += x[k];
  return sum;
}

}  // namespace fixture
