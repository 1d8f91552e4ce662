// Lane kernels for the batched SoA solver (internal header).
//
// Every kernel applies ONE step of a per-instance recurrence across K
// independent lanes (instances) stored contiguously, so the sequential
// dependence stays along the chain while the lane dimension vectorizes.
// Each step has exactly one spelling, the portable loop below; the
// compiler builds the wide versions from it:
//   * `#pragma omp simd` (honoured under -fopenmp-simd, which the dls_dlt
//     target adds; no OpenMP runtime) vectorizes each O(n·K) loop at the
//     target's baseline width — NEON on aarch64, SSE2 on x86-64. It also
//     asserts that a kernel's arrays do not overlap; every call site
//     passes separate buffers.
//   * On x86-64, DLS_LANE_CLONES adds target_clones("avx2", "default"):
//     an AVX2 body, a baseline body and an ifunc resolver, so the loader
//     binds the AVX2 body on CPUs that have it. ThreadSanitizer builds
//     get the baseline body only: GCC instruments the resolver with
//     __tsan_func_entry, which is not yet bound when the loader runs it.
//
// Bit-identity discipline (do not "simplify" these expressions): every
// body performs the same IEEE-754 operations in the same association
// order as the scalar code in linear.cpp / counterfactual.cpp, and
// add/sub/mul/div are correctly rounded elementwise, so every lane is
// bit-identical to a scalar solve (asserted with == by the batch tests
// and the src/check auditors).
//   * The denominator associates LEFT, (w + tail) + z, as in
//     pair_alpha_hat.
//   * No a*b+c trees, and -ffp-contract=off stays pinned project-wide.
//   * No `reduction` clause: it would license re-association.
#pragma once

#include <cstddef>

#if defined(__SANITIZE_THREAD__)
#define DLS_LANE_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define DLS_LANE_TSAN 1
#endif
#endif

#if defined(__x86_64__) && defined(__ELF__) && \
    (defined(__GNUC__) || defined(__clang__)) && !defined(DLS_LANE_TSAN)
#define DLS_LANE_AVX2_CLONE 1
#define DLS_LANE_CLONES __attribute__((target_clones("avx2", "default")))
#else
#define DLS_LANE_AVX2_CLONE 0
#define DLS_LANE_CLONES
#endif

namespace dls::dlt::detail {

// ---------------------------------------------------------------------
// Collapse step, per-lane rates (BatchLinearSolver backward pass).
// Mirror of pair_alpha_hat + eq. (2.4) in solve_linear_boundary_into:
//   ah   = (tail + z) / ((w + tail) + z)
//   eqw  = ah * w
//   tail = eqw

DLS_LANE_CLONES inline void reduce_lanes(const double* w, const double* z,
                                         double* tail, double* ah, double* eqw,
                                         std::size_t count) {
#pragma omp simd
  for (std::size_t k = 0; k < count; ++k) {
    const double num = tail[k] + z[k];
    const double den = (w[k] + tail[k]) + z[k];
    const double a = num / den;
    const double e = a * w[k];
    ah[k] = a;
    eqw[k] = e;
    tail[k] = e;
  }
}

// ---------------------------------------------------------------------
// Collapse step, broadcast rates (CounterfactualSolver::rebid_batch
// prefix: every lane shares the chain's w_i and z_{i+1}, only the
// equivalent tail differs). Mirror of the rebid() loop body:
//   ah   = (tail + z) / ((w + tail) + z)
//   tail = ah * w

DLS_LANE_CLONES inline void reduce_lanes_bcast(double w, double z, double* tail,
                                               double* ah, std::size_t count) {
#pragma omp simd
  for (std::size_t k = 0; k < count; ++k) {
    const double num = tail[k] + z;
    const double den = (w + tail[k]) + z;
    const double a = num / den;
    ah[k] = a;
    tail[k] = a * w;
  }
}

// ---------------------------------------------------------------------
// Own-lane collapse for rebid_batch: the queried processor's OWN bid
// varies per lane while the suffix tail and link are fixed, so the
// recurrence reads
//   ah  = (tail + z) / ((bid + tail) + z)
//   eqw = ah * bid
// This is pair_alpha_hat with the numerator hoisted (tail and z are
// lane-invariant); the denominator association matches the scalar
// rebid() exactly. It lives here — not inlined at the call site — so
// the FP-determinism fence can verify there is exactly ONE spelling of
// every α̂ recurrence in the batch layer. O(k) once per rebid_batch (the
// O(n·k) passes are the other kernels), so it is left to the compiler.

inline void collapse_own_lanes(const double* bids, double tail, double z,
                               double* ah, double* eqw, std::size_t count) {
  const double num = tail + z;
  for (std::size_t k = 0; k < count; ++k) {
    const double a = num / ((bids[k] + tail) + z);
    ah[k] = a;
    eqw[k] = a * bids[k];  // eq. (2.4)
  }
}

// ---------------------------------------------------------------------
// Forward unroll step (steps 7-10 of Algorithm 1 across lanes). Mirror
// of the scalar loop body:
//   received  = remaining
//   alpha     = remaining * ah
//   remaining = remaining * (1 - ah)

DLS_LANE_CLONES inline void unroll_lanes(const double* ah, double* remaining,
                                         double* received, double* alpha,
                                         std::size_t count) {
#pragma omp simd
  for (std::size_t k = 0; k < count; ++k) {
    const double rem = remaining[k];
    received[k] = rem;
    alpha[k] = rem * ah[k];
    remaining[k] = rem * (1.0 - ah[k]);
  }
}

/// Lane-product step for rebid_batch's forward pass:
///   remaining *= (1 - ah)
/// Mirror of `remaining *= (1.0 - ah_scratch_[i])` in rebid().
DLS_LANE_CLONES inline void remaining_lanes(const double* ah, double* remaining,
                                            std::size_t count) {
#pragma omp simd
  for (std::size_t k = 0; k < count; ++k) {
    remaining[k] = remaining[k] * (1.0 - ah[k]);
  }
}

}  // namespace dls::dlt::detail
