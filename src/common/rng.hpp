// Deterministic pseudo-random number generation.
//
// Experiments must be reproducible bit-for-bit across runs and platforms,
// so we implement the generators ourselves instead of relying on
// implementation-defined std::default_random_engine behaviour:
//   * splitmix64  — seed expansion,
//   * xoshiro256** — the workhorse generator (Blackman & Vigna).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

namespace dls::common {

/// SplitMix64 step; used to expand a single 64-bit seed into generator
/// state. Returns the next output and advances `state`.
std::uint64_t splitmix64_next(std::uint64_t& state) noexcept;

/// xoshiro256** generator with a std::uniform_random_bit_generator
/// compatible interface.
class Xoshiro256 {
 public:
  using result_type = std::uint64_t;

  /// Seeds all 256 bits of state from `seed` via SplitMix64.
  explicit Xoshiro256(std::uint64_t seed = 0x9e3779b97f4a7c15ull) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~result_type{0}; }

  result_type operator()() noexcept;

 private:
  std::array<std::uint64_t, 4> s_;
};

/// Convenience sampling wrapper around Xoshiro256.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) noexcept : gen_(seed) {}

  /// Uniform double in [0, 1).
  double uniform01() noexcept;

  /// Uniform double in [lo, hi). Requires lo < hi.
  double uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Exponential with rate `lambda` > 0.
  double exponential(double lambda);

  /// Log-uniform in [lo, hi]; handy for sweeping rate parameters across
  /// orders of magnitude. Requires 0 < lo < hi.
  double log_uniform(double lo, double hi);

  /// Bernoulli trial with success probability p in [0, 1].
  bool bernoulli(double p);

  /// Raw 64 random bits.
  std::uint64_t bits() noexcept { return gen_(); }

  /// Fisher–Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      const auto j = static_cast<std::size_t>(
          uniform_int(0, static_cast<std::int64_t>(i) - 1));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  Xoshiro256& generator() noexcept { return gen_; }

 private:
  Xoshiro256 gen_;
};

}  // namespace dls::common
