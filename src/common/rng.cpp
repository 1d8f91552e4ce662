#include "common/rng.hpp"

#include <cmath>

#include "common/error.hpp"

namespace dls::common {

std::uint64_t splitmix64_next(std::uint64_t& state) noexcept {
  state += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

namespace {

constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Xoshiro256::Xoshiro256(std::uint64_t seed) noexcept {
  std::uint64_t sm = seed;
  for (auto& word : s_) word = splitmix64_next(sm);
}

Xoshiro256::result_type Xoshiro256::operator()() noexcept {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::uniform01() noexcept {
  // 53 high bits -> double in [0, 1).
  return static_cast<double>(gen_() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  DLS_REQUIRE(lo < hi, "uniform requires lo < hi");
  return lo + (hi - lo) * uniform01();
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  DLS_REQUIRE(lo <= hi, "uniform_int requires lo <= hi");
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  if (span == 0) {  // full 64-bit range
    return static_cast<std::int64_t>(gen_());
  }
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = (~std::uint64_t{0}) - (~std::uint64_t{0}) % span;
  std::uint64_t draw;
  do {
    draw = gen_();
  } while (draw >= limit);
  return lo + static_cast<std::int64_t>(draw % span);
}

double Rng::exponential(double lambda) {
  DLS_REQUIRE(lambda > 0.0, "exponential requires lambda > 0");
  double u = 0.0;
  do {
    u = uniform01();
  } while (u <= 0.0);
  return -std::log(u) / lambda;
}

double Rng::log_uniform(double lo, double hi) {
  DLS_REQUIRE(lo > 0.0 && lo < hi, "log_uniform requires 0 < lo < hi");
  return std::exp(uniform(std::log(lo), std::log(hi)));
}

bool Rng::bernoulli(double p) {
  DLS_REQUIRE(p >= 0.0 && p <= 1.0, "bernoulli requires p in [0,1]");
  return uniform01() < p;
}

}  // namespace dls::common
