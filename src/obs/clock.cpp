#include "obs/clock.hpp"

#include <atomic>
#include <chrono>

namespace dls::obs {

namespace {

/// Signature of a trace clock: returns a monotonically non-decreasing
/// nanosecond (or tick) count.
using ClockFn = std::uint64_t (*)();

std::uint64_t steady_now() noexcept {
  // Anchor at the first call so timestamps are small, positive offsets
  // into the run rather than epoch-sized numbers.
  static const std::chrono::steady_clock::time_point anchor =
      std::chrono::steady_clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - anchor)
          .count());
}

std::atomic<std::uint64_t> g_logical_tick{0};

std::uint64_t logical_now() noexcept {
  return g_logical_tick.fetch_add(1, std::memory_order_relaxed);
}

std::atomic<ClockFn> g_clock{&steady_now};

}  // namespace

std::uint64_t now_ns() noexcept {
  return g_clock.load(std::memory_order_relaxed)();
}

void use_steady_clock() noexcept {
  g_clock.store(&steady_now, std::memory_order_relaxed);
}

void use_logical_clock() noexcept {
  g_logical_tick.store(0, std::memory_order_relaxed);
  g_clock.store(&logical_now, std::memory_order_relaxed);
}

}  // namespace dls::obs
