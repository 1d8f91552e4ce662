// Measurement plumbing shared by the perfbench workloads: the
// benchmark's own allocation counter, clocks, CPU and memory probes,
// order statistics, and the result record main.cpp prints.
#pragma once

#include <pthread.h>
#include <time.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <map>
#include <span>
#include <string>
#include <vector>

namespace perfbench {

// ---------------------------------------------------------------------
// Allocation counting. dlsbench replaces the global operator new; every
// allocation bumps the calling thread's slot. A slot is a cache line of
// its own, so counting never contends, and another thread can read it
// (the load generator's allocations are subtracted from the process
// total that way).

using AllocSlot = std::atomic<std::uint64_t>;

/// The calling thread's slot (assigned on first use).
const AllocSlot& this_thread_alloc_slot() noexcept;
/// Allocations made so far by the calling thread.
std::uint64_t thread_allocs() noexcept;
/// Allocations made so far by every thread of the process.
std::uint64_t process_allocs() noexcept;

// ---------------------------------------------------------------------
// Clocks and process probes.

inline double now_s() noexcept {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

inline std::uint64_t now_ns() noexcept {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

double process_cpu_s() noexcept;
double clock_cpu_s(clockid_t clock) noexcept;
/// CPU clock of another (live) thread.
clockid_t thread_cpu_clock(pthread_t thread);
/// getrusage max RSS of this process, in MB (2^20 bytes).
double peak_rss_mb() noexcept;
/// "Threads:" of /proc/self/status (0 when unreadable).
double proc_threads() noexcept;

void sleep_until_s(double deadline) noexcept;

// ---------------------------------------------------------------------
// Order statistics.

/// Bitwise equality: answers must match their references exactly (and
/// a NaN reference matches only the same NaN).
inline bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

inline bool same_bits(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/// Nearest-rank quantile, q in [0, 1]; 0 for an empty sample. Reorders
/// `v`.
double quantile(std::vector<double>& v, double q);
double median(std::vector<double> v);

// ---------------------------------------------------------------------
// Results.

struct Metric {
  double value = 0.0;
  std::string unit;
  std::uint64_t samples = 0;  ///< observations behind the value
};

struct Result {
  std::uint64_t attempted = 0;  ///< requests sent / curves computed
  std::uint64_t failed = 0;     ///< non-kOk, transport errors, wrong
  std::uint64_t wrong = 0;      ///< answers that differ from the reference
  std::string first_error;
  std::map<std::string, Metric> metrics;
  std::map<std::string, std::string> info;  ///< workload facts, as JSON

  void add(const std::string& name, double value, const std::string& unit,
           std::uint64_t samples) {
    metrics[name] = Metric{value, unit, samples};
  }
  void note_failure(const std::string& what, bool is_wrong_answer) {
    ++failed;
    if (is_wrong_answer) ++wrong;
    if (first_error.empty()) first_error = what;
  }
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;  ///< small pools for the self-check
  std::string trace_out;
  std::size_t clients = 4;
};

/// A uniform random sample of at most `capacity` observations (Vitter's
/// algorithm R), so a long run keeps exact values without its own
/// memory growing with the request count.
class Reservoir {
 public:
  Reservoir(std::size_t capacity, std::uint64_t seed)
      : capacity_(capacity), state_(seed | 1) {
    values_.reserve(capacity);
  }

  void add(double v) {
    ++seen_;
    if (values_.size() < capacity_) {
      values_.push_back(v);
      return;
    }
    state_ ^= state_ << 13;  // xorshift64
    state_ ^= state_ >> 7;
    state_ ^= state_ << 17;
    const std::uint64_t slot = state_ % seen_;
    if (slot < capacity_) values_[slot] = v;
  }
  void clear() {
    values_.clear();
    seen_ = 0;
  }
  /// Sampled values (reordered by quantile()).
  std::vector<double>& values() { return values_; }
  std::uint64_t seen() const { return seen_; }

 private:
  std::size_t capacity_;
  std::uint64_t state_;
  std::uint64_t seen_ = 0;
  std::vector<double> values_;
};

/// Collects one layer's per-call costs.
struct Samples {
  std::vector<double> values;
  void add(double v) { values.push_back(v); }
  double p50() { return quantile(values, 0.5); }
  std::uint64_t count() const { return values.size(); }
};

}  // namespace perfbench
