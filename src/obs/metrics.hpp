// Metrics registry: named counters, gauges and fixed-bucket histograms.
//
// Instruments cache the handle once and update lock-free:
//
//   static obs::Counter& chunks =
//       obs::MetricsRegistry::global().counter("exec.chunks");
//   chunks.add();
//
// Updates are relaxed atomics gated on obs::active(), so a disabled
// process pays one load per site. snapshot() captures every metric into
// plain structs (deterministically ordered by name) and renders to JSON
// for dashboards or trace sidecars.
//
// Naming scheme (see docs/OBSERVABILITY.md): dotted lowercase paths,
// `<layer>.<what>` — e.g. solver.solves, mechanism.bonus_paid,
// exec.chunks, protocol.msgs_by_type.bid, recovery.resolves.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "obs/level.hpp"
#include "obs/sink.hpp"

namespace dls::obs {

class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    if (!active()) return;
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

class Gauge {
 public:
  void set(double v) noexcept {
    if (!active()) return;
    value_.store(v, std::memory_order_relaxed);
  }
  /// Tracks the running maximum (queue depths, high-water marks).
  void max(double v) noexcept {
    if (!active()) return;
    double cur = value_.load(std::memory_order_relaxed);
    while (v > cur && !value_.compare_exchange_weak(
                          cur, v, std::memory_order_relaxed)) {
    }
  }
  double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram: `bounds` are inclusive upper bucket edges;
/// one implicit overflow bucket catches everything above the last edge.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void observe(double x) noexcept;

  const std::vector<double>& bounds() const noexcept { return bounds_; }
  /// bounds().size() + 1 entries; the last is the overflow bucket.
  std::vector<std::uint64_t> bucket_counts() const;
  std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  double sum() const noexcept { return sum_.load(std::memory_order_relaxed); }
  void reset() noexcept;

 private:
  std::vector<double> bounds_;
  std::vector<std::atomic<std::uint64_t>> buckets_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

struct HistogramSnapshot {
  std::vector<double> bounds;
  std::vector<std::uint64_t> counts;  ///< bounds.size() + 1 (overflow last)
  std::uint64_t count = 0;
  double sum = 0.0;
};

/// Quantile estimate from bucket counts, q in [0, 1]. Interpolates
/// linearly inside the bucket holding the q-th observation (the first
/// bucket's lower edge is 0, the overflow bucket collapses to its lower
/// edge — a known underestimate there). Returns 0 for an empty
/// histogram. Resolution is bounded by the bucket edges; perf gates
/// that consume these values must use matching edges on both sides.
double histogram_quantile(const HistogramSnapshot& h, double q);

/// Point-in-time copy of every registered metric, ordered by name.
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramSnapshot> histograms;

  /// Deterministic JSON rendering (sorted keys, %.17g doubles).
  std::string to_json() const;
};

class MetricsRegistry {
 public:
  static MetricsRegistry& global();

  /// Finds or creates. References stay valid for the registry's
  /// lifetime, so call sites may cache them in static locals.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  /// `bounds` (ascending upper edges) are fixed by the first caller;
  /// later callers get the existing histogram regardless of bounds.
  Histogram& histogram(std::string_view name, std::span<const double> bounds);
  Histogram& histogram(std::string_view name,
                       std::initializer_list<double> bounds) {
    return histogram(name,
                     std::span<const double>(bounds.begin(), bounds.size()));
  }

  MetricsSnapshot snapshot() const;

  /// Zeroes every value; registrations (and cached references) survive.
  void reset();

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

}  // namespace dls::obs

// One-line instrumentation helpers. The registry lookup happens once
// (static local); the update is a relaxed atomic gated on obs::active().
// All of them compile to nothing at DLS_OBS_LEVEL=0.
#if DLS_OBS_LEVEL >= 1
#define DLS_COUNT(name, ...)                                               \
  do {                                                                     \
    static ::dls::obs::Counter& DLS_OBS_CONCAT(dls_obs_counter_,           \
                                               __LINE__) =                 \
        ::dls::obs::MetricsRegistry::global().counter(name);               \
    DLS_OBS_CONCAT(dls_obs_counter_, __LINE__).add(__VA_ARGS__);           \
  } while (false)
#define DLS_GAUGE_SET(name, value)                                         \
  do {                                                                     \
    static ::dls::obs::Gauge& DLS_OBS_CONCAT(dls_obs_gauge_, __LINE__) =   \
        ::dls::obs::MetricsRegistry::global().gauge(name);                 \
    DLS_OBS_CONCAT(dls_obs_gauge_, __LINE__).set(value);                   \
  } while (false)
#define DLS_GAUGE_MAX(name, value)                                         \
  do {                                                                     \
    static ::dls::obs::Gauge& DLS_OBS_CONCAT(dls_obs_gauge_, __LINE__) =   \
        ::dls::obs::MetricsRegistry::global().gauge(name);                 \
    DLS_OBS_CONCAT(dls_obs_gauge_, __LINE__).max(value);                   \
  } while (false)
/// DLS_OBSERVE("name", value, {b0, b1, ...}) — bounds fix the histogram
/// on first use.
#define DLS_OBSERVE(name, value, ...)                                     \
  do {                                                                    \
    static ::dls::obs::Histogram& DLS_OBS_CONCAT(dls_obs_hist_,           \
                                                 __LINE__) =              \
        ::dls::obs::MetricsRegistry::global().histogram(                  \
            name, std::initializer_list<double> __VA_ARGS__);             \
    DLS_OBS_CONCAT(dls_obs_hist_, __LINE__).observe(value);               \
  } while (false)
#else
#define DLS_COUNT(...) static_cast<void>(0)
#define DLS_GAUGE_SET(...) static_cast<void>(0)
#define DLS_GAUGE_MAX(...) static_cast<void>(0)
#define DLS_OBSERVE(...) static_cast<void>(0)
#endif
