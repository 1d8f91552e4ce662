// Batched structure-of-arrays flavour of Algorithm 1.
//
// The equivalent-processor reduction (eqs. 2.3-2.7) is a sequential
// recurrence along ONE chain, but production traffic — utility sweeps,
// counterfactual audits, serve-layer cache misses — is many INDEPENDENT
// chains. BatchLinearSolver solves K same-length instances in lockstep:
// reduction state is interleaved across instances (lane k of chain row i
// lives at [i*K + k]), so each step of the recurrence becomes a dense
// loop over K independent lanes that vectorizes (one portable loop per
// step in batch_kernels.hpp; the compiler builds its NEON body on
// aarch64 and an ifunc-selected AVX2 clone beside the baseline body on
// x86-64).
//
// Contract: every lane of every result is BIT-IDENTICAL to a scalar
// solve_linear_boundary of the same instance — the kernels replicate
// the scalar association order exactly, and elementwise IEEE-754
// add/sub/mul/div vectorize without changing rounding. Tests and the
// src/check auditors assert this with exact ==.
//
// All buffers are arena-style: sized by reserve()/begin() and reused,
// so a warmed solver performs 0 heap allocations per solve (asserted by
// bench_perf_micro's alloc counters).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "dlt/linear.hpp"
#include "net/networks.hpp"

namespace dls::dlt {

/// True when the lane loops carry a vector clone for this target: the
/// AVX2 clone on x86-64, the NEON body on aarch64.
bool batch_simd_compiled() noexcept;

/// True when this CPU runs the widest clone: AVX2 is runtime-detected
/// on x86-64 (the same test the ifunc resolver makes); always true on
/// aarch64, where NEON is the baseline.
bool batch_simd_available() noexcept;

/// Solves K independent boundary-origination chains of equal length m
/// in lockstep. Holds mutable scratch — use one instance per thread.
///
/// Lifecycle per batch: begin(m, K) → set_instance(k, …) for every
/// lane → solve() → read accessors / extract(). begin() may be called
/// again with any shape; buffers only grow.
class BatchLinearSolver {
 public:
  BatchLinearSolver() = default;

  /// Pre-sizes every buffer for `processors` x `lanes` so later
  /// begin/solve calls of that shape (or smaller) never allocate.
  void reserve(std::size_t processors, std::size_t lanes);

  /// Starts a new batch of `lanes` chains with `processors` processors
  /// each. Clears lane-filled tracking; reuses buffers.
  void begin(std::size_t processors, std::size_t lanes);

  /// Loads one instance into lane `lane`. `w` must hold processors()
  /// unit computing times, `z` the processors()-1 link times (z_1..z_m
  /// in paper indexing). Validates sizes and the rate domain (finite and
  /// positive, net::LinearNetwork::validate) here so solve() cannot fail
  /// on instance data.
  void set_instance(std::size_t lane, std::span<const double> w,
                    std::span<const double> z);

  /// Convenience overload: lanes a LinearNetwork (already validated).
  void set_instance(std::size_t lane, const net::LinearNetwork& network);

  /// Runs Algorithm 1 on every lane. Requires all lanes filled.
  void solve();

  /// Finish times by eqs. (2.1)-(2.2) for every lane's optimal
  /// allocation; call after solve(). Results via finish_time().
  void evaluate_finish_times();

  std::size_t processors() const noexcept { return processors_; }
  std::size_t lanes() const noexcept { return lanes_; }

  /// Instance data as loaded.
  double w(std::size_t lane, std::size_t i) const {
    return w_stage_[lane * processors_ + i];
  }
  /// Unit time of link l_j (P_{j-1} -> P_j), j in [1, processors()-1].
  double z(std::size_t lane, std::size_t j) const {
    return z_stage_[lane * (processors_ - 1) + (j - 1)];
  }

  /// Solution accessors; valid after solve().
  double alpha(std::size_t lane, std::size_t i) const {
    return alpha_[i * lanes_ + lane];
  }
  double alpha_hat(std::size_t lane, std::size_t i) const {
    return alpha_hat_[i * lanes_ + lane];
  }
  double equivalent_w(std::size_t lane, std::size_t i) const {
    return equivalent_w_[i * lanes_ + lane];
  }
  double received(std::size_t lane, std::size_t i) const {
    return received_[i * lanes_ + lane];
  }
  double makespan(std::size_t lane) const { return equivalent_w_[lane]; }

  /// Valid after evaluate_finish_times().
  double finish_time(std::size_t lane, std::size_t i) const {
    return finish_[i * lanes_ + lane];
  }

  /// Gathers lane `lane` into `out`, bit-identical to
  /// solve_linear_boundary(network, ws, /*want_steps=*/false) on the
  /// same instance (the reduction trace is left empty).
  void extract(std::size_t lane, LinearSolution& out) const;

 private:
  void audit_lanes();

  std::size_t processors_ = 0;
  std::size_t lanes_ = 0;
  bool solved_ = false;

  // Instance staging, lane-major: lane k's w at [k*processors_, ...),
  // its z at [k*(processors_-1), ...). set_instance writes these
  // sequentially (cheap); solve() gathers one chain row at a time into
  // row_w_/row_z_ right before the kernel call. Scattering stride-K
  // writes straight from set_instance costs more than the solve itself.
  std::vector<double> w_stage_;
  std::vector<double> z_stage_;
  std::vector<double> row_w_;
  std::vector<double> row_z_;

  // SoA solution state: chain row i spans [i*lanes_, (i+1)*lanes_).
  std::vector<double> alpha_;
  std::vector<double> alpha_hat_;
  std::vector<double> equivalent_w_;
  std::vector<double> received_;
  std::vector<double> finish_;

  // Per-lane scratch (length lanes_).
  std::vector<double> tail_;
  std::vector<double> remaining_;
  std::vector<double> assigned_;
  std::vector<double> arrival_;

  std::vector<std::uint8_t> lane_filled_;
  std::size_t filled_count_ = 0;

  // Level-1 audits replay one rotating lane per solve (plus the last
  // lane); the cursor makes repeated solves cover every lane.
  std::size_t audit_cursor_ = 0;
};

}  // namespace dls::dlt
