// MultiLoadSolver: pipelined multi-installment dispatch of concurrent
// divisible loads over one linear chain.
//
// Every installment reuses the chain's Algorithm-1 fractions (scaled by
// installment size), so intra-installment distribution is optimal by
// Theorem 2.1 and a single 1-unit load reproduces solve_linear_boundary
// bit for bit. Across installments the solver pipelines the one-port
// links: installment t+1's data follows t's down each link as soon as
// the link frees, overlapping t's computation. The Comments-paper
// corrections (store-and-forward causality, one-port non-overlap, size
// conservation) are replayed per installment by
// check::check_multiload_schedule at DLS_CHECK_LEVEL >= 1.
#pragma once

#include <cstddef>
#include <vector>

#include "multiload/types.hpp"
#include "net/networks.hpp"

namespace dls::multiload {

struct MultiLoadConfig {
  DispatchPolicy policy = DispatchPolicy::kFifo;
  /// Chunks each load is cut into (>= 1). Sizes are size/I for the
  /// first I-1 chunks and the exact remainder for the last, so the
  /// pieces sum to the load size bit-exactly.
  std::size_t installments_per_load = 1;
  /// Unit time of the one-port ingress link staging a load's data from
  /// the admission queue into the root before distribution. 0 (default)
  /// means loads are resident at the root from their release — exactly
  /// the single-load model, where MultiLoadSolver is bit-identical to
  /// solve_linear_boundary for one load. With ingress_z > 0, serialized
  /// rounds idle the chain while each load stages; pipelined dispatch
  /// stages load k+1 during load k's computation — the multi-load
  /// makespan win measured by bench/bm_multiload_*.
  double ingress_z = 0.0;
};

/// Solves the chain once at construction, then schedules any sequence
/// of loads over it without re-running Algorithm 1. Reusable: solve()
/// may be called repeatedly (fresh link/processor timelines each call).
class MultiLoadSolver {
 public:
  explicit MultiLoadSolver(const net::LinearNetwork& network);

  /// Pipelined multi-installment schedule for `loads` under `config`.
  /// Loads may carry release times and deadlines; a deadline is
  /// advisory (reported via LoadOutcome::deadline_met), it does not
  /// change the dispatch order.
  MultiLoadSchedule solve(const std::vector<LoadSpec>& loads,
                          const MultiLoadConfig& config = {});

  /// Serialized strict rounds including per-round ingress staging: each
  /// load is staged into the root (size · ingress_z) and then executed,
  /// with the next round starting only at completion. The chain idles
  /// during every stage — the gap pipelined dispatch closes.
  double serialized_makespan_with_ingress(const std::vector<LoadSpec>& loads,
                                          double ingress_z) const;

  const dlt::LinearSolution& chain() const noexcept { return chain_; }
  const net::LinearNetwork& network() const noexcept { return network_; }

  /// Unit arrival offset A_i: time after an installment's comm_start at
  /// which P_i holds its full share of a size-1 installment
  /// (store-and-forward over links 1..i). A_0 = 0.
  double unit_arrival(std::size_t i) const noexcept {
    return unit_arrival_[i];
  }

 private:
  net::LinearNetwork network_;
  dlt::LinearSolution chain_;
  std::vector<double> unit_arrival_;   ///< A_i per processor
  std::vector<double> unit_compute_;   ///< alpha_i * w_i per processor
  // Scratch timelines, reset per solve().
  std::vector<double> link_free_;  ///< link j (1-based j-1) busy-until
  std::vector<double> proc_free_;  ///< processor i busy-until
};

/// Dispatch order for `loads` under `config`: indices into `loads`
/// paired with installment numbers, in the exact order the root pushes
/// them onto link 1. Exposed so the checker and the sim replay the same
/// order the solver used.
std::vector<std::pair<std::size_t, std::size_t>> dispatch_order(
    const std::vector<LoadSpec>& loads, const MultiLoadConfig& config);

/// Exact installment chunk size: chunk `index` (0-based) of `total`
/// split into `count` pieces — total/count for all but the last, which
/// takes the exact remainder so the sum reproduces `total` bitwise.
double installment_size(double total, std::size_t count, std::size_t index);

}  // namespace dls::multiload
