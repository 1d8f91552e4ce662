#include "multiload/solver.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>
#include <utility>

#include "check/contracts.hpp"
#include "check/multiload_invariants.hpp"
#include "common/error.hpp"

namespace dls::multiload {

std::vector<std::pair<std::size_t, std::size_t>> dispatch_order(
    const std::vector<LoadSpec>& loads, const MultiLoadConfig& config) {
  const std::size_t chunks = std::max<std::size_t>(1, config.installments_per_load);
  // Ties on release break by input index, so the order is a pure
  // function of the inputs and the checker can replay it.
  std::vector<std::size_t> by_release(loads.size());
  std::iota(by_release.begin(), by_release.end(), std::size_t{0});
  std::stable_sort(by_release.begin(), by_release.end(),
                   [&loads](std::size_t a, std::size_t b) {
                     return loads[a].release < loads[b].release;
                   });

  std::vector<std::pair<std::size_t, std::size_t>> order;
  order.reserve(loads.size() * chunks);
  if (config.policy == DispatchPolicy::kFifo) {
    for (std::size_t load : by_release) {
      for (std::size_t c = 0; c < chunks; ++c) order.emplace_back(load, c);
    }
  } else {
    for (std::size_t c = 0; c < chunks; ++c) {
      for (std::size_t load : by_release) order.emplace_back(load, c);
    }
  }
  return order;
}

double installment_size(double total, std::size_t count, std::size_t index) {
  DLS_REQUIRE(count >= 1 && index < count, "installment index out of range");
  if (count == 1) return total;  // a single chunk carries the exact size
  const double even = total / static_cast<double>(count);
  if (index + 1 < count) return even;
  // Last chunk takes the exact remainder so the pieces sum to `total`
  // bit-for-bit (the checker and the payment scaler both rely on it).
  return total - even * static_cast<double>(count - 1);
}

MultiLoadSolver::MultiLoadSolver(const net::LinearNetwork& network)
    : network_(network) {
  // Algorithm 1 once; every installment is this solution scaled. The
  // chain keeps its reduction trace so callers can inspect it.
  dlt::solve_linear_boundary_into(network_, chain_, /*want_steps=*/true);
  const std::size_t n = network_.size();
  unit_arrival_.assign(n, 0.0);
  unit_compute_.assign(n, 0.0);
  unit_compute_[0] = chain_.alpha[0] * network_.w(0);
  for (std::size_t i = 1; i < n; ++i) {
    // Store-and-forward: link l_i forwards only after receiving all of
    // its transit load D_i, so P_i's data lands at Σ_{k<=i} D_k z_k.
    unit_arrival_[i] = unit_arrival_[i - 1] + chain_.received[i] * network_.z(i);
    unit_compute_[i] = chain_.alpha[i] * network_.w(i);
  }
}

MultiLoadSchedule MultiLoadSolver::solve(const std::vector<LoadSpec>& loads,
                                         const MultiLoadConfig& config) {
  DLS_REQUIRE(!loads.empty(), "multi-load solve needs at least one load");
  DLS_REQUIRE(config.installments_per_load >= 1,
              "installments_per_load must be >= 1");
  DLS_REQUIRE(std::isfinite(config.ingress_z) && config.ingress_z >= 0.0,
              "ingress_z must be finite and non-negative");
  for (const LoadSpec& load : loads) {
    // NaN fails every ordered comparison, so each predicate is written
    // to *accept* good values; anything else — including NaN and ±inf,
    // which arrive unchecked from embedding callers — is rejected.
    if (!(std::isfinite(load.size) && load.size > 0.0)) {
      throw InfeasibleError("multi-load: load " + std::to_string(load.id) +
                            " has a non-positive or non-finite size");
    }
    if (!(std::isfinite(load.release) && load.release >= 0.0) ||
        !(std::isfinite(load.deadline) && load.deadline >= 0.0)) {
      throw InfeasibleError("multi-load: load " + std::to_string(load.id) +
                            " has a negative or non-finite release/deadline");
    }
  }

  const std::size_t n = network_.size();
  const std::size_t chunks = config.installments_per_load;

  MultiLoadSchedule schedule;
  schedule.chain = chain_;
  schedule.loads.resize(loads.size());
  for (std::size_t k = 0; k < loads.size(); ++k) {
    schedule.loads[k].spec = loads[k];
    schedule.loads[k].installments = chunks;
  }

  link_free_.assign(network_.workers(), 0.0);
  proc_free_.assign(n, 0.0);
  double ingress_free = 0.0;

  const auto order = dispatch_order(loads, config);
  schedule.installments.reserve(order.size());

  for (const auto& [load_index, chunk] : order) {
    const LoadSpec& load = loads[load_index];
    Installment inst;
    inst.load = load_index;
    inst.index_in_load = chunk;
    inst.size = installment_size(load.size, chunks, chunk);
    const double s = inst.size;

    // Ingress staging: the chunk's bytes reach the root over the
    // one-port admission link. With ingress_z == 0 the chunk is
    // resident from its release and staging is the identity.
    if (config.ingress_z > 0.0) {
      inst.stage_start = std::max(load.release, ingress_free);
      inst.stage_done = inst.stage_start + s * config.ingress_z;
      ingress_free = inst.stage_done;
    } else {
      inst.stage_start = load.release;
      inst.stage_done = load.release;
    }

    // One-port links: link l_j may start this chunk only after it
    // finished the previous chunk. The chunk occupies l_j during
    // [C + s·A_{j-1}, C + s·A_j], so C >= link_free_j − s·A_{j-1}.
    double comm_start = inst.stage_done;
    for (std::size_t j = 1; j <= network_.workers(); ++j) {
      comm_start =
          std::max(comm_start, link_free_[j - 1] - s * unit_arrival_[j - 1]);
    }
    inst.comm_start = comm_start;
    for (std::size_t j = 1; j <= network_.workers(); ++j) {
      link_free_[j - 1] = comm_start + s * unit_arrival_[j];
    }

    // Per-processor timeline. The root computes its share once the
    // chunk is staged (its data is local; distribution runs on the
    // send port concurrently); P_i (i >= 1) computes once the chunk
    // fully arrives, store-and-forward.
    inst.arrival.resize(n);
    inst.compute_start.resize(n);
    inst.finish.resize(n);
    inst.blocked = false;
    double max_finish = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      inst.arrival[i] =
          i == 0 ? inst.stage_done : comm_start + s * unit_arrival_[i];
      const double start = std::max(inst.arrival[i], proc_free_[i]);
      if (start > inst.arrival[i]) inst.blocked = true;
      inst.compute_start[i] = start;
      inst.finish[i] = start + s * unit_compute_[i];
      proc_free_[i] = inst.finish[i];
      max_finish = std::max(max_finish, inst.finish[i]);
    }
    // Theorem 2.1 closed form: an unblocked chunk finishes everywhere
    // at comm_start + s·makespan. One load of unit size starting at 0
    // therefore completes at exactly chain_.makespan, bit for bit. A
    // single-processor chain has no T_i = makespan participant beyond
    // the root, so it reports the root recurrence directly (still
    // bit-identical: α_0 = α̂_0 = 1 makes them the same product).
    const bool closed_form = !inst.blocked && network_.workers() > 0;
    inst.completion =
        closed_form ? comm_start + s * chain_.makespan : max_finish;

    LoadOutcome& outcome = schedule.loads[load_index];
    if (chunk == 0) outcome.start = inst.comm_start;
    outcome.completion = std::max(outcome.completion, inst.completion);
    schedule.installments.push_back(std::move(inst));
  }

  for (LoadOutcome& outcome : schedule.loads) {
    outcome.deadline_met = outcome.spec.deadline <= 0.0 ||
                           outcome.completion <= outcome.spec.deadline;
    schedule.makespan = std::max(schedule.makespan, outcome.completion);
  }
  schedule.serialized_makespan =
      serialized_makespan_with_ingress(loads, config.ingress_z);

  if constexpr (check::enabled(1)) {
    check::check_multiload_schedule(network_, loads, config, schedule);
  }
  return schedule;
}

double MultiLoadSolver::serialized_makespan_with_ingress(
    const std::vector<LoadSpec>& loads, double ingress_z) const {
  std::vector<std::size_t> by_release(loads.size());
  std::iota(by_release.begin(), by_release.end(), std::size_t{0});
  std::stable_sort(by_release.begin(), by_release.end(),
                   [&loads](std::size_t a, std::size_t b) {
                     return loads[a].release < loads[b].release;
                   });
  double clock = 0.0;
  for (std::size_t k : by_release) {
    const double start = std::max(loads[k].release, clock);
    clock = start + loads[k].size * (ingress_z + chain_.makespan);
  }
  return clock;
}

}  // namespace dls::multiload
