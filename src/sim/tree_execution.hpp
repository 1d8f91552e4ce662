// Execution of tree schedules with possibly-deviant nodes — the tree
// analogue of sim/linear_execution.hpp, and the timed oracle for the
// closed-form finish times of dlt::tree_finish_times.
//
// A node owns its inbound load when the bulk transfer from its parent
// completes, keeps its (possibly shed) local share, and distributes the
// remainder to its children pro-rata to the bid-derived shares, serving
// them fastest-link-first over its one port while computing its own part
// (front-end overlap). The hierarchy makes the timing a single top-down
// recursion — no event queue needed.
#pragma once

#include <vector>

#include "dlt/tree.hpp"
#include "net/tree.hpp"
#include "sim/trace.hpp"

namespace dls::sim {

struct TreeExecutionPlan {
  /// Multiplier on the bid-derived local keep fraction (1 = compliant;
  /// < 1 sheds load onto the children). Leaves always keep everything.
  std::vector<double> keep_multiplier;
  /// w̃_v: unit compute time actually applied.
  std::vector<double> actual_rate;

  static TreeExecutionPlan compliant(const net::TreeNetwork& network);
};

struct TreeExecutionResult {
  std::vector<double> received;     ///< load arriving at each node
  std::vector<double> computed;     ///< load each node computed
  std::vector<double> finish_time;  ///< compute completion (0 if idle)
  double makespan = 0.0;
  Trace trace;
};

/// Executes the tree: the *distribution shape* (who gets which share of
/// the forwarded load, and the service order) comes from `bid_solution`;
/// the plan supplies actual behaviour. Link times come from `network`.
TreeExecutionResult execute_tree(const net::TreeNetwork& network,
                                 const dlt::TreeSolution& bid_solution,
                                 const TreeExecutionPlan& plan);

}  // namespace dls::sim
