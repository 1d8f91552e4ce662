// Experiment TREE — the companion tree-network setting [9], built on the
// recursive star reduction: makespan across tree shapes on identical
// hardware, equal-finish validation against the tree executor, and the
// DLS-T mechanism's truthful economics.
//
// Reproduction targets: star <= balanced trees <= chain on uniform
// hardware (the relay-depth spectrum); all-node simultaneous completion
// at the optimum, with the executor's replay of each schedule landing on
// the closed-form finish times and never sending two transfers from one
// port at once; non-negative truthful utilities and a zero
// truth-advantage gap for the tree mechanism.
#include <iostream>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/tolerance.hpp"
#include "core/dls_tree.hpp"
#include "dlt/tree.hpp"
#include "net/tree.hpp"
#include "sim/tree_execution.hpp"

int main() {
  std::cout << "=== TREE: topology spectrum and the DLS-T mechanism ===\n\n";

  // ---- Shape spectrum at fixed node count.
  {
    std::cout << "--- 15 identical processors (w = 1, z = 0.2), varying "
                 "shape ---\n";
    using dls::net::TreeNetwork;
    struct Case {
      const char* name;
      TreeNetwork tree;
    };
    const double w = 1.0, z = 0.2;
    const Case cases[] = {
        {"chain (height 14)",
         TreeNetwork::chain(std::vector<double>(15, w),
                            std::vector<double>(14, z))},
        {"binary tree (height 3)", TreeNetwork::balanced(2, 3, w, z)},
        {"14-ary star (height 1)",
         TreeNetwork::star(w, std::vector<double>(14, w),
                           std::vector<double>(14, z))},
    };
    dls::common::Table table({{"shape", dls::common::Align::kLeft},
                              {"height"},
                              {"makespan"},
                              {"speedup vs 1 proc"},
                              {"finish spread"},
                              {"executor max err"},
                              {"one-port"}});
    double worst = 0.0;
    for (const Case& c : cases) {
      const auto sol = dls::dlt::solve_tree(c.tree);
      const auto finish = dls::dlt::tree_finish_times(c.tree, sol);
      const auto run = dls::sim::execute_tree(
          c.tree, sol, dls::sim::TreeExecutionPlan::compliant(c.tree));
      double lo = 1e300, hi = 0.0, err = 0.0;
      for (std::size_t v = 0; v < finish.size(); ++v) {
        lo = std::min(lo, finish[v]);
        hi = std::max(hi, finish[v]);
        err = std::max(err, dls::common::relative_error(
                                finish[v], run.finish_time[v]));
      }
      worst = std::max(worst, err);
      table.add_row({c.name, c.tree.height(),
                     dls::common::Cell(sol.makespan, 4),
                     dls::common::Cell(w / sol.makespan, 2),
                     dls::common::Cell(hi - lo, 12),
                     dls::common::Cell(err, 12),
                     run.trace.check_one_port().empty() ? "ok" : "FAIL"});
    }
    table.print(std::cout);
    std::cout << "executor vs closed form: max error " << worst << "  ("
              << (worst <= 1e-12 ? "PASS" : "FAIL") << " <= 1e-12)\n\n";
  }

  // ---- Fanout sweep: how much does width buy at fixed node count?
  {
    std::cout << "--- 40 identical processors arranged as r-ary trees ---\n";
    dls::common::Table table(
        {{"arity"}, {"height"}, {"makespan"}, {"speedup"}});
    for (const std::size_t arity : {1u, 2u, 3u, 6u, 13u, 39u}) {
      // Build an arity-ary tree with exactly 40 nodes (BFS fill).
      std::vector<double> w(40, 1.0), z(40, 1.0);
      std::vector<std::size_t> parent(40, 0);
      for (std::size_t i = 1; i < 40; ++i) {
        parent[i] = (i - 1) / arity;
        z[i] = 0.2;
      }
      const dls::net::TreeNetwork tree(w, z, parent);
      const auto sol = dls::dlt::solve_tree(tree);
      table.add_row({static_cast<std::int64_t>(arity), tree.height(),
                     dls::common::Cell(sol.makespan, 4),
                     dls::common::Cell(1.0 / sol.makespan, 2)});
    }
    table.print(std::cout);
    std::cout << '\n';
  }

  // ---- DLS-T economics on random trees.
  {
    dls::common::Rng rng(606);
    const dls::core::MechanismConfig config;
    dls::common::OnlineStats truthful_min;
    double worst_gap = -1e300;
    int participation_violations = 0;
    constexpr int kInstances = 80;
    for (int rep = 0; rep < kInstances; ++rep) {
      const auto n = static_cast<std::size_t>(rng.uniform_int(3, 14));
      const auto tree =
          dls::net::TreeNetwork::random(n, rng, 0.5, 5.0, 0.05, 0.5);
      std::vector<double> rates(n);
      for (std::size_t i = 0; i < n; ++i) rates[i] = tree.w(i);
      const auto result = dls::core::assess_dls_tree(tree, rates, config);
      for (std::size_t v = 1; v < n; ++v) {
        truthful_min.add(result.nodes[v].utility);
        if (result.nodes[v].utility < -1e-9) ++participation_violations;
        const double t = tree.w(v);
        const double truth_u =
            dls::core::tree_utility_under_bid(tree, v, t, t, config);
        for (const double f : {0.4, 0.8, 1.25, 2.0}) {
          const double u =
              dls::core::tree_utility_under_bid(tree, v, t * f, t, config);
          worst_gap = std::max(worst_gap, u - truth_u);
        }
      }
    }
    std::cout << "DLS-T on " << kInstances << " random trees:\n"
              << "  min truthful utility: " << truthful_min.min() << " ("
              << (participation_violations == 0 ? "PASS" : "FAIL")
              << " voluntary participation)\n"
              << "  max bid-deviation advantage: " << worst_gap << " ("
              << (worst_gap <= 1e-9 ? "PASS" : "FAIL")
              << " strategyproofness)\n";
  }
  return 0;
}
