// Tests for tree networks and the recursive star-reduction solver. The
// unary tree must agree with the LINEAR BOUNDARY-LINEAR solver and the
// depth-1 tree with the star solver — strong cross-checks between three
// independently-implemented reductions.
#include <gtest/gtest.h>

#include <limits>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "dlt/linear.hpp"
#include "dlt/star.hpp"
#include "dlt/tree.hpp"
#include "net/networks.hpp"
#include "net/tree.hpp"

namespace {

using dls::common::Rng;
using dls::dlt::solve_linear_boundary;
using dls::dlt::solve_star;
using dls::dlt::solve_tree;
using dls::dlt::tree_finish_times;
using dls::dlt::TreeSolution;
using dls::net::LinearNetwork;
using dls::net::StarNetwork;
using dls::net::TreeNetwork;

TEST(TreeNetwork, ValidatesStructure) {
  EXPECT_THROW(TreeNetwork({}, {}, {}), dls::PreconditionError);
  // Parent after child violates topological numbering.
  EXPECT_THROW(TreeNetwork({1.0, 1.0}, {1.0, 0.5}, {0, 1}),
               dls::PreconditionError);
  EXPECT_THROW(TreeNetwork({1.0, -1.0}, {1.0, 0.5}, {0, 0}),
               dls::InfeasibleError);
  EXPECT_THROW(TreeNetwork({1.0, 1.0}, {1.0, 0.0}, {0, 0}),
               dls::InfeasibleError);
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(TreeNetwork({1.0, inf}, {1.0, 0.5}, {0, 0}),
               dls::InfeasibleError);
  EXPECT_THROW(TreeNetwork({1.0, 1.0}, {1.0, inf}, {0, 0}),
               dls::InfeasibleError);
}

TEST(TreeNetwork, DepthHeightChildren) {
  // Shape:  0 -> {1, 2};  2 -> {3}
  const TreeNetwork tree({1, 1, 1, 1}, {1, 0.1, 0.2, 0.3}, {0, 0, 0, 2});
  EXPECT_EQ(tree.depth(0), 0u);
  EXPECT_EQ(tree.depth(3), 2u);
  EXPECT_EQ(tree.height(), 2u);
  EXPECT_TRUE(tree.is_leaf(1));
  EXPECT_FALSE(tree.is_leaf(2));
  ASSERT_EQ(tree.children(0).size(), 2u);
  EXPECT_EQ(tree.parent(3), 2u);
}

TEST(TreeNetwork, BalancedShape) {
  const TreeNetwork tree = TreeNetwork::balanced(2, 3, 1.0, 0.2);
  EXPECT_EQ(tree.size(), 1u + 2 + 4 + 8);
  EXPECT_EQ(tree.height(), 3u);
  EXPECT_EQ(tree.children(0).size(), 2u);
}

TEST(SolveTree, UnaryTreeMatchesLinearSolver) {
  Rng rng(21);
  for (int rep = 0; rep < 10; ++rep) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(2, 15));
    const LinearNetwork chain =
        LinearNetwork::random(n, rng, 0.5, 5.0, 0.05, 0.5);
    const TreeNetwork tree = TreeNetwork::chain(
        {chain.processing_times().begin(), chain.processing_times().end()},
        {chain.link_times().begin(), chain.link_times().end()});
    const auto linear_sol = solve_linear_boundary(chain);
    const TreeSolution tree_sol = solve_tree(tree);
    EXPECT_NEAR(tree_sol.makespan, linear_sol.makespan, 1e-12);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(tree_sol.alpha[i], linear_sol.alpha[i], 1e-12) << i;
      EXPECT_NEAR(tree_sol.equivalent_w[i], linear_sol.equivalent_w[i],
                  1e-12);
    }
  }
}

TEST(SolveTree, DepthOneTreeMatchesStarSolver) {
  Rng rng(22);
  for (int rep = 0; rep < 10; ++rep) {
    const auto m = static_cast<std::size_t>(rng.uniform_int(1, 10));
    const StarNetwork star =
        StarNetwork::random(m, rng, 0.5, 5.0, 0.05, 0.5, true);
    std::vector<double> worker_w, worker_z;
    for (std::size_t i = 0; i < m; ++i) {
      worker_w.push_back(star.w(i));
      worker_z.push_back(star.z(i));
    }
    const TreeNetwork tree =
        TreeNetwork::star(star.root_w(), worker_w, worker_z);
    const auto star_sol = solve_star(star);
    const TreeSolution tree_sol = solve_tree(tree);
    EXPECT_NEAR(tree_sol.makespan, star_sol.makespan, 1e-12);
    EXPECT_NEAR(tree_sol.alpha[0], star_sol.alpha_root, 1e-12);
    for (std::size_t i = 0; i < m; ++i) {
      EXPECT_NEAR(tree_sol.alpha[i + 1], star_sol.alpha[i], 1e-12);
    }
  }
}

TEST(SolveTree, EveryNodeFinishesSimultaneously) {
  Rng rng(23);
  for (int rep = 0; rep < 20; ++rep) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(2, 40));
    const TreeNetwork tree =
        TreeNetwork::random(n, rng, 0.5, 5.0, 0.05, 0.5);
    const TreeSolution sol = solve_tree(tree);
    double total = 0.0;
    for (const double a : sol.alpha) {
      EXPECT_GT(a, 0.0);
      total += a;
    }
    EXPECT_NEAR(total, 1.0, 1e-12);
    const std::vector<double> finish = tree_finish_times(tree, sol);
    for (std::size_t v = 0; v < n; ++v) {
      EXPECT_NEAR(finish[v], sol.makespan, 1e-9) << "node " << v;
    }
  }
}

TEST(SolveTree, SubtreeEquivalentsMatchStandaloneSolves) {
  Rng rng(24);
  const TreeNetwork tree = TreeNetwork::random(20, rng, 0.5, 5.0, 0.05, 0.5);
  const TreeSolution sol = solve_tree(tree);
  // ρ of a leaf is its own rate; ρ of the root is the makespan.
  for (std::size_t v = 0; v < tree.size(); ++v) {
    if (tree.is_leaf(v)) {
      EXPECT_DOUBLE_EQ(sol.equivalent_w[v], tree.w(v));
    }
  }
  EXPECT_DOUBLE_EQ(sol.equivalent_w[0], sol.makespan);
}

TEST(SolveTree, FlatterTreesAreFasterOnUniformHardware) {
  // Same node count, same rates: star beats balanced binary beats chain
  // (shorter relay paths win under store-and-forward).
  const std::size_t nodes = 15;
  const double w = 1.0, z = 0.2;
  const TreeNetwork chain = TreeNetwork::chain(
      std::vector<double>(nodes, w), std::vector<double>(nodes - 1, z));
  const TreeNetwork binary = TreeNetwork::balanced(2, 3, w, z);  // 15 nodes
  const TreeNetwork star = TreeNetwork::star(
      w, std::vector<double>(nodes - 1, w), std::vector<double>(nodes - 1, z));
  const double t_chain = solve_tree(chain).makespan;
  const double t_binary = solve_tree(binary).makespan;
  const double t_star = solve_tree(star).makespan;
  EXPECT_LT(t_star, t_binary);
  EXPECT_LT(t_binary, t_chain);
}

TEST(SolveTree, SlowerNodeGetsLessLoad) {
  Rng rng(25);
  const TreeNetwork tree = TreeNetwork::random(12, rng, 0.5, 5.0, 0.05, 0.5);
  const TreeSolution before = solve_tree(tree);
  for (std::size_t v = 0; v < tree.size(); ++v) {
    std::vector<double> w(tree.size()), z(tree.size(), 1.0);
    std::vector<std::size_t> parent(tree.size(), 0);
    for (std::size_t i = 0; i < tree.size(); ++i) {
      w[i] = i == v ? tree.w(i) * 2.0 : tree.w(i);
      if (i >= 1) {
        z[i] = tree.z(i);
        parent[i] = tree.parent(i);
      }
    }
    const TreeSolution after =
        solve_tree(TreeNetwork(std::move(w), std::move(z), std::move(parent)));
    EXPECT_LT(after.alpha[v], before.alpha[v]) << "node " << v;
    EXPECT_GE(after.makespan, before.makespan - 1e-12);
  }
}

}  // namespace
