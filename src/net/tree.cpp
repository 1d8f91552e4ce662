#include "net/tree.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace dls::net {

TreeNetwork::TreeNetwork(std::vector<double> w, std::vector<double> z,
                         std::vector<std::size_t> parent)
    : w_(std::move(w)), z_(std::move(z)), parent_(std::move(parent)) {
  DLS_REQUIRE(!w_.empty(), "tree needs at least one node");
  DLS_REQUIRE(z_.size() == w_.size() && parent_.size() == w_.size(),
              "w, z and parent must have one entry per node");
  children_.resize(w_.size());
  for (std::size_t i = 0; i < w_.size(); ++i) {
    if (!(w_[i] > 0.0) || !std::isfinite(w_[i])) {
      throw dls::InfeasibleError(
          "processing time must be finite and positive");
    }
    if (i == 0) continue;
    if (!(z_[i] > 0.0) || !std::isfinite(z_[i])) {
      throw dls::InfeasibleError("link time must be finite and positive");
    }
    DLS_REQUIRE(parent_[i] < i,
                "parents must precede children (topological numbering)");
    children_[parent_[i]].push_back(i);
  }
}

double TreeNetwork::w(std::size_t i) const {
  DLS_REQUIRE(i < w_.size(), "node index out of range");
  return w_[i];
}

double TreeNetwork::z(std::size_t i) const {
  DLS_REQUIRE(i >= 1 && i < z_.size(), "link index out of range");
  return z_[i];
}

std::size_t TreeNetwork::parent(std::size_t i) const {
  DLS_REQUIRE(i >= 1 && i < parent_.size(), "node index out of range");
  return parent_[i];
}

std::span<const std::size_t> TreeNetwork::children(std::size_t i) const {
  DLS_REQUIRE(i < children_.size(), "node index out of range");
  return children_[i];
}

std::size_t TreeNetwork::depth(std::size_t i) const {
  DLS_REQUIRE(i < w_.size(), "node index out of range");
  std::size_t d = 0;
  while (i != 0) {
    i = parent_[i];
    ++d;
  }
  return d;
}

std::size_t TreeNetwork::height() const {
  std::size_t h = 0;
  for (std::size_t i = 0; i < w_.size(); ++i) h = std::max(h, depth(i));
  return h;
}

TreeNetwork TreeNetwork::chain(std::vector<double> w, std::vector<double> z) {
  DLS_REQUIRE(z.size() + 1 == w.size(),
              "chain needs one link per non-root node");
  const std::size_t n = w.size();
  std::vector<double> zz(n, 1.0);
  std::vector<std::size_t> parent(n, 0);
  for (std::size_t i = 1; i < n; ++i) {
    zz[i] = z[i - 1];
    parent[i] = i - 1;
  }
  return TreeNetwork(std::move(w), std::move(zz), std::move(parent));
}

TreeNetwork TreeNetwork::star(double root_w, std::vector<double> worker_w,
                              std::vector<double> worker_z) {
  DLS_REQUIRE(worker_w.size() == worker_z.size(), "one link per worker");
  const std::size_t n = worker_w.size() + 1;
  std::vector<double> w(n), z(n, 1.0);
  std::vector<std::size_t> parent(n, 0);
  w[0] = root_w;
  for (std::size_t i = 1; i < n; ++i) {
    w[i] = worker_w[i - 1];
    z[i] = worker_z[i - 1];
  }
  return TreeNetwork(std::move(w), std::move(z), std::move(parent));
}

TreeNetwork TreeNetwork::balanced(std::size_t arity, std::size_t levels,
                                  double w, double z) {
  DLS_REQUIRE(arity >= 1, "arity must be at least 1");
  std::vector<double> ws = {w};
  std::vector<double> zs = {1.0};
  std::vector<std::size_t> parent = {0};
  std::size_t level_begin = 0;
  std::size_t level_end = 1;
  for (std::size_t level = 0; level < levels; ++level) {
    const std::size_t next_begin = ws.size();
    for (std::size_t p = level_begin; p < level_end; ++p) {
      for (std::size_t c = 0; c < arity; ++c) {
        parent.push_back(p);
        ws.push_back(w);
        zs.push_back(z);
      }
    }
    level_begin = next_begin;
    level_end = ws.size();
  }
  return TreeNetwork(std::move(ws), std::move(zs), std::move(parent));
}

TreeNetwork TreeNetwork::random(std::size_t nodes, common::Rng& rng,
                                double w_lo, double w_hi, double z_lo,
                                double z_hi) {
  DLS_REQUIRE(nodes >= 1, "tree needs at least one node");
  std::vector<double> w(nodes), z(nodes, 1.0);
  std::vector<std::size_t> parent(nodes, 0);
  for (std::size_t i = 0; i < nodes; ++i) {
    w[i] = rng.log_uniform(w_lo, w_hi);
    if (i == 0) continue;
    z[i] = rng.log_uniform(z_lo, z_hi);
    parent[i] = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(i) - 1));
  }
  return TreeNetwork(std::move(w), std::move(z), std::move(parent));
}

}  // namespace dls::net
