// Network descriptions for the DLT solvers and the simulator.
//
// Conventions (Sect. 2 of the paper):
//  * w_i is the time processor P_i needs to compute one unit of load
//    (smaller = faster machine);
//  * z_j is the time link l_j needs to move one unit of load from P_{j-1}
//    to P_j (smaller = faster link);
//  * the total load is normalised to 1.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "common/rng.hpp"

namespace dls::net {

/// An (m+1)-processor daisy chain P_0 - l_1 - P_1 - ... - l_m - P_m with
/// the load originating at P_0 (boundary origination, Figure 1).
class LinearNetwork {
 public:
  /// `w` has m+1 entries (P_0..P_m); `z` has m entries where z[j-1] is the
  /// unit communication time of link l_j. All values must be finite and
  /// positive.
  LinearNetwork(std::vector<double> w, std::vector<double> z);

  /// The constructor's checks without building a network: throws exactly
  /// what LinearNetwork(w, z) would throw for these rates.
  static void validate(std::span<const double> w, std::span<const double> z);

  /// Number of processors, m+1.
  std::size_t size() const noexcept { return w_.size(); }
  /// Number of strategic (non-root) processors, m.
  std::size_t workers() const noexcept { return w_.size() - 1; }

  /// Unit processing time of P_i, i in [0, m].
  double w(std::size_t i) const;
  /// Unit communication time of link l_j (P_{j-1} -> P_j), j in [1, m].
  double z(std::size_t j) const;

  std::span<const double> processing_times() const noexcept { return w_; }
  std::span<const double> link_times() const noexcept { return z_; }

  /// Copy with processor i's processing time replaced — the building block
  /// for "what if P_i had bid differently" counterfactuals.
  LinearNetwork with_processing_time(std::size_t i, double w) const;

  /// The sub-chain (P_i, ..., P_m) as its own boundary-origination network.
  LinearNetwork suffix(std::size_t i) const;

  /// Uniform chain: every processor at `w`, every link at `z`.
  static LinearNetwork uniform(std::size_t processors, double w, double z);

  /// Random chain with w ~ LogUniform[w_lo, w_hi], z ~ LogUniform[z_lo,
  /// z_hi]; deterministic given `rng`.
  static LinearNetwork random(std::size_t processors, common::Rng& rng,
                              double w_lo, double w_hi, double z_lo,
                              double z_hi);

  std::string describe() const;

 private:
  std::vector<double> w_;
  std::vector<double> z_;
};

/// A linear chain whose root sits at an interior position (the paper's
/// "interior load origination" variant, listed as future work). The root
/// splits the load between the left and right sub-chains, each of which is
/// a boundary-origination chain rooted at the origin.
class InteriorLinearNetwork {
 public:
  /// `root` must satisfy 0 < root < w.size()-1 (a true interior node).
  InteriorLinearNetwork(std::vector<double> w, std::vector<double> z,
                        std::size_t root);

  std::size_t size() const noexcept { return w_.size(); }
  std::size_t root() const noexcept { return root_; }
  double w(std::size_t i) const;
  /// z(j) is the link between P_{j-1} and P_j, j in [1, size()-1].
  double z(std::size_t j) const;

  /// Left arm (root, root-1, ..., 0) as a boundary chain rooted at the
  /// origin node.
  LinearNetwork left_chain() const;
  /// Right arm (root, root+1, ..., m) as a boundary chain.
  LinearNetwork right_chain() const;

 private:
  std::vector<double> w_;
  std::vector<double> z_;
  std::size_t root_;
};

/// A single-level star (root + m workers over dedicated links); the shape
/// used by the authors' companion tree-network mechanism [9]. The root can
/// optionally compute a share itself.
class StarNetwork {
 public:
  /// `worker_w` and `worker_z` have one entry per worker; `root_w` <= 0
  /// means the root does not compute.
  StarNetwork(double root_w, std::vector<double> worker_w,
              std::vector<double> worker_z);

  std::size_t workers() const noexcept { return w_.size(); }
  bool root_computes() const noexcept { return root_w_ > 0.0; }
  double root_w() const noexcept { return root_w_; }
  double w(std::size_t i) const;
  double z(std::size_t i) const;

  /// Workers sorted by ascending link time (the optimal service order for
  /// linear cost models).
  std::vector<std::size_t> order_by_link_speed() const;

  static StarNetwork random(std::size_t workers, common::Rng& rng,
                            double w_lo, double w_hi, double z_lo,
                            double z_hi, bool root_computes);

 private:
  double root_w_;
  std::vector<double> w_;
  std::vector<double> z_;
};

/// A bus network: root + m workers sharing one channel of unit time `z`
/// (the shape of the authors' companion bus-network mechanism [14]).
class BusNetwork {
 public:
  BusNetwork(double root_w, std::vector<double> worker_w, double bus_z);

  std::size_t workers() const noexcept { return w_.size(); }
  bool root_computes() const noexcept { return root_w_ > 0.0; }
  double root_w() const noexcept { return root_w_; }
  double bus_z() const noexcept { return z_; }

  /// Equivalent star: every link has the shared bus time.
  StarNetwork as_star() const;

 private:
  double root_w_;
  std::vector<double> w_;
  double z_;
};

}  // namespace dls::net
