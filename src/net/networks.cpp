#include "net/networks.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>

#include "common/error.hpp"

namespace dls::net {

namespace {

/// Cold failure path of require_positive, kept out of line so the check
/// loop never builds a message: LinearNetwork::validate also checks
/// every lane BatchLinearSolver::set_instance stages.
[[noreturn]] void throw_rate_domain(const char* what, double v) {
  throw dls::InfeasibleError(std::string(what) +
                             " must be finite and positive, got " +
                             std::to_string(v));
}

/// Every rate is a finite positive time: `!(v > 0)` alone also rejects
/// NaN, but +inf would pass it and reach the solvers as a NaN makespan.
void require_positive(std::span<const double> values, const char* what) {
  for (const double v : values) {
    if (!(v > 0.0) || !std::isfinite(v)) throw_rate_domain(what, v);
  }
}

}  // namespace

LinearNetwork::LinearNetwork(std::vector<double> w, std::vector<double> z)
    : w_(std::move(w)), z_(std::move(z)) {
  validate(w_, z_);
}

void LinearNetwork::validate(std::span<const double> w,
                             std::span<const double> z) {
  DLS_REQUIRE(w.size() >= 1, "linear network needs at least one processor");
  DLS_REQUIRE(z.size() + 1 == w.size(),
              "linear network needs exactly one link per non-root processor");
  require_positive(w, "processing time w");
  require_positive(z, "link time z");
}

double LinearNetwork::w(std::size_t i) const {
  DLS_REQUIRE(i < w_.size(), "processor index out of range");
  return w_[i];
}

double LinearNetwork::z(std::size_t j) const {
  DLS_REQUIRE(j >= 1 && j <= z_.size(), "link index out of range");
  return z_[j - 1];
}

LinearNetwork LinearNetwork::with_processing_time(std::size_t i,
                                                  double w) const {
  DLS_REQUIRE(i < w_.size(), "processor index out of range");
  std::vector<double> nw = w_;
  nw[i] = w;
  return LinearNetwork(std::move(nw), z_);
}

LinearNetwork LinearNetwork::suffix(std::size_t i) const {
  DLS_REQUIRE(i < w_.size(), "suffix start out of range");
  std::vector<double> nw(w_.begin() + static_cast<std::ptrdiff_t>(i),
                         w_.end());
  std::vector<double> nz(z_.begin() + static_cast<std::ptrdiff_t>(i),
                         z_.end());
  return LinearNetwork(std::move(nw), std::move(nz));
}

LinearNetwork LinearNetwork::uniform(std::size_t processors, double w,
                                     double z) {
  DLS_REQUIRE(processors >= 1, "need at least one processor");
  return LinearNetwork(std::vector<double>(processors, w),
                       std::vector<double>(processors - 1, z));
}

LinearNetwork LinearNetwork::random(std::size_t processors, common::Rng& rng,
                                    double w_lo, double w_hi, double z_lo,
                                    double z_hi) {
  DLS_REQUIRE(processors >= 1, "need at least one processor");
  std::vector<double> w(processors);
  std::vector<double> z(processors - 1);
  for (auto& wi : w) wi = rng.log_uniform(w_lo, w_hi);
  for (auto& zj : z) zj = rng.log_uniform(z_lo, z_hi);
  return LinearNetwork(std::move(w), std::move(z));
}

std::string LinearNetwork::describe() const {
  std::ostringstream os;
  os << "LinearNetwork(m+1=" << size() << "; w=[";
  for (std::size_t i = 0; i < w_.size(); ++i) {
    if (i) os << ", ";
    os << w_[i];
  }
  os << "]; z=[";
  for (std::size_t i = 0; i < z_.size(); ++i) {
    if (i) os << ", ";
    os << z_[i];
  }
  os << "])";
  return os.str();
}

InteriorLinearNetwork::InteriorLinearNetwork(std::vector<double> w,
                                             std::vector<double> z,
                                             std::size_t root)
    : w_(std::move(w)), z_(std::move(z)), root_(root) {
  DLS_REQUIRE(w_.size() >= 3,
              "interior origination needs at least three processors");
  DLS_REQUIRE(z_.size() + 1 == w_.size(), "one link per adjacent pair");
  DLS_REQUIRE(root_ > 0 && root_ + 1 < w_.size(),
              "root must be an interior processor");
  require_positive(w_, "processing time w");
  require_positive(z_, "link time z");
}

double InteriorLinearNetwork::w(std::size_t i) const {
  DLS_REQUIRE(i < w_.size(), "processor index out of range");
  return w_[i];
}

double InteriorLinearNetwork::z(std::size_t j) const {
  DLS_REQUIRE(j >= 1 && j <= z_.size(), "link index out of range");
  return z_[j - 1];
}

LinearNetwork InteriorLinearNetwork::left_chain() const {
  // Chain (P_root, P_root-1, ..., P_0): reverse the prefix.
  std::vector<double> w(root_ + 1);
  std::vector<double> z(root_);
  for (std::size_t i = 0; i <= root_; ++i) w[i] = w_[root_ - i];
  for (std::size_t j = 1; j <= root_; ++j) z[j - 1] = z_[root_ - j];
  return LinearNetwork(std::move(w), std::move(z));
}

LinearNetwork InteriorLinearNetwork::right_chain() const {
  std::vector<double> w(w_.begin() + static_cast<std::ptrdiff_t>(root_),
                        w_.end());
  std::vector<double> z(z_.begin() + static_cast<std::ptrdiff_t>(root_),
                        z_.end());
  return LinearNetwork(std::move(w), std::move(z));
}

StarNetwork::StarNetwork(double root_w, std::vector<double> worker_w,
                         std::vector<double> worker_z)
    : root_w_(root_w), w_(std::move(worker_w)), z_(std::move(worker_z)) {
  DLS_REQUIRE(!w_.empty(), "star network needs at least one worker");
  DLS_REQUIRE(w_.size() == z_.size(), "one link per worker");
  require_positive(w_, "worker processing time w");
  require_positive(z_, "worker link time z");
}

double StarNetwork::w(std::size_t i) const {
  DLS_REQUIRE(i < w_.size(), "worker index out of range");
  return w_[i];
}

double StarNetwork::z(std::size_t i) const {
  DLS_REQUIRE(i < z_.size(), "worker index out of range");
  return z_[i];
}

std::vector<std::size_t> StarNetwork::order_by_link_speed() const {
  std::vector<std::size_t> order(w_.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) { return z_[a] < z_[b]; });
  return order;
}

StarNetwork StarNetwork::random(std::size_t workers, common::Rng& rng,
                                double w_lo, double w_hi, double z_lo,
                                double z_hi, bool root_computes) {
  DLS_REQUIRE(workers >= 1, "need at least one worker");
  std::vector<double> w(workers);
  std::vector<double> z(workers);
  for (auto& wi : w) wi = rng.log_uniform(w_lo, w_hi);
  for (auto& zi : z) zi = rng.log_uniform(z_lo, z_hi);
  const double root_w = root_computes ? rng.log_uniform(w_lo, w_hi) : 0.0;
  return StarNetwork(root_w, std::move(w), std::move(z));
}

BusNetwork::BusNetwork(double root_w, std::vector<double> worker_w,
                       double bus_z)
    : root_w_(root_w), w_(std::move(worker_w)), z_(bus_z) {
  DLS_REQUIRE(!w_.empty(), "bus network needs at least one worker");
  DLS_REQUIRE(z_ > 0.0 && std::isfinite(z_),
              "bus time must be finite and positive");
  require_positive(w_, "worker processing time w");
}

StarNetwork BusNetwork::as_star() const {
  return StarNetwork(root_w_, w_, std::vector<double>(w_.size(), z_));
}

}  // namespace dls::net
