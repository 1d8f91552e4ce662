#include "core/alt_payments.hpp"

#include "common/error.hpp"
#include "dlt/linear.hpp"

namespace dls::core {

namespace {

/// A rate large enough to reduce a processor to a relay: Algorithm 1
/// assigns it a vanishing share.
constexpr double kRelayRate = 1e9;

net::LinearNetwork with_bid(const net::LinearNetwork& net, std::size_t index,
                            double bid) {
  return net.with_processing_time(index, bid);
}

}  // namespace

double makespan_without(const net::LinearNetwork& bid_network,
                        std::size_t index) {
  return dlt::solve_linear_boundary(
             with_bid(bid_network, index, kRelayRate))
      .makespan;
}

double paper_vcg_utility_under_bid(const net::LinearNetwork& true_network,
                                   std::size_t index, double bid,
                                   double actual_rate) {
  DLS_REQUIRE(index >= 1 && index < true_network.size(),
              "index must name a strategic worker");
  DLS_REQUIRE(bid > 0.0, "bid must be positive");
  DLS_REQUIRE(actual_rate >= true_network.w(index) - 1e-12,
              "cannot execute faster than the true rate");
  const net::LinearNetwork bids = with_bid(true_network, index, bid);
  // V + C cancel (metered compensation); utility is the bid-only bonus.
  const double t = dlt::solve_linear_boundary(bids).makespan;
  const double t_without = makespan_without(bids, index);
  (void)actual_rate;  // never consulted — the rule's defect
  return t_without - t;
}

}  // namespace dls::core
