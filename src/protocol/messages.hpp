// The Phase II allocation message and its verification.
//
// Phase II carries the allocation message G_i of eqs. (4.1)/(4.2): five
// signed claims binding the received-load fractions D_{i-1}, D_i, the
// predecessor's equivalent bid and rate bid, and the recipient's own
// echoed Phase I bid. The recipient re-derives
//   α̂_{i-1} = (D_{i-1} − D_i) / D_{i-1}
// and checks w̄_{i-1} = α̂_{i-1} w_{i-1} and the balance condition (2.7)
//   α̂_{i-1} w_{i-1} = (1 − α̂_{i-1})(w̄_i + z_i).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "crypto/signed_claim.hpp"

namespace dls::protocol {

/// Phase II: the allocation message G_i delivered to P_i (4.1)/(4.2).
struct AllocationMessage {
  crypto::SignedClaim received_pred;   ///< dsm_{i-2}(D_{i-1}) (dsm_0 for i=1)
  crypto::SignedClaim received_self;   ///< dsm_{i-1}(D_i)
  crypto::SignedClaim equiv_bid_pred;  ///< the predecessor's Phase I bid
                                       ///< claim, forwarded verbatim
                                       ///< (paper: dsm_{i-2}(w̄_{i-1}))
  crypto::SignedClaim rate_bid_pred;   ///< dsm_{i-1}(w_{i-1})
  crypto::SignedClaim equiv_bid_self;  ///< dsm_{i-1}(w̄_i), echo of Phase I
};

/// Result of verifying a message: empty string = OK, otherwise a
/// description of the first failed check (the grievance text).
struct VerificationResult {
  bool ok = true;
  std::string failure;

  static VerificationResult pass() { return {}; }
  static VerificationResult fail(std::string why) {
    return VerificationResult{false, std::move(why)};
  }
};

/// Full Phase II verification as P_i would perform it.
///  * `i`            — recipient's position (1-based worker position);
///  * `z_i`          — the recipient's inbound link time;
///  * `own_bid`      — the Phase I claim P_i itself sent (echo check);
///  * tolerances are relative (the arithmetic is floating point).
VerificationResult verify_allocation_message(
    const crypto::KeyRegistry& registry, const AllocationMessage& message,
    std::size_t i, double z_i, const crypto::SignedClaim& own_bid,
    std::uint64_t round, double rel_tol = 1e-9);

}  // namespace dls::protocol
