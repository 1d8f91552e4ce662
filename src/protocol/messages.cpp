#include "protocol/messages.hpp"

#include <sstream>

#include "common/tolerance.hpp"

namespace dls::protocol {

namespace {

using crypto::Claim;
using crypto::ClaimKind;
using crypto::SignedClaim;

VerificationResult check_claim(const crypto::KeyRegistry& registry,
                               const SignedClaim& sc, ClaimKind kind,
                               crypto::AgentId signer,
                               crypto::AgentId subject, std::uint64_t round,
                               const char* label) {
  std::ostringstream os;
  if (sc.claim.kind != kind) {
    os << label << ": wrong claim kind " << crypto::to_string(sc.claim.kind);
    return VerificationResult::fail(os.str());
  }
  if (sc.signer != signer) {
    os << label << ": expected signer P" << signer << ", got P" << sc.signer;
    return VerificationResult::fail(os.str());
  }
  if (sc.claim.subject != subject) {
    os << label << ": expected subject P" << subject << ", got P"
       << sc.claim.subject;
    return VerificationResult::fail(os.str());
  }
  if (sc.claim.round != round) {
    os << label << ": stale round " << sc.claim.round;
    return VerificationResult::fail(os.str());
  }
  if (!crypto::verify(registry, sc)) {
    os << label << ": signature verification failed";
    return VerificationResult::fail(os.str());
  }
  return VerificationResult::pass();
}

}  // namespace

VerificationResult verify_allocation_message(
    const crypto::KeyRegistry& registry, const AllocationMessage& message,
    std::size_t i, double z_i, const crypto::SignedClaim& own_bid,
    std::uint64_t round, double rel_tol) {
  const auto self = static_cast<crypto::AgentId>(i);
  const auto pred = static_cast<crypto::AgentId>(i - 1);
  // For i = 1 the "predecessor's predecessor" is the root itself.
  const auto pred2 = i >= 2 ? static_cast<crypto::AgentId>(i - 2)
                            : crypto::AgentId{0};

  // (a) Authenticity and integrity of all five claims.
  if (auto r = check_claim(registry, message.received_pred,
                           ClaimKind::kReceivedLoad, pred2, pred, round,
                           "D_{i-1}");
      !r.ok) {
    return r;
  }
  if (auto r = check_claim(registry, message.received_self,
                           ClaimKind::kReceivedLoad, pred, self, round,
                           "D_i");
      !r.ok) {
    return r;
  }
  // The paper writes dsm_{i-2}(w̄_{i-1}) for this slot; we forward the
  // predecessor's *original* Phase I claim instead (its own signature
  // intact), which is at least as strong: nobody can alter the bid in
  // transit without breaking the signature.
  if (auto r = check_claim(registry, message.equiv_bid_pred,
                           ClaimKind::kEquivalentBid, pred, pred, round,
                           "w̄_{i-1}");
      !r.ok) {
    return r;
  }
  if (auto r = check_claim(registry, message.rate_bid_pred,
                           ClaimKind::kBidRate, pred, pred, round,
                           "w_{i-1}");
      !r.ok) {
    return r;
  }
  if (auto r = check_claim(registry, message.equiv_bid_self,
                           ClaimKind::kEquivalentBid, self, self, round,
                           "w̄_i echo");
      !r.ok) {
    return r;
  }

  // (b) The echo must match the Phase I bid P_i actually sent — a
  // mismatch means somebody substituted the bid en route (the
  // "contradictory messages" case).
  if (message.equiv_bid_self != own_bid) {
    return VerificationResult::fail(
        "w̄_i echo differs from the bid sent in Phase I");
  }

  // (c) Numeric consistency (the recipient's own arithmetic checks).
  const double d_pred = message.received_pred.claim.value;
  const double d_self = message.received_self.claim.value;
  if (!(d_pred > 0.0) || d_self < 0.0 || d_self > d_pred) {
    return VerificationResult::fail(
        "received-load fractions are not a valid split");
  }
  const double alpha_hat_pred = (d_pred - d_self) / d_pred;
  const double w_pred = message.rate_bid_pred.claim.value;
  const double wbar_pred = message.equiv_bid_pred.claim.value;
  const double wbar_self = message.equiv_bid_self.claim.value;
  if (!common::approx_equal(wbar_pred, alpha_hat_pred * w_pred, rel_tol)) {
    std::ostringstream os;
    os << "w̄_{i-1} != α̂_{i-1} w_{i-1}: " << wbar_pred << " vs "
       << alpha_hat_pred * w_pred;
    return VerificationResult::fail(os.str());
  }
  const double lhs = alpha_hat_pred * w_pred;
  const double rhs = (1.0 - alpha_hat_pred) * (wbar_self + z_i);
  if (!common::approx_equal(lhs, rhs, rel_tol)) {
    std::ostringstream os;
    os << "balance condition (2.7) violated: " << lhs << " vs " << rhs;
    return VerificationResult::fail(os.str());
  }
  return VerificationResult::pass();
}

}  // namespace dls::protocol
