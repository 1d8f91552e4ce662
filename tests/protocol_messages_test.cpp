// Tests for Phase II allocation message verification, plus the Λ token
// device and the tamper-proof meter.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "crypto/pki.hpp"
#include "dlt/linear.hpp"
#include "net/networks.hpp"
#include "protocol/messages.hpp"
#include "protocol/meter.hpp"
#include "protocol/tokens.hpp"
#include "sim/linear_execution.hpp"

namespace {

using dls::common::Rng;
using dls::crypto::Claim;
using dls::crypto::ClaimKind;
using dls::crypto::KeyRegistry;
using dls::crypto::make_signed;
using dls::crypto::SignedClaim;
using dls::crypto::Signer;
using dls::net::LinearNetwork;
using dls::protocol::AllocationMessage;
using dls::protocol::TamperProofMeter;
using dls::protocol::TokenAuthority;
using dls::protocol::TokenBatch;
using dls::protocol::verify_allocation_message;

constexpr std::uint64_t kRound = 7;

struct Fixture {
  Rng rng{11};
  KeyRegistry registry;
  std::vector<Signer> signers;
  LinearNetwork net{{1.0, 1.0, 1.0}, {0.2, 0.2}};
  dls::dlt::LinearSolution sol = dls::dlt::solve_linear_boundary(net);

  Fixture() {
    for (std::uint32_t i = 0; i < 3; ++i) {
      signers.push_back(registry.enroll(i, rng));
    }
  }

  SignedClaim claim(std::uint32_t signer, ClaimKind kind,
                    std::uint32_t subject, double value) {
    return make_signed(signers[signer], Claim{kind, subject, kRound, value});
  }

  /// A fully consistent G_i for this network.
  AllocationMessage golden_g(std::size_t i) {
    const std::uint32_t self = static_cast<std::uint32_t>(i);
    const std::uint32_t pred = self - 1;
    const std::uint32_t pred2 = i >= 2 ? self - 2 : 0;
    AllocationMessage g;
    g.received_pred =
        claim(pred2, ClaimKind::kReceivedLoad, pred, sol.received[i - 1]);
    g.received_self =
        claim(pred, ClaimKind::kReceivedLoad, self, sol.received[i]);
    g.equiv_bid_pred =
        claim(pred, ClaimKind::kEquivalentBid, pred, sol.equivalent_w[i - 1]);
    g.rate_bid_pred =
        claim(pred, ClaimKind::kBidRate, pred, net.w(i - 1));
    g.equiv_bid_self =
        claim(self, ClaimKind::kEquivalentBid, self, sol.equivalent_w[i]);
    return g;
  }
};

TEST(AllocationMessage, GoldenMessagesVerifyForEveryPosition) {
  Fixture f;
  for (std::size_t i = 1; i < f.net.size(); ++i) {
    const AllocationMessage g = f.golden_g(i);
    const auto result = verify_allocation_message(
        f.registry, g, i, f.net.z(i), g.equiv_bid_self, kRound);
    EXPECT_TRUE(result.ok) << "i=" << i << ": " << result.failure;
  }
}

TEST(AllocationMessage, MiscomputedDIsDetected) {
  Fixture f;
  AllocationMessage g = f.golden_g(2);
  // The predecessor claims to ship 10% less than Algorithm 1 prescribes.
  g.received_self = f.claim(1, ClaimKind::kReceivedLoad, 2,
                            f.sol.received[2] * 0.9);
  const auto result = verify_allocation_message(
      f.registry, g, 2, f.net.z(2), g.equiv_bid_self, kRound);
  EXPECT_FALSE(result.ok);
}

TEST(AllocationMessage, TamperedValueFailsSignatureCheck) {
  Fixture f;
  AllocationMessage g = f.golden_g(2);
  g.rate_bid_pred.claim.value *= 1.01;  // tamper without re-signing
  const auto result = verify_allocation_message(
      f.registry, g, 2, f.net.z(2), g.equiv_bid_self, kRound);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.failure.find("signature"), std::string::npos);
}

TEST(AllocationMessage, SubstitutedEchoIsDetected) {
  Fixture f;
  AllocationMessage g = f.golden_g(2);
  // An attacker replaces the echoed bid with a different (validly
  // signed) one; the recipient compares against what it actually sent.
  const SignedClaim real_bid = g.equiv_bid_self;
  g.equiv_bid_self =
      f.claim(2, ClaimKind::kEquivalentBid, 2, f.sol.equivalent_w[2] * 1.1);
  const auto result = verify_allocation_message(
      f.registry, g, 2, f.net.z(2), real_bid, kRound);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.failure.find("echo"), std::string::npos);
}

TEST(AllocationMessage, InvalidSplitRejected) {
  Fixture f;
  AllocationMessage g = f.golden_g(1);
  g.received_pred = f.claim(0, ClaimKind::kReceivedLoad, 0, 0.3);
  g.received_self = f.claim(0, ClaimKind::kReceivedLoad, 1, 0.5);
  const auto result = verify_allocation_message(
      f.registry, g, 1, f.net.z(1), g.equiv_bid_self, kRound);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.failure.find("split"), std::string::npos);
}

// --------------------------------------------------------------------
// Λ tokens.

TEST(Tokens, IssueValidateRoundtrip) {
  Rng rng(3);
  TokenAuthority authority(1000, rng);
  TokenBatch batch = authority.issue_unit_load();
  EXPECT_EQ(batch.blocks(), 1000u);
  EXPECT_TRUE(authority.validate(batch));
  EXPECT_EQ(authority.to_blocks(0.25), 250u);
}

TEST(Tokens, TakeFrontSplitsWithoutLoss) {
  Rng rng(3);
  TokenAuthority authority(100, rng);
  TokenBatch batch = authority.issue_unit_load();
  TokenBatch front = batch.take_front(30);
  EXPECT_EQ(front.blocks(), 30u);
  EXPECT_EQ(batch.blocks(), 70u);
  EXPECT_TRUE(authority.validate(front));
  EXPECT_TRUE(authority.validate(batch));
  EXPECT_THROW(front.take_front(31), dls::PreconditionError);
}

TEST(Tokens, ForgedBatchesFailValidation) {
  Rng rng(3);
  TokenAuthority authority(100, rng);
  (void)authority.issue_unit_load();
  Rng attacker(99);
  const TokenBatch forged = authority.forge(10, attacker);
  EXPECT_FALSE(authority.validate(forged));
}

TEST(Tokens, DuplicatedBlocksFailValidation) {
  Rng rng(3);
  TokenAuthority authority(100, rng);
  TokenBatch batch = authority.issue_unit_load();
  TokenBatch doubled;
  doubled.ids = {batch.ids[0], batch.ids[0]};
  EXPECT_FALSE(authority.validate(doubled));
}

// --------------------------------------------------------------------
// Tamper-proof meter.

TEST(Meter, ReadsActualRateFromTheTrace) {
  Rng rng(17);
  KeyRegistry registry;
  const Signer root = registry.enroll(0, rng);
  const LinearNetwork net({1.0, 1.0, 1.0}, {0.2, 0.2});
  const auto sol = dls::dlt::solve_linear_boundary(net);
  dls::sim::ExecutionPlan plan =
      dls::sim::ExecutionPlan::compliant(net, sol);
  plan.actual_rate[1] = 1.6;  // P1 secretly runs slow
  const auto exec = dls::sim::execute_linear(net, plan);
  const TamperProofMeter meter(root, kRound);
  const auto claim = meter.read(exec, 1, /*declared=*/1.0);
  EXPECT_NEAR(claim.claim.value, 1.6, 1e-9);  // the meter can't be fooled
  EXPECT_EQ(claim.signer, 0u);
  EXPECT_TRUE(dls::crypto::verify(registry, claim));
}

TEST(Meter, IdleProcessorFallsBackToDeclaredRate) {
  Rng rng(17);
  KeyRegistry registry;
  const Signer root = registry.enroll(0, rng);
  dls::sim::ExecutionResult exec;
  exec.computed = {0.0};
  exec.received = {0.0};
  exec.finish_time = {0.0};
  const TamperProofMeter meter(root, kRound);
  EXPECT_DOUBLE_EQ(meter.read(exec, 0, 2.5).claim.value, 2.5);
}

}  // namespace
