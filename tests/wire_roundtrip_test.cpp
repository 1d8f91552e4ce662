// Round-trip property tests for the Phase II allocation message G_i, the
// one message run_protocol ships through the wire: encode → decode is
// the identity for random well-formed messages across every claim kind
// and preserves every signature bit for bit, and the decoder consumes
// exactly the encoded bytes — every proper prefix and every extension
// throws codec::DecodeError. protocol_wire_test holds the adversarial
// cases (wrong magic, bit flips, random buffers).
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <vector>

#include "codec/bytes.hpp"
#include "common/rng.hpp"
#include "crypto/pki.hpp"
#include "crypto/signed_claim.hpp"
#include "protocol/messages.hpp"
#include "protocol/wire.hpp"

namespace {

using dls::codec::Bytes;
using dls::codec::DecodeError;
using dls::common::Rng;
using dls::crypto::Claim;
using dls::crypto::ClaimKind;
using dls::crypto::KeyRegistry;
using dls::crypto::SignedClaim;
using dls::protocol::AllocationMessage;
using dls::protocol::decode_allocation_message;
using dls::protocol::encode_allocation_message;

constexpr ClaimKind kAllKinds[] = {
    ClaimKind::kEquivalentBid, ClaimKind::kReceivedLoad,
    ClaimKind::kBidRate, ClaimKind::kMeteredRate,
    ClaimKind::kLoadTokenCount};

struct Fixture {
  KeyRegistry registry;
  std::vector<dls::crypto::Signer> signers;
  Rng rng{20260806};

  Fixture() {
    for (std::uint32_t i = 0; i < 4; ++i) {
      signers.push_back(registry.enroll(i, rng));
    }
  }

  SignedClaim random_claim() {
    Claim claim;
    claim.kind = kAllKinds[static_cast<std::size_t>(
        rng.uniform_int(0, std::ssize(kAllKinds) - 1))];
    claim.subject =
        static_cast<dls::crypto::AgentId>(rng.uniform_int(0, 3));
    claim.round = static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 20));
    claim.value = rng.uniform(-10.0, 10.0);
    const std::size_t who =
        static_cast<std::size_t>(rng.uniform_int(0, 3));
    return dls::crypto::make_signed(signers[who], claim);
  }

  AllocationMessage random_allocation() {
    AllocationMessage g;
    g.received_pred = random_claim();
    g.received_self = random_claim();
    g.equiv_bid_pred = random_claim();
    g.rate_bid_pred = random_claim();
    g.equiv_bid_self = random_claim();
    return g;
  }
};

TEST(WireRoundTrip, AllocationMessageIdentity) {
  Fixture fx;
  for (int iter = 0; iter < 100; ++iter) {
    const AllocationMessage original = fx.random_allocation();
    const AllocationMessage decoded =
        decode_allocation_message(encode_allocation_message(original));
    EXPECT_EQ(decoded.received_pred, original.received_pred);
    EXPECT_EQ(decoded.received_self, original.received_self);
    EXPECT_EQ(decoded.equiv_bid_pred, original.equiv_bid_pred);
    EXPECT_EQ(decoded.rate_bid_pred, original.rate_bid_pred);
    EXPECT_EQ(decoded.equiv_bid_self, original.equiv_bid_self);
    // Every signature survives the trip bit for bit.
    for (const SignedClaim* sc :
         {&decoded.received_pred, &decoded.received_self,
          &decoded.equiv_bid_pred, &decoded.rate_bid_pred,
          &decoded.equiv_bid_self}) {
      EXPECT_TRUE(dls::crypto::verify(fx.registry, *sc));
    }
  }
}

TEST(WireRoundTrip, EveryTruncationPrefixIsRejected) {
  Fixture fx;
  const Bytes wire = encode_allocation_message(fx.random_allocation());
  for (std::size_t len = 0; len < wire.size(); ++len) {
    EXPECT_THROW(decode_allocation_message(std::span(wire.data(), len)),
                 DecodeError)
        << "allocation prefix of " << len << " bytes accepted";
  }
}

TEST(WireRoundTrip, TrailingBytesAreRejected) {
  Fixture fx;
  const Bytes wire = encode_allocation_message(fx.random_allocation());
  for (const std::uint8_t extra :
       {std::uint8_t{0x00}, std::uint8_t{0x42}, std::uint8_t{0xff}}) {
    Bytes extended = wire;
    extended.push_back(extra);
    EXPECT_THROW(decode_allocation_message(extended), DecodeError);
  }
}

}  // namespace
