// Adversarial decoder tests for the Phase II allocation message G_i,
// the one message run_protocol ships through the wire. No wrong-magic,
// corrupted or random buffer is ever accepted silently: decoding either
// throws codec::DecodeError or (for flips that keep the framing intact)
// yields a message with a claim that fails signature verification.
// Nothing may crash or invoke UB. wire_roundtrip_test holds the identity
// and exact-length cases.
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <string_view>
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

  bool all_verify(const AllocationMessage& g) const {
    for (const SignedClaim* sc :
         {&g.received_pred, &g.received_self, &g.equiv_bid_pred,
          &g.rate_bid_pred, &g.equiv_bid_self}) {
      if (!dls::crypto::verify(registry, *sc)) return false;
    }
    return true;
  }
};

bool same(const AllocationMessage& a, const AllocationMessage& b) {
  return a.received_pred == b.received_pred &&
         a.received_self == b.received_self &&
         a.equiv_bid_pred == b.equiv_bid_pred &&
         a.rate_bid_pred == b.rate_bid_pred &&
         a.equiv_bid_self == b.equiv_bid_self;
}

TEST(Wire, WrongMagicIsRejected) {
  Fixture fx;
  const Bytes wire = encode_allocation_message(fx.random_allocation());
  dls::codec::Writer own;
  own.string("dls.wire.alloc.v1");
  const std::size_t magic_len = own.take().size();
  // The body of a valid G_i behind any other magic — including those
  // of the retired claim, bid, report and payment encodings — is
  // refused.
  for (const std::string_view magic :
       {"dls.wire.claim.v1", "dls.wire.bid.v1", "dls.wire.report.v1",
        "dls.wire.payment.v1", "dls.wire.alloc.v2", ""}) {
    dls::codec::Writer w;
    w.string(magic);
    Bytes forged = w.take();
    forged.insert(forged.end(),
                  wire.begin() + static_cast<std::ptrdiff_t>(magic_len),
                  wire.end());
    EXPECT_THROW(decode_allocation_message(forged), DecodeError) << magic;
  }
}

TEST(Wire, BitFlipsNeverVerify) {
  Fixture fx;
  const AllocationMessage original = fx.random_allocation();
  const Bytes wire = encode_allocation_message(original);

  std::size_t decoded_ok = 0, rejected = 0, unverifiable = 0;
  for (std::size_t pos = 0; pos < wire.size(); ++pos) {
    for (int bit = 0; bit < 8; ++bit) {
      Bytes corrupt = wire;
      corrupt[pos] = static_cast<std::uint8_t>(corrupt[pos] ^ (1u << bit));
      try {
        const AllocationMessage decoded = decode_allocation_message(corrupt);
        ++decoded_ok;
        // Framing survived; the flip must land in a claim, a signer or
        // a tag — all covered by the signature check.
        if (same(decoded, original)) {
          ADD_FAILURE() << "flip at byte " << pos << " bit " << bit
                        << " produced an identical message";
        } else if (!fx.all_verify(decoded)) {
          ++unverifiable;
        }
      } catch (const DecodeError&) {
        ++rejected;
      }
    }
  }
  // Every flip was handled through one of the two sanctioned exits...
  EXPECT_EQ(decoded_ok + rejected, wire.size() * 8);
  // ...whatever decoded was never a verifiable forgery, and the sweep
  // exercised real decodes, not only rejections.
  EXPECT_EQ(unverifiable, decoded_ok);
  EXPECT_GT(decoded_ok, 0u);
}

TEST(Wire, RandomBuffersNeverCrash) {
  Rng rng(9090);
  int threw = 0;
  for (int rep = 0; rep < 2000; ++rep) {
    const auto len = static_cast<std::size_t>(rng.uniform_int(0, 256));
    Bytes junk(len);
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.bits());
    // Only DecodeError may escape; anything else fails the test.
    try {
      (void)decode_allocation_message(junk);
    } catch (const DecodeError&) {
      ++threw;
    }
  }
  EXPECT_GT(threw, 1900);  // essentially everything must be rejected
}

}  // namespace
