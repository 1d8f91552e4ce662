// Tests for SHA-256 / HMAC-SHA256 (against published test vectors), the
// PKI registry and the signed-claim layer.
#include <gtest/gtest.h>

#include "codec/bytes.hpp"
#include "common/rng.hpp"
#include "crypto/pki.hpp"
#include "crypto/sha256.hpp"
#include "crypto/signed_claim.hpp"

namespace {

using dls::codec::to_hex;
using dls::common::Rng;
using namespace dls::crypto;

std::string hex_of(const Digest& digest) {
  return to_hex(std::span<const std::uint8_t>(digest.data(), digest.size()));
}

std::span<const std::uint8_t> bytes_of(std::string_view text) {
  return {reinterpret_cast<const std::uint8_t*>(text.data()), text.size()};
}

// FIPS 180-4 test vectors.
TEST(Sha256, EmptyString) {
  EXPECT_EQ(hex_of(Sha256::hash(bytes_of(""))),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(hex_of(Sha256::hash(bytes_of("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(hex_of(Sha256::hash(bytes_of(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  Sha256 h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(bytes_of(chunk));
  EXPECT_EQ(hex_of(h.finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  Rng rng(3);
  std::vector<std::uint8_t> data(1531);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.bits());
  Sha256 h;
  std::size_t pos = 0;
  const std::size_t cuts[] = {1, 63, 64, 65, 500, 838};
  for (const std::size_t cut : cuts) {
    h.update(std::span<const std::uint8_t>(data.data() + pos, cut));
    pos += cut;
  }
  EXPECT_EQ(pos, data.size());
  EXPECT_EQ(hex_of(h.finish()), hex_of(Sha256::hash(data)));
}

// RFC 4231 test case 2.
TEST(HmacSha256, Rfc4231Case2) {
  const std::string key = "Jefe";
  const std::string data = "what do ya want for nothing?";
  const Digest mac = hmac_sha256(
      std::span<const std::uint8_t>(
          reinterpret_cast<const std::uint8_t*>(key.data()), key.size()),
      std::span<const std::uint8_t>(
          reinterpret_cast<const std::uint8_t*>(data.data()), data.size()));
  EXPECT_EQ(hex_of(mac),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

// RFC 4231 test case 3 (key and data of 0xaa/0xdd bytes).
TEST(HmacSha256, Rfc4231Case3) {
  const std::vector<std::uint8_t> key(20, 0xaa);
  const std::vector<std::uint8_t> data(50, 0xdd);
  EXPECT_EQ(hex_of(hmac_sha256(key, data)),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

// RFC 4231 test case 6 (key longer than the block size).
TEST(HmacSha256, Rfc4231LongKey) {
  const std::vector<std::uint8_t> key(131, 0xaa);
  const std::string data = "Test Using Larger Than Block-Size Key - Hash Key First";
  EXPECT_EQ(hex_of(hmac_sha256(
                key, std::span<const std::uint8_t>(
                         reinterpret_cast<const std::uint8_t*>(data.data()),
                         data.size()))),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(DigestEqual, ConstantTimeComparisonSemantics) {
  Digest a{}, b{};
  EXPECT_TRUE(digest_equal(a, b));
  b[31] = 1;
  EXPECT_FALSE(digest_equal(a, b));
}

TEST(Pki, EnrollAndVerify) {
  Rng rng(1);
  KeyRegistry registry;
  const Signer alice = registry.enroll(1, rng);
  const std::vector<std::uint8_t> msg = {1, 2, 3};
  const Signature sig = alice.sign(msg);
  EXPECT_TRUE(registry.verify(1, msg, sig));
}

TEST(Pki, WrongSignerFails) {
  Rng rng(1);
  KeyRegistry registry;
  const Signer alice = registry.enroll(1, rng);
  registry.enroll(2, rng);
  const std::vector<std::uint8_t> msg = {1, 2, 3};
  EXPECT_FALSE(registry.verify(2, msg, alice.sign(msg)));
}

TEST(Pki, TamperedMessageFails) {
  Rng rng(1);
  KeyRegistry registry;
  const Signer alice = registry.enroll(1, rng);
  std::vector<std::uint8_t> msg = {1, 2, 3};
  const Signature sig = alice.sign(msg);
  msg[0] = 9;
  EXPECT_FALSE(registry.verify(1, msg, sig));
}

TEST(Pki, UnknownSignerVerifiesFalse) {
  KeyRegistry registry;
  EXPECT_FALSE(registry.verify(99, std::vector<std::uint8_t>{1}, Signature{}));
}

TEST(Pki, FingerprintIsStable) {
  Rng rng(5);
  KeyRegistry registry;
  const SecretKey secret = generate_secret(rng);
  const KeyFingerprint fp1 = registry.register_agent(7, secret);
  EXPECT_EQ(fp1, fingerprint_of(secret));
  EXPECT_EQ(registry.register_agent(7, secret), fp1);
}

TEST(SignedClaim, EncodeDecodeRoundtrip) {
  const Claim claim{ClaimKind::kReceivedLoad, 4, 9, 0.375};
  const Claim back = decode_claim(encode(claim));
  EXPECT_EQ(back, claim);
}

TEST(SignedClaim, DecodeRejectsGarbage) {
  EXPECT_THROW(decode_claim(std::vector<std::uint8_t>{1, 2, 3}),
               dls::codec::DecodeError);
}

TEST(SignedClaim, SignVerifyAndTamper) {
  Rng rng(2);
  KeyRegistry registry;
  const Signer signer = registry.enroll(3, rng);
  const Claim claim{ClaimKind::kEquivalentBid, 3, 1, 1.25};
  SignedClaim sc = make_signed(signer, claim);
  EXPECT_TRUE(verify(registry, sc));
  sc.claim.value = 1.26;  // tamper with the signed value
  EXPECT_FALSE(verify(registry, sc));
}

TEST(SignedClaim, SignatureDoesNotTransferBetweenClaims) {
  Rng rng(2);
  KeyRegistry registry;
  const Signer signer = registry.enroll(3, rng);
  const SignedClaim a =
      make_signed(signer, Claim{ClaimKind::kEquivalentBid, 3, 1, 1.0});
  SignedClaim b = a;
  b.claim.round = 2;  // replay into another round
  EXPECT_FALSE(verify(registry, b));
}

TEST(SignedClaim, ContradictionDetection) {
  Rng rng(2);
  KeyRegistry registry;
  const Signer signer = registry.enroll(3, rng);
  const SignedClaim a =
      make_signed(signer, Claim{ClaimKind::kEquivalentBid, 3, 1, 1.0});
  const SignedClaim b =
      make_signed(signer, Claim{ClaimKind::kEquivalentBid, 3, 1, 2.0});
  const SignedClaim c =
      make_signed(signer, Claim{ClaimKind::kEquivalentBid, 3, 2, 2.0});
  EXPECT_TRUE(contradicts(a, b));
  EXPECT_FALSE(contradicts(a, a));
  EXPECT_FALSE(contradicts(a, c));  // different rounds don't contradict
}

TEST(SignedClaim, ForgeryWithoutKeyFails) {
  Rng rng(2);
  KeyRegistry registry;
  registry.enroll(1, rng);
  const Signer mallory = registry.enroll(2, rng);
  // Mallory signs with her key but labels the claim as P1's.
  SignedClaim forged =
      make_signed(mallory, Claim{ClaimKind::kEquivalentBid, 1, 1, 0.5});
  forged.signer = 1;
  EXPECT_FALSE(verify(registry, forged));
}

TEST(ClaimKind, Names) {
  EXPECT_EQ(to_string(ClaimKind::kEquivalentBid), "equivalent-bid");
  EXPECT_EQ(to_string(ClaimKind::kMeteredRate), "metered-rate");
}

}  // namespace
