#include "crypto/pki.hpp"

namespace dls::crypto {

SecretKey generate_secret(common::Rng& rng) noexcept {
  SecretKey key;
  for (std::size_t i = 0; i < key.bytes.size(); i += 8) {
    const std::uint64_t word = rng.bits();
    for (std::size_t b = 0; b < 8; ++b) {
      key.bytes[i + b] = static_cast<std::uint8_t>(word >> (8 * b));
    }
  }
  return key;
}

KeyFingerprint fingerprint_of(const SecretKey& secret) noexcept {
  return KeyFingerprint{Sha256::hash(secret.bytes)};
}

Signature sign(const SecretKey& secret,
               std::span<const std::uint8_t> message) noexcept {
  return Signature{hmac_sha256(secret.bytes, message)};
}

KeyFingerprint KeyRegistry::register_agent(AgentId id,
                                           const SecretKey& secret) {
  keys_[id] = secret;
  return fingerprint_of(secret);
}

Signer KeyRegistry::enroll(AgentId id, common::Rng& rng) {
  const SecretKey secret = generate_secret(rng);
  register_agent(id, secret);
  return Signer(id, secret);
}

bool KeyRegistry::verify(AgentId signer,
                         std::span<const std::uint8_t> message,
                         const Signature& sig) const noexcept {
  const auto it = keys_.find(signer);
  if (it == keys_.end()) return false;
  const Signature expected = crypto::sign(it->second, message);
  return digest_equal(expected.tag, sig.tag);
}

}  // namespace dls::crypto
