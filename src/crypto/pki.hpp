// Key material and the PKI registry.
//
// Trust model. The paper assumes a public key infrastructure with
// unforgeable digital signatures: every processor holds a private key
// SK_i, and dsm_i(m) = (m, sig_i(m)) can be verified by anyone. Inside
// the simulation we realise sig_i(m) as HMAC-SHA256(SK_i, m) and route
// verification through a KeyRegistry that holds the registered secrets —
// the registry plays the PKI's role of binding identities to keys and
// provides the "public verifiability" the mechanism needs. Agents never
// see each other's secrets (the Signer handed to an agent only exposes
// signing under its own key), so the unforgeability assumption of
// Lemma 5.2 holds by construction: producing a valid tag for another
// identity requires that identity's secret. A real deployment would swap
// HMAC+registry for Ed25519 behind the same interfaces.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>

#include "codec/bytes.hpp"
#include "common/rng.hpp"
#include "crypto/sha256.hpp"

namespace dls::crypto {

/// Identity of a protocol participant (processor index in this system).
using AgentId = std::uint32_t;

/// 256-bit signing secret.
struct SecretKey {
  std::array<std::uint8_t, 32> bytes{};
};

/// Public fingerprint of a secret key (SHA-256 of the secret); identifies
/// the key in the registry without revealing it.
struct KeyFingerprint {
  Digest digest{};
  bool operator==(const KeyFingerprint&) const = default;
};

/// A detached signature tag.
struct Signature {
  Digest tag{};
  bool operator==(const Signature&) const = default;
};

/// Generates a fresh secret from the deterministic RNG (simulation) —
/// stands in for the key-generation ceremony.
SecretKey generate_secret(common::Rng& rng) noexcept;

KeyFingerprint fingerprint_of(const SecretKey& secret) noexcept;

/// Signs a byte string under `secret`.
Signature sign(const SecretKey& secret,
               std::span<const std::uint8_t> message) noexcept;

/// Signing capability scoped to a single identity. This is the only
/// signing interface handed to agent code.
class Signer {
 public:
  Signer(AgentId id, SecretKey secret) noexcept
      : id_(id), secret_(secret) {}

  AgentId id() const noexcept { return id_; }
  Signature sign(std::span<const std::uint8_t> message) const noexcept {
    return crypto::sign(secret_, message);
  }

 private:
  AgentId id_;
  SecretKey secret_;
};

/// The PKI: binds AgentIds to keys and verifies signatures.
class KeyRegistry {
 public:
  /// Registers `id`; replaces any previous binding. Returns the public
  /// fingerprint.
  KeyFingerprint register_agent(AgentId id, const SecretKey& secret);

  /// Generates, registers and returns a Signer for `id`.
  Signer enroll(AgentId id, common::Rng& rng);

  /// True iff `sig` is a valid tag by `signer` over `message`. Unknown
  /// signers verify as false.
  bool verify(AgentId signer, std::span<const std::uint8_t> message,
              const Signature& sig) const noexcept;

  std::size_t size() const noexcept { return keys_.size(); }

 private:
  std::unordered_map<AgentId, SecretKey> keys_;
};

}  // namespace dls::crypto
