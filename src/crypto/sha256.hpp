// SHA-256 (FIPS 180-4) and HMAC-SHA256 (RFC 2104).
//
// The DLS-LBL protocol signs every message (`dsm_i(m)` in the paper). The
// simulation realises signatures as HMAC tags verified through the PKI
// registry (see pki.hpp for the trust model); the hash itself is a full,
// test-vector-checked SHA-256 so the unforgeability assumption rests on a
// real primitive rather than a toy hash.
#pragma once

#include <array>
#include <cstdint>
#include <span>

namespace dls::crypto {

using Digest = std::array<std::uint8_t, 32>;

/// Incremental SHA-256.
class Sha256 {
 public:
  Sha256() noexcept;

  void update(std::span<const std::uint8_t> data) noexcept;

  /// Finalises and returns the digest. The object must not be reused
  /// afterwards without calling reset().
  Digest finish() noexcept;

  void reset() noexcept;

  /// One-shot convenience.
  static Digest hash(std::span<const std::uint8_t> data) noexcept;

 private:
  void process_block(const std::uint8_t* block) noexcept;

  std::array<std::uint32_t, 8> state_;
  std::array<std::uint8_t, 64> buffer_;
  std::size_t buffered_ = 0;
  std::uint64_t total_bytes_ = 0;
};

/// HMAC-SHA256 over `data` with `key`.
Digest hmac_sha256(std::span<const std::uint8_t> key,
                   std::span<const std::uint8_t> data) noexcept;

/// Constant-time digest comparison.
bool digest_equal(const Digest& a, const Digest& b) noexcept;

}  // namespace dls::crypto
