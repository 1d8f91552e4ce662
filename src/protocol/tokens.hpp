// The Λ_i device of footnote 1: proof of how much load a processor
// received.
//
// The root divides the unit load into equal-sized blocks and appends a
// unique random identifier to each. A processor's Λ_i is the set of
// identifiers it received; presenting them to the root proves (up to the
// negligible probability of guessing a valid identifier) that it received
// at least that much load — which is exactly the evidence a victim of
// load shedding needs in Phase III.
#pragma once

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "common/rng.hpp"

namespace dls::protocol {

/// A contiguous batch of identified blocks travelling down the chain.
struct TokenBatch {
  std::vector<std::uint64_t> ids;

  std::size_t blocks() const noexcept { return ids.size(); }

  /// Splits off the first `count` blocks (the part a processor retains);
  /// the remainder stays in *this.
  TokenBatch take_front(std::size_t count);
};

/// Root-side issuer and validator.
class TokenAuthority {
 public:
  /// `blocks_per_unit`: granularity of the proof device. Finer blocks
  /// detect smaller thefts but cost more memory.
  TokenAuthority(std::size_t blocks_per_unit, common::Rng& rng);

  std::size_t blocks_per_unit() const noexcept { return blocks_per_unit_; }

  /// Issues the full unit load (called once per protocol round).
  TokenBatch issue_unit_load();

  /// Number of blocks corresponding to `load` units (rounded to nearest).
  std::size_t to_blocks(double load) const noexcept;

  /// True iff every identifier in the batch was issued and none repeats.
  bool validate(const TokenBatch& batch) const;

  /// A forged batch an attacker might submit: `count` random identifiers
  /// never issued by the authority (for tests and the false-accusation
  /// experiments).
  TokenBatch forge(std::size_t count, common::Rng& rng) const;

 private:
  std::size_t blocks_per_unit_;
  common::Rng* rng_;
  std::unordered_set<std::uint64_t> issued_;
};

}  // namespace dls::protocol
