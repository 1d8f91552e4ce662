#include "protocol/tokens.hpp"

#include <cmath>

#include "common/error.hpp"

namespace dls::protocol {

TokenBatch TokenBatch::take_front(std::size_t count) {
  DLS_REQUIRE(count <= ids.size(), "cannot take more blocks than present");
  TokenBatch front;
  front.ids.assign(ids.begin(), ids.begin() + static_cast<std::ptrdiff_t>(count));
  ids.erase(ids.begin(), ids.begin() + static_cast<std::ptrdiff_t>(count));
  return front;
}

TokenAuthority::TokenAuthority(std::size_t blocks_per_unit, common::Rng& rng)
    : blocks_per_unit_(blocks_per_unit), rng_(&rng) {
  DLS_REQUIRE(blocks_per_unit_ >= 1, "need at least one block per unit");
}

TokenBatch TokenAuthority::issue_unit_load() {
  TokenBatch batch;
  batch.ids.reserve(blocks_per_unit_);
  for (std::size_t i = 0; i < blocks_per_unit_; ++i) {
    std::uint64_t id;
    do {
      id = rng_->bits();
    } while (!issued_.insert(id).second);
    batch.ids.push_back(id);
  }
  return batch;
}

std::size_t TokenAuthority::to_blocks(double load) const noexcept {
  const double blocks = load * static_cast<double>(blocks_per_unit_);
  return static_cast<std::size_t>(std::llround(blocks));
}

bool TokenAuthority::validate(const TokenBatch& batch) const {
  std::unordered_set<std::uint64_t> seen;
  seen.reserve(batch.ids.size());
  for (const std::uint64_t id : batch.ids) {
    if (!issued_.contains(id)) return false;
    if (!seen.insert(id).second) return false;  // duplicated block
  }
  return true;
}

TokenBatch TokenAuthority::forge(std::size_t count, common::Rng& rng) const {
  TokenBatch batch;
  batch.ids.reserve(count);
  while (batch.ids.size() < count) {
    const std::uint64_t id = rng.bits();
    if (!issued_.contains(id)) batch.ids.push_back(id);
  }
  return batch;
}

}  // namespace dls::protocol
