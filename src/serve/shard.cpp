#include "serve/shard.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "serve/frame.hpp"

namespace dls::serve {

std::uint64_t shard_hash(std::span<const std::uint8_t> data) noexcept {
  return word_fnv1a64(data);
}

namespace {

/// Ring point for one (shard, vnode) pair: hash the two indices as a
/// little-endian byte pair so the layout is platform-stable.
std::uint64_t vnode_point(std::uint32_t shard, std::uint32_t vnode) {
  std::uint8_t bytes[8];
  for (int i = 0; i < 4; ++i) {
    bytes[i] = static_cast<std::uint8_t>(shard >> (8 * i));
    bytes[4 + i] = static_cast<std::uint8_t>(vnode >> (8 * i));
  }
  return shard_hash(bytes);
}

}  // namespace

ShardMap::ShardMap(std::size_t shard_count, ShardMapConfig config) {
  DLS_REQUIRE(shard_count >= 1, "ShardMap needs at least one shard");
  DLS_REQUIRE(config.vnodes >= 1, "ShardMap needs at least one vnode");
  alive_.assign(shard_count, true);
  ring_.reserve(shard_count * config.vnodes);
  for (std::size_t shard = 0; shard < shard_count; ++shard) {
    for (std::size_t vnode = 0; vnode < config.vnodes; ++vnode) {
      ring_.push_back(VNode{
          vnode_point(static_cast<std::uint32_t>(shard),
                      static_cast<std::uint32_t>(vnode)),
          static_cast<std::uint32_t>(shard)});
    }
  }
  std::sort(ring_.begin(), ring_.end(),
            [](const VNode& a, const VNode& b) {
              if (a.point != b.point) return a.point < b.point;
              return a.shard < b.shard;  // deterministic tie-break
            });
}

std::size_t ShardMap::alive_count() const noexcept {
  std::size_t count = 0;
  for (const bool flag : alive_) count += flag ? 1 : 0;
  return count;
}

bool ShardMap::alive(std::size_t shard) const {
  DLS_REQUIRE(shard < alive_.size(), "shard index out of range");
  return alive_[shard];
}

bool ShardMap::set_alive(std::size_t shard, bool alive) {
  DLS_REQUIRE(shard < alive_.size(), "shard index out of range");
  if (alive_[shard] == alive) return false;
  alive_[shard] = alive;
  return true;
}

std::size_t ShardMap::ring_start(std::span<const std::uint8_t> key) const {
  const std::uint64_t point = shard_hash(key);
  const auto it = std::lower_bound(
      ring_.begin(), ring_.end(), point,
      [](const VNode& node, std::uint64_t p) { return node.point < p; });
  if (it == ring_.end()) return 0;  // wrap past the top of the ring
  return static_cast<std::size_t>(it - ring_.begin());
}

std::vector<std::size_t> ShardMap::owners(std::span<const std::uint8_t> key,
                                          std::size_t replicas) const {
  std::vector<std::size_t> found;
  if (replicas == 0) return found;
  const std::size_t want = std::min(replicas, alive_count());
  if (want == 0) return found;
  found.reserve(want);
  const std::size_t start = ring_start(key);
  for (std::size_t step = 0; step < ring_.size() && found.size() < want;
       ++step) {
    const VNode& node = ring_[(start + step) % ring_.size()];
    if (!alive_[node.shard]) continue;
    const std::size_t shard = node.shard;
    if (std::find(found.begin(), found.end(), shard) == found.end()) {
      found.push_back(shard);
    }
  }
  return found;
}

std::size_t ShardMap::primary(std::span<const std::uint8_t> key) const {
  const std::size_t start = ring_start(key);
  for (std::size_t step = 0; step < ring_.size(); ++step) {
    const VNode& node = ring_[(start + step) % ring_.size()];
    if (alive_[node.shard]) return node.shard;
  }
  return shard_count();  // nothing alive
}

}  // namespace dls::serve
