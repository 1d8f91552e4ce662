// Consistent-hash shard map over the canonical (w, z) keyspace.
//
// The federation tier partitions problem instances across N
// SchedulerService shards by hashing the canonical_topology_key bytes
// onto a virtual-node ring (word-wise FNV-1a-64, `vnodes` points per
// shard). Placement changed once, when shard_hash moved from the
// bytewise FNV-1a-64 loop to the word-wise one.
//
// Known skew: one multiply per word does not avalanche (high input bits
// never reach low output bits), and the 8-byte (shard, vnode) inputs
// differ only in a few low bits of each half, so every vnode lands in a
// thin arc of the ring. On a 3-shard, 64-vnode ring every canonical key
// therefore has the same primary; the bytewise ring already gave one
// shard ~90% of them. Passing both kinds of point through a finalizer
// such as MurmurHash3's fmix64 spreads them evenly — see
// docs/SERVICE.md for what that costs.
// Ownership of a key is the first alive shard clockwise from the key's
// ring position; replication walks further clockwise collecting the
// next distinct alive shards. Marking a shard dead therefore moves
// *only that shard's* arc onto its ring successors — the
// consistent-hash rebalance — while every other key keeps its owner,
// which is what keeps the per-shard solve caches warm across failures.
//
// ShardMap is a passive data structure (no locking, no I/O); the
// ShardRouter guards it with its health mutex and drives alive-ness
// from the heartbeat-style failure accounting.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace dls::serve {

/// The ring-point and key hash: word_fnv1a64, the frame checksum's loop,
/// equal to bytewise FNV-1a-64 on inputs shorter than 8 bytes. Stable
/// across platforms so shard assignment is reproducible in tests and
/// across processes.
std::uint64_t shard_hash(std::span<const std::uint8_t> data) noexcept;

struct ShardMapConfig {
  /// Virtual nodes per shard. More vnodes → smoother key distribution
  /// and finer-grained rebalance arcs, at ring-size cost.
  std::size_t vnodes = 64;
};

class ShardMap {
 public:
  explicit ShardMap(std::size_t shard_count,
                    ShardMapConfig config = ShardMapConfig{});

  std::size_t shard_count() const noexcept { return alive_.size(); }
  std::size_t alive_count() const noexcept;

  bool alive(std::size_t shard) const;
  /// Flips a shard's liveness. Returns true when the flag changed (the
  /// caller counts rebalances off these edges).
  bool set_alive(std::size_t shard, bool alive);

  /// The first `replicas` *distinct alive* shards clockwise from the
  /// key's ring position: owners[0] is the primary, the rest are
  /// replica holders. Shorter than `replicas` when fewer shards are
  /// alive; empty when none are.
  std::vector<std::size_t> owners(std::span<const std::uint8_t> key,
                                  std::size_t replicas) const;

  /// owners(key, 1) without the vector: the primary alive shard, or
  /// shard_count() when everything is dead.
  std::size_t primary(std::span<const std::uint8_t> key) const;

 private:
  struct VNode {
    std::uint64_t point;
    std::uint32_t shard;
  };

  /// Index into ring_ of the first vnode at/after the key's hash
  /// (wrapping), ignoring liveness.
  std::size_t ring_start(std::span<const std::uint8_t> key) const;

  std::vector<VNode> ring_;  ///< sorted by point
  std::vector<bool> alive_;
};

}  // namespace dls::serve
