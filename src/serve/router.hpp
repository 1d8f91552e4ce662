// The sharded-federation front-end: routes schedule requests across N
// SchedulerService shards, replicates solves, and quorum-checks the
// answers.
//
// Shape (BOINC-style dispatch, sched/ exemplar in ROADMAP):
//
//   client ──frames── router session ──frames── shard 0..N-1 backends
//                        │     │
//         inline cache ──┘     └── ShardMap (consistent hash, liveness)
//         (colocated shard)          │
//                               health monitor (heartbeat-style probes)
//
//  * Sessions run on the session core (session.hpp) with lazy backend links.
//  * A request's owners are the first R distinct alive shards clockwise
//    from its canonical_topology_key ring position (shard.hpp). The
//    primary owner's colocated service (RouterConfig::local) answers
//    payment-free cache hits inline, no wire; the replay byte-cache
//    answers repeats without decoding at all.
//  * Replication: the request goes to every owner; kOk answers are
//    normalised (id and cache-hit flag zeroed) and byte-compared.
//    Divergence is a typed incident — the client gets a kError
//    refusal, never a divergent answer. With no kOk, the most
//    actionable refusal wins: kDegraded with the largest retry-after,
//    else kShed, else the first kError.
//  * Shard death: forward failures count against the reused
//    protocol::HeartbeatConfig retry budget; exhausting it marks the
//    shard dead (a consistent-hash rebalance — only that arc moves). A
//    monitor probes dead shards with exponential backoff to revive.
// Metrics (serve.shard.* / serve.quorum.*): see docs/OBSERVABILITY.md.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "codec/bytes.hpp"

#include "protocol/recovery.hpp"
#include "serve/pipe.hpp"
#include "serve/service.hpp"
#include "serve/session.hpp"
#include "serve/shard.hpp"
#include "serve/transport.hpp"

namespace dls::serve {

struct RouterConfig {
  /// Number of shards in the federation (ring size).
  std::size_t shard_count = 1;
  /// Opens a fresh connection to shard `i`. Called lazily per client
  /// session and from the health monitor's revival probes; may throw
  /// TransportError (counted as a forward failure). Required.
  std::function<std::unique_ptr<Transport>(std::size_t shard)> connect;
  /// Colocated shard services, indexed by shard; entries may be null.
  /// Used only for the inline cache fast path — forwarding still goes
  /// through `connect` so chaos wrappers stay in the loop.
  std::vector<SchedulerService*> local;
  /// Replication factor R: how many distinct owners each request is
  /// sent to (clamped to the alive shard count).
  std::size_t replication = 1;
  /// Heartbeat-style failure accounting, reused from the recovery
  /// layer: retry_budget consecutive forward failures confirm a shard
  /// dead; the monitor re-probes with exponential backoff derived from
  /// period/backoff_factor/max_backoff (seconds here).
  protocol::HeartbeatConfig heartbeat{
      /*period=*/0.02, /*timeout=*/0.02, /*retry_budget=*/3,
      /*backoff_factor=*/2.0, /*max_backoff=*/0.5};
  /// Run the dead-shard revival monitor thread. Off, revival only
  /// happens when a test flips the map by hand.
  bool probe_dead_shards = true;
  /// Per-forward response deadline (seconds); <= 0 waits forever.
  double forward_timeout_s = 5.0;
  /// Retry-after hint (µs) on router-originated kDegraded refusals
  /// (no alive owner / every forward failed).
  double degraded_retry_after_us = 2000.0;
  /// Client-facing framing discipline (the session core's), mirroring
  /// ServiceConfig.
  std::size_t poison_budget = 8;
  std::size_t resync_scan_bytes = 65536;
  /// Ring granularity (ShardMapConfig::vnodes).
  std::size_t vnodes = 64;
  /// Capacity (entries per tier; 0 disables) of the two-tier replay
  /// byte-cache. Tier 1 keys the WHOLE request payload and holds the
  /// complete encoded response frame: an exact repeat — an idempotent
  /// retry reusing its request id — is answered with one buffer write
  /// and no hashing, decoding or encoding at all. Tier 2 keys the
  /// payload after the request_id field and holds the response payload
  /// encoding: a repeat under a fresh id replays it with only the
  /// echoed id patched, then promotes the re-framed bytes into tier 1.
  /// Both tiers are populated only downstream of the colocated inline
  /// fast path, so every entry is a payment-free, deadline-free cache
  /// hit — the only traffic whose response is a pure function of the
  /// request bytes. Keying on the full payload (suffix) means any
  /// change to the round tag, deadline, payments flag or topology
  /// misses and takes the full path. Bounded, FIFO-evicted per tier.
  std::size_t replay_cache_capacity = 128;
};

/// Transport-independent routing counts (kept regardless of the obs
/// runtime switch).
struct RouterStats {
  std::uint64_t received = 0;      ///< well-formed requests read
  std::uint64_t inline_hits = 0;   ///< answered from a colocated cache
  std::uint64_t replayed = 0;      ///< byte-cache replays (both tiers)
  std::uint64_t replayed_verbatim = 0;  ///< tier-1 whole-frame replays
  std::uint64_t forwarded = 0;     ///< request copies sent to shards
  std::uint64_t forward_failures = 0;  ///< wire/decode failures talking
                                       ///< to a shard
  std::uint64_t answered_ok = 0;   ///< kOk answers returned to clients
  std::uint64_t refused = 0;       ///< typed non-kOk answers returned
  std::uint64_t no_owner = 0;      ///< no alive shard owned the key
  std::uint64_t quorum_checked = 0;    ///< merges with >= 2 kOk answers
  std::uint64_t quorum_agreed = 0;     ///< all compared answers matched
  std::uint64_t quorum_divergence = 0; ///< mismatch → typed incident
  std::uint64_t quorum_single = 0;     ///< lone kOk accepted unchecked
  std::uint64_t shard_deaths = 0;      ///< retry budget exhausted
  std::uint64_t shard_revivals = 0;    ///< monitor probe reconnected
  std::uint64_t rebalances = 0;        ///< liveness edges (death+revival)
};

class ShardRouter {
 public:
  explicit ShardRouter(RouterConfig config);
  ~ShardRouter();

  ShardRouter(const ShardRouter&) = delete;
  ShardRouter& operator=(const ShardRouter&) = delete;

  /// Opens an in-memory client connection (the SchedulerClient-facing
  /// end is returned). Mirrors SchedulerService::connect().
  PipeEnd connect();

  /// Serves an established client-facing transport (an accepted
  /// socket, a chaos wrapper, ...). The router owns it from here on.
  void adopt(std::unique_ptr<Transport> transport);

  /// Closes every session and backend link, stops the monitor, joins
  /// all threads. Idempotent; the destructor calls it.
  void stop();

  RouterStats stats() const;

  /// Liveness snapshot, indexed by shard.
  std::vector<bool> alive() const;

  /// Marks a shard dead/alive by hand (tests, draining for deploys).
  /// Counted as a rebalance when the flag actually flips.
  void set_alive(std::size_t shard, bool alive);

 private:
  /// A client session's backend links, one lazily dialled per shard.
  /// Only the session's reader dials, installs and drops a link, so it
  /// reads its own links without locking; `links_mutex` orders those
  /// changes against close(), which stop() calls to wake a reader parked
  /// in a forward round trip, and after which no link is installed again.
  struct BackendLinks final : SessionState {
    explicit BackendLinks(std::size_t shards)
        : links(shards), next_id(shards, 1) {}
    void close() noexcept override;

    std::mutex links_mutex;  ///< guards link install, drop and close
    bool closed = false;
    std::vector<std::unique_ptr<Transport>> links;
    std::vector<std::uint64_t> next_id;  ///< per-link request ids
  };

  /// One shard's reply to a forwarded request, or why it has none.
  struct ForwardResult {
    bool delivered = false;  ///< a decoded response came back
    ScheduleResponse response;
    /// The reply payload with its per-hop fields zeroed
    /// (normalize_schedule_response): what the quorum byte-compares.
    codec::Bytes normalized;
  };

  /// The session core's per-frame hook. Multi-load requests are not
  /// forwarded: they get a typed kError in their own response kind.
  void on_frame(Session& session, const Frame& frame);
  /// `payload` is the raw encoded request (for the replay byte-cache).
  void handle_request(Session& session, const ScheduleRequest& request,
                      std::span<const std::uint8_t> payload);
  /// Answers a request frame from the replay byte-cache when an
  /// identical payload (modulo request_id) was served inline before.
  /// Returns true when the response went out.
  bool try_replay(Session& session, std::span<const std::uint8_t> payload);
  /// Stores an inline answer under both replay tiers: the response
  /// payload `encoded` under the request's id-less suffix, and the
  /// complete response frame `wire` under the whole request payload.
  void store_replay(std::span<const std::uint8_t> payload,
                    const codec::Bytes& encoded, const codec::Bytes& wire);
  /// Tier-1 insert alone (replay promotion). Caller holds no locks.
  void store_verbatim(std::span<const std::uint8_t> payload,
                      const codec::Bytes& wire);
  /// Sends the encoded request `payload` to `shard` on the session's
  /// backend link, under the link's next request id, and blocks for the
  /// reply. A wire/decode failure drops the link (next request
  /// reconnects) and counts against the shard's retry budget. Once the
  /// links are closed nothing is dialled: the result is undelivered.
  ForwardResult forward(BackendLinks& backends, std::size_t shard,
                        std::span<const std::uint8_t> payload);
  /// The colocated inline path (and so the replay tiers it fills) runs
  /// only without replication and with in-process shards.
  bool inline_enabled() const noexcept {
    return config_.replication == 1 && !config_.local.empty();
  }
  /// Merges the owners' replies per the quorum/backpressure policy.
  ScheduleResponse merge(const ScheduleRequest& request,
                         const std::vector<ForwardResult>& results);

  void note_forward_failure(std::size_t shard);
  void note_forward_success(std::size_t shard);
  void monitor_loop();

  RouterConfig config_;

  mutable std::mutex health_mutex_;
  ShardMap map_;
  std::vector<std::size_t> consecutive_failures_;
  std::vector<std::size_t> probe_attempts_;  ///< per dead shard
  std::condition_variable health_cv_;
  bool stopping_ = false;

  mutable std::mutex stats_mutex_;
  RouterStats stats_;

  /// Heterogeneous-lookup hash so replay lookups hash the raw payload
  /// suffix without materialising a std::string first.
  struct ReplayKeyHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view key) const {
      return std::hash<std::string_view>{}(key);
    }
  };
  /// Tier-2 entry: the cached response payload plus the request id the
  /// suffix was last asked under. A repeat under the SAME id marks the
  /// client as an exact-frame replayer, which is what gates promotion
  /// into tier 1 — clients that increment ids never repeat one, so
  /// they never churn the verbatim tier with single-use entries.
  struct ReplayEntry {
    codec::Bytes encoded;
    std::uint64_t last_id = 0;
  };

  /// Leaf lock: never held together with any other router mutex.
  /// Guards both replay tiers.
  mutable std::mutex replay_mutex_;
  /// Tier 2: request payload after the id -> response payload encoding.
  std::unordered_map<std::string, ReplayEntry, ReplayKeyHash,
                     std::equal_to<>>
      replay_cache_;
  std::deque<std::string> replay_fifo_;  ///< insertion order, for eviction
  /// Tier 1: whole request payload -> complete response frame bytes.
  std::unordered_map<std::string, codec::Bytes, ReplayKeyHash,
                     std::equal_to<>>
      verbatim_cache_;
  std::deque<std::string> verbatim_fifo_;

  SessionCore sessions_;
  std::thread monitor_;
};

}  // namespace dls::serve
