// The sharded-federation front-end: routes schedule requests across N
// SchedulerService shards, replicates solves, and quorum-checks the
// answers.
//
// Shape (BOINC-style dispatch, sched/ exemplar in ROADMAP):
//
//   client ──frames── router session ──frames── shard 0..N-1 backends
//                        │     │
//    colocated shard's ──┘     └── ShardMap (consistent hash, liveness)
//    in-place rule (R=1)             │
//                               health monitor (heartbeat-style probes)
//
//  * Sessions run on the session core (session.hpp) with lazy backend links.
//  * A request's owners are the first R distinct alive shards clockwise
//    from its canonical_topology_key ring position (shard.hpp). At R=1
//    the primary owner's colocated service (RouterConfig::local) answers
//    a payment-free cache hit by its in-place rule, no wire. The router
//    keeps no response cache of its own: every request takes the ring.
//  * Replication: every owner is written before any reply is read; kOk
//    answers are normalised (id and cache-hit flag zeroed), byte-compared.
//    Divergence is a typed incident — the client gets a kError
//    refusal, never a divergent answer. With no kOk, the most
//    actionable refusal wins: kDegraded with the largest retry-after,
//    else kShed, else the first kError.
//  * Shard death: forward failures count against the reused
//    common::HeartbeatConfig retry budget; exhausting it marks the
//    shard dead (a consistent-hash rebalance — only that arc moves). A
//    monitor probes dead shards with exponential backoff to revive.
// Metrics (serve.shard.* / serve.quorum.*): see docs/OBSERVABILITY.md.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <thread>
#include <vector>

#include "codec/bytes.hpp"
#include "common/backoff.hpp"

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
  common::HeartbeatConfig heartbeat{
      /*period=*/0.02, /*timeout=*/0.02, /*retry_budget=*/3,
      /*backoff_factor=*/2.0, /*max_backoff=*/0.5};
  /// Run the dead-shard revival monitor thread. Off, revival only
  /// happens when a test flips the map by hand.
  bool probe_dead_shards = true;
  /// Reply deadline per routed request (seconds), shared by all of its
  /// owners' replies and counted from the last write; <= 0 waits forever.
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
};

/// Transport-independent routing counts (kept regardless of the obs
/// runtime switch).
struct RouterStats {
  std::uint64_t received = 0;      ///< well-formed requests read
  std::uint64_t inline_hits = 0;   ///< answered from a colocated cache
  std::uint64_t replayed = 0;      ///< always 0: the router caches no
                                   ///< responses (kept for its readers)
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
  /// Finds the request's owners on the ring, then answers it inline or
  /// forwards `payload`, the client's encoding, to every owner.
  void handle_request(Session& session, const ScheduleRequest& request,
                      std::span<const std::uint8_t> payload);
  /// Sends the encoded request `payload` to every owner, each under its
  /// link's next request id, then reads the replies under one
  /// forward_timeout_s deadline; one result per owner, in order. A dial,
  /// wire or decode failure drops that owner's link (drop_link). Once
  /// the links are closed nothing is dialled: the results are undelivered.
  std::vector<ForwardResult> forward(BackendLinks& backends,
                                     const std::vector<std::size_t>& owners,
                                     std::span<const std::uint8_t> payload);
  /// The session's open link to `shard`, dialled if need be; null when
  /// the dial fails or the links are closed.
  Transport* link_to(BackendLinks& backends, std::size_t shard);
  /// Closes and forgets the link to `shard` (the next request redials)
  /// and counts a failure against the shard's retry budget, unless
  /// stop() has closed the links.
  void drop_link(BackendLinks& backends, std::size_t shard);
  /// The colocated inline path runs only without replication (R=1
  /// has nothing to cross-check) and with in-process shards.
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

  /// The counts behind stats(), one relaxed atomic each so that no
  /// request path takes a lock to count.
  struct Tallies {
    Tally received{0};
    Tally inline_hits{0};
    Tally forwarded{0};
    Tally forward_failures{0};
    Tally answered_ok{0};
    Tally refused{0};
    Tally no_owner{0};
    Tally quorum_checked{0};
    Tally quorum_agreed{0};
    Tally quorum_divergence{0};
    Tally quorum_single{0};
    Tally shard_deaths{0};
    Tally shard_revivals{0};
    Tally rebalances{0};
  };
  Tallies tallies_;

  SessionCore sessions_;
  std::thread monitor_;
};

}  // namespace dls::serve
