#include "serve/router.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/error.hpp"
#include "obs/obs.hpp"
#include "serve/frame.hpp"
#include "serve/service_wire.hpp"

namespace dls::serve {

namespace {

using Clock = std::chrono::steady_clock;

Clock::duration seconds_of(double s) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(s));
}

/// Seconds left to `deadline`, never 0 (a 0 read timeout waits forever).
double timeout_until(Clock::time_point deadline) {
  return std::max(
      std::chrono::duration<double>(deadline - Clock::now()).count(), 1e-6);
}

}  // namespace

ShardRouter::ShardRouter(RouterConfig config)
    : config_(std::move(config)),
      map_(config_.shard_count, ShardMapConfig{config_.vnodes}),
      consecutive_failures_(config_.shard_count, 0),
      probe_attempts_(config_.shard_count, 0),
      sessions_(config_.poison_budget, config_.resync_scan_bytes,
                [this](Session& session, const Frame& frame) {
                  on_frame(session, frame);
                }) {
  DLS_REQUIRE(config_.shard_count >= 1, "router needs at least one shard");
  DLS_REQUIRE(config_.connect != nullptr,
              "router needs a shard connect factory");
  DLS_REQUIRE(config_.replication >= 1, "replication must be at least 1");
  DLS_REQUIRE(
      config_.local.empty() || config_.local.size() == config_.shard_count,
      "RouterConfig::local must be empty or one entry per shard");
  if (config_.probe_dead_shards) {
    monitor_ = std::thread([this] { monitor_loop(); });
  }
}

ShardRouter::~ShardRouter() { stop(); }

PipeEnd ShardRouter::connect() {
  return sessions_.connect(std::make_unique<BackendLinks>(config_.shard_count));
}

void ShardRouter::adopt(std::unique_ptr<Transport> transport) {
  sessions_.adopt(std::move(transport),
                  std::make_unique<BackendLinks>(config_.shard_count));
}

void ShardRouter::BackendLinks::close() noexcept {
  std::lock_guard<std::mutex> lock(links_mutex);
  closed = true;
  for (const auto& link : links) {
    if (link) link->close();
  }
}

void ShardRouter::stop() {
  {
    std::lock_guard<std::mutex> lock(health_mutex_);
    if (stopping_) return;
    stopping_ = true;
  }
  health_cv_.notify_all();
  if (monitor_.joinable()) monitor_.join();
  // Closing a client end unblocks its reader's frame read; closing its
  // backend links unblocks a reader parked inside a forward round trip
  // and keeps it from dialling the next owner.
  sessions_.stop();
}

RouterStats ShardRouter::stats() const {
  RouterStats stats;
  stats.received = read_tally(tallies_.received);
  stats.inline_hits = read_tally(tallies_.inline_hits);
  stats.forwarded = read_tally(tallies_.forwarded);
  stats.forward_failures = read_tally(tallies_.forward_failures);
  stats.answered_ok = read_tally(tallies_.answered_ok);
  stats.refused = read_tally(tallies_.refused);
  stats.no_owner = read_tally(tallies_.no_owner);
  stats.quorum_checked = read_tally(tallies_.quorum_checked);
  stats.quorum_agreed = read_tally(tallies_.quorum_agreed);
  stats.quorum_divergence = read_tally(tallies_.quorum_divergence);
  stats.quorum_single = read_tally(tallies_.quorum_single);
  stats.shard_deaths = read_tally(tallies_.shard_deaths);
  stats.shard_revivals = read_tally(tallies_.shard_revivals);
  stats.rebalances = read_tally(tallies_.rebalances);
  return stats;
}

std::vector<bool> ShardRouter::alive() const {
  std::lock_guard<std::mutex> lock(health_mutex_);
  std::vector<bool> flags(map_.shard_count());
  for (std::size_t shard = 0; shard < flags.size(); ++shard) {
    flags[shard] = map_.alive(shard);
  }
  return flags;
}

void ShardRouter::set_alive(std::size_t shard, bool alive) {
  bool flipped = false;
  {
    std::lock_guard<std::mutex> lock(health_mutex_);
    flipped = map_.set_alive(shard, alive);
    if (flipped) {
      consecutive_failures_[shard] = 0;
      probe_attempts_[shard] = 0;
    }
  }
  if (!flipped) return;
  bump(tallies_.rebalances);
  DLS_COUNT("serve.shard.rebalances");
  if (alive) {
    bump(tallies_.shard_revivals);
    DLS_COUNT("serve.shard.revivals");
  } else {
    bump(tallies_.shard_deaths);
    DLS_COUNT("serve.shard.deaths");
  }
  health_cv_.notify_all();
}

void ShardRouter::on_frame(Session& session, const Frame& frame) {
  if (frame.type == FrameType::kMultiScheduleRequest) {
    // Multi-load forwarding is not implemented: refuse in the request's
    // own kind, under its id when the payload decodes.
    std::uint64_t id = 0;
    std::string error = "the router does not forward multi-load requests";
    try {
      id = decode_multi_schedule_request(frame.payload).request_id;
    } catch (const codec::DecodeError& e) {
      error = e.what();
    }
    send_refusal(session, /*multi=*/true, id, ScheduleStatus::kError,
                 std::move(error));
    return;
  }
  if (frame.type != FrameType::kScheduleRequest) {
    send_refusal(session, /*multi=*/false, 0, ScheduleStatus::kError,
                 unexpected_frame_type(frame.type));
    return;
  }
  ScheduleRequest request;
  try {
    request = decode_schedule_request(frame.payload);
  } catch (const codec::DecodeError& e) {
    send_refusal(session, /*multi=*/false, 0, ScheduleStatus::kError, e.what());
    return;
  }
  bump(tallies_.received);
  DLS_COUNT("serve.shard.requests");
  handle_request(session, request, frame.payload);
}

void ShardRouter::handle_request(Session& session,
                                 const ScheduleRequest& request,
                                 std::span<const std::uint8_t> payload) {
  // Malformed instances hash by the same key: their owner's solver
  // answers with the canonical kError text.
  const codec::Bytes key = canonical_topology_key(request.w, request.z);
  std::vector<std::size_t> owners;
  {
    std::lock_guard<std::mutex> lock(health_mutex_);
    owners = map_.owners(key, config_.replication);
  }
  if (owners.empty()) {
    bump(tallies_.no_owner);
    bump(tallies_.refused);
    DLS_COUNT("serve.shard.no_owner");
    send_refusal(session, /*multi=*/false, request.request_id,
                 ScheduleStatus::kDegraded, "no alive shard owns this key",
                 config_.degraded_retry_after_us);
    return;
  }
  // Colocated fast path: with no replication to cross-check, a
  // payment-free cache hit on the primary's in-process service skips
  // the wire and the admission lanes entirely.
  if (inline_enabled()) {
    SchedulerService* local = config_.local[owners[0]];
    ScheduleResponse response;
    if (local != nullptr && local->try_serve_inline(request, response)) {
      bump(tallies_.inline_hits);
      bump(tallies_.answered_ok);
      DLS_COUNT("serve.shard.inline_hits");
      session.send(response);
      return;
    }
  }
  auto& backends = static_cast<BackendLinks&>(*session.state);
  const ScheduleResponse merged =
      merge(request, forward(backends, owners, payload));
  bump(merged.status == ScheduleStatus::kOk ? tallies_.answered_ok
                                            : tallies_.refused);
  session.send(merged);
}

std::vector<ShardRouter::ForwardResult> ShardRouter::forward(
    BackendLinks& backends, const std::vector<std::size_t>& owners,
    std::span<const std::uint8_t> payload) {
  std::vector<ForwardResult> results(owners.size());
  // Each owner's request id once written (ids start at 1: 0 = unsent).
  std::vector<std::uint64_t> sent(owners.size(), 0);
  // The client's encoding goes on unchanged apart from the id: each
  // link numbers its own requests so stale replies can be told apart.
  Frame frame;
  frame.type = FrameType::kScheduleRequest;
  frame.payload.assign(payload.begin(), payload.end());
  for (std::size_t i = 0; i < owners.size(); ++i) {
    const std::size_t shard = owners[i];
    if (Transport* const link = link_to(backends, shard)) {
      const std::uint64_t forward_id = backends.next_id[shard]++;
      patch_schedule_request_id(frame.payload, forward_id);
      bump(tallies_.forwarded);
      DLS_COUNT("serve.shard.forwarded");
      try {
        write_frame(*link, frame);
        sent[i] = forward_id;
        continue;
      } catch (const TransportError&) {
      }
    }
    drop_link(backends, shard);
  }
  // The owners now solve at once; their replies share one deadline.
  const double timeout_s = config_.forward_timeout_s;
  const Clock::time_point deadline = Clock::now() + seconds_of(timeout_s);
  for (std::size_t i = 0; i < owners.size(); ++i) {
    if (sent[i] == 0) continue;
    const std::size_t shard = owners[i];
    ForwardResult& result = results[i];
    try {
      // Bounded skip of stale responses (a chaos-duplicated frame from an
      // earlier round trip on this link).
      for (int attempt = 0; attempt < 4 && !result.delivered; ++attempt) {
        std::optional<Frame> reply = read_frame(
            *backends.links[shard],
            timeout_s > 0.0 ? timeout_until(deadline) : 0.0);
        if (!reply) break;  // shard hung up
        if (reply->type != FrameType::kScheduleResponse) continue;
        ScheduleResponse response = decode_schedule_response(reply->payload);
        if (response.request_id != sent[i]) continue;  // stale
        result.response = std::move(response);
        result.normalized = std::move(reply->payload);
        normalize_schedule_response(result.normalized);
        result.delivered = true;
      }
    } catch (const TransportError&) {
    } catch (const codec::DecodeError&) {
    }
    if (result.delivered) {
      note_forward_success(shard);
    } else {
      drop_link(backends, shard);
    }
  }
  return results;
}

Transport* ShardRouter::link_to(BackendLinks& backends, std::size_t shard) {
  Transport* const link = backends.links[shard].get();
  if (link != nullptr && link->valid()) return link;
  // Dial outside the links lock (a dial enters the shard's own session
  // core) and install only while the links are open, so stop() never
  // misses a link or waits out a fresh one's timeout.
  {
    std::lock_guard<std::mutex> lock(backends.links_mutex);
    if (backends.closed) return nullptr;
  }
  std::unique_ptr<Transport> fresh;
  try {
    fresh = config_.connect(shard);
  } catch (const dls::Error&) {
  }
  if (fresh == nullptr) return nullptr;
  std::lock_guard<std::mutex> lock(backends.links_mutex);
  if (backends.closed) {
    fresh->close();
    return nullptr;
  }
  backends.links[shard] = std::move(fresh);
  return backends.links[shard].get();
}

void ShardRouter::drop_link(BackendLinks& backends, std::size_t shard) {
  {
    std::lock_guard<std::mutex> lock(backends.links_mutex);
    if (backends.closed) return;  // stop() cut the forward short
    if (backends.links[shard]) backends.links[shard]->close();
    backends.links[shard].reset();
  }
  note_forward_failure(shard);
}

ScheduleResponse ShardRouter::merge(const ScheduleRequest& request,
                                    const std::vector<ForwardResult>& results) {
  std::vector<const ForwardResult*> ok;
  for (const ForwardResult& result : results) {
    if (result.delivered && result.response.status == ScheduleStatus::kOk) {
      ok.push_back(&result);
    }
  }
  if (!ok.empty()) {
    if (ok.size() >= 2) {
      // Exact: the normalised encodings are compared byte for byte, so
      // replicas agree only when every double matches bit for bit.
      bool diverged = false;
      for (std::size_t i = 1; i < ok.size(); ++i) {
        if (ok[i]->normalized != ok[0]->normalized) {
          diverged = true;
          break;
        }
      }
      bump(tallies_.quorum_checked);
      bump(diverged ? tallies_.quorum_divergence : tallies_.quorum_agreed);
      if (diverged) {
        // A typed incident, never a silently-chosen answer: replicas
        // disagreeing on a deterministic solve means corruption or a
        // miscomputing shard — the distributed twin of the src/check/
        // contract auditors.
        DLS_COUNT("serve.quorum.divergence");
        ScheduleResponse incident;
        incident.request_id = request.request_id;
        incident.status = ScheduleStatus::kError;
        incident.error = "quorum divergence: " + std::to_string(ok.size()) +
                         " replicas returned non-identical solutions";
        return incident;
      }
      DLS_COUNT("serve.quorum.agreed");
    } else {
      bump(tallies_.quorum_single);
    }
    ScheduleResponse chosen = ok[0]->response;
    chosen.request_id = request.request_id;
    return chosen;
  }
  // No solution landed: merge the backpressure. The largest retry-after
  // hint wins so the client backs off for the slowest replica.
  const ScheduleResponse* degraded = nullptr;
  const ScheduleResponse* shed = nullptr;
  const ScheduleResponse* error = nullptr;
  for (const ForwardResult& result : results) {
    if (!result.delivered) continue;
    const ScheduleResponse& r = result.response;
    if (r.status == ScheduleStatus::kDegraded &&
        (degraded == nullptr ||
         r.retry_after_us > degraded->retry_after_us)) {
      degraded = &r;
    } else if (r.status == ScheduleStatus::kShed && shed == nullptr) {
      shed = &r;
    } else if (error == nullptr) {
      error = &r;
    }
  }
  ScheduleResponse merged;
  if (degraded != nullptr) {
    merged = *degraded;
  } else if (shed != nullptr) {
    merged = *shed;
  } else if (error != nullptr) {
    merged = *error;
  } else {
    merged.status = ScheduleStatus::kDegraded;
    merged.error = "no owning shard reachable";
    merged.retry_after_us = config_.degraded_retry_after_us;
    DLS_COUNT("serve.shard.unreachable");
  }
  merged.request_id = request.request_id;
  return merged;
}

void ShardRouter::note_forward_failure(std::size_t shard) {
  bump(tallies_.forward_failures);
  DLS_COUNT("serve.shard.forward_failures");
  bool died = false;
  {
    std::lock_guard<std::mutex> lock(health_mutex_);
    ++consecutive_failures_[shard];
    if (consecutive_failures_[shard] >= config_.heartbeat.retry_budget &&
        map_.alive(shard)) {
      map_.set_alive(shard, false);
      probe_attempts_[shard] = 0;
      died = true;
    }
  }
  if (!died) return;
  bump(tallies_.shard_deaths);
  bump(tallies_.rebalances);
  DLS_COUNT("serve.shard.deaths");
  DLS_COUNT("serve.shard.rebalances");
  health_cv_.notify_all();  // wake the monitor to start probing
}

void ShardRouter::note_forward_success(std::size_t shard) {
  std::lock_guard<std::mutex> lock(health_mutex_);
  consecutive_failures_[shard] = 0;
}

void ShardRouter::monitor_loop() {
  std::vector<Clock::time_point> next_probe(config_.shard_count,
                                            Clock::now());
  for (;;) {
    std::vector<std::size_t> dead;
    {
      std::unique_lock<std::mutex> lock(health_mutex_);
      health_cv_.wait_for(lock, seconds_of(config_.heartbeat.period),
                          [this] { return stopping_; });
      if (stopping_) return;
      for (std::size_t shard = 0; shard < map_.shard_count(); ++shard) {
        if (!map_.alive(shard) && Clock::now() >= next_probe[shard]) {
          dead.push_back(shard);
        }
      }
    }
    for (const std::size_t shard : dead) {
      // The probe is a bare redial outside the health lock: a shard
      // that accepts a connection again is ready for traffic.
      bool revived = false;
      try {
        const std::unique_ptr<Transport> probe = config_.connect(shard);
        revived = probe != nullptr && probe->valid();
        if (probe) probe->close();
      } catch (const dls::Error&) {
        revived = false;
      }
      std::size_t attempt = 0;
      {
        std::lock_guard<std::mutex> lock(health_mutex_);
        if (revived) {
          map_.set_alive(shard, true);
          consecutive_failures_[shard] = 0;
          probe_attempts_[shard] = 0;
          next_probe[shard] = Clock::now();
        } else {
          attempt = ++probe_attempts_[shard];
        }
      }
      if (revived) {
        bump(tallies_.shard_revivals);
        bump(tallies_.rebalances);
        DLS_COUNT("serve.shard.revivals");
        DLS_COUNT("serve.shard.rebalances");
      } else {
        DLS_COUNT("serve.shard.probes");
        // Same backoff arithmetic the crash monitor uses, so probe
        // cadence is bit-identical for the same knobs.
        const double wait = protocol::exponential_backoff(
            config_.heartbeat.period, config_.heartbeat.backoff_factor,
            attempt, config_.heartbeat.max_backoff);
        next_probe[shard] = Clock::now() + seconds_of(wait);
      }
    }
  }
}

}  // namespace dls::serve
