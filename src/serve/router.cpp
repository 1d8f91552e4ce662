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

}  // namespace

ShardRouter::ShardRouter(RouterConfig config)
    : config_(std::move(config)),
      map_(config_.shard_count, ShardMapConfig{config_.vnodes}),
      consecutive_failures_(config_.shard_count, 0),
      probe_attempts_(config_.shard_count, 0) {
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
  Pipe pipe = make_pipe();
  adopt(std::make_unique<PipeEnd>(std::move(pipe.a)));
  return std::move(pipe.b);
}

void ShardRouter::adopt(std::unique_ptr<Transport> transport) {
  DLS_REQUIRE(transport != nullptr, "adopt() needs a transport");
  std::lock_guard<std::mutex> lock(sessions_mutex_);
  DLS_REQUIRE(accepting_, "adopt()/connect() on a stopped router");
  for (auto it = sessions_.begin(); it != sessions_.end();) {
    if ((*it)->done.load(std::memory_order_acquire)) {
      if ((*it)->reader.joinable()) (*it)->reader.join();
      it = sessions_.erase(it);
    } else {
      ++it;
    }
  }
  auto session = std::make_unique<Session>();
  session->end = std::move(transport);
  session->backends.resize(config_.shard_count);
  session->backend_next_id.assign(config_.shard_count, 1);
  Session* raw = session.get();
  session->reader = std::thread([this, raw] {
    session_loop(raw);
    raw->done.store(true, std::memory_order_release);
  });
  sessions_.push_back(std::move(session));
  DLS_COUNT("serve.shard.router_sessions");
}

void ShardRouter::stop() {
  {
    std::lock_guard<std::mutex> lock(health_mutex_);
    if (stopping_) return;
    stopping_ = true;
  }
  health_cv_.notify_all();
  if (monitor_.joinable()) monitor_.join();
  std::vector<std::unique_ptr<Session>> sessions;
  {
    std::lock_guard<std::mutex> lock(sessions_mutex_);
    accepting_ = false;
    sessions.swap(sessions_);
  }
  // Closing the client end unblocks the reader's frame read; closing
  // the backends unblocks a reader parked inside a forward round trip.
  for (auto& session : sessions) {
    session->end->close();
    for (auto& backend : session->backends) {
      if (backend) backend->close();
    }
  }
  for (auto& session : sessions) {
    if (session->reader.joinable()) session->reader.join();
  }
}

RouterStats ShardRouter::stats() const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  return stats_;
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
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.rebalances;
    if (alive) {
      ++stats_.shard_revivals;
    } else {
      ++stats_.shard_deaths;
    }
  }
  DLS_COUNT("serve.shard.rebalances");
  if (alive) {
    DLS_COUNT("serve.shard.revivals");
  } else {
    DLS_COUNT("serve.shard.deaths");
  }
  health_cv_.notify_all();
}

void ShardRouter::session_loop(Session* session) {
  std::size_t poison = 0;
  try {
    for (;;) {
      std::size_t skipped = 0;
      std::optional<Frame> frame;
      try {
        frame = read_frame_resync(*session->end, config_.resync_scan_bytes,
                                  &skipped);
      } catch (const FrameTruncationError&) {
        return;  // peer vanished mid-frame
      } catch (const FrameChecksumError&) {
        ++poison;
        DLS_COUNT("serve.shard.poison_frames");
        if (poison > config_.poison_budget) {
          session->end->close();
          return;
        }
        continue;
      } catch (const codec::DecodeError&) {
        session->end->close();  // resync gave up: quarantine
        return;
      }
      if (skipped > 0) {
        ++poison;
        DLS_COUNT("serve.shard.poison_frames");
        if (poison > config_.poison_budget) {
          session->end->close();
          return;
        }
      }
      if (!frame) return;  // clean EOF
      if (frame->type != FrameType::kScheduleRequest) {
        ScheduleResponse refusal;
        refusal.status = ScheduleStatus::kError;
        refusal.error = "unexpected frame type '" + to_string(frame->type) +
                        "' (expected schedule_request)";
        send_response(session, refusal);
        continue;
      }
      // Verbatim fast path: a payload byte-identical (modulo id) to
      // one already answered inline replays the cached encoding before
      // any decode work happens. Only inline answers fill the replay
      // tiers, so without the inline path there is nothing to look up.
      if (config_.replay_cache_capacity > 0 && inline_enabled() &&
          try_replay(session, frame->payload)) {
        continue;
      }
      ScheduleRequest request;
      try {
        request = decode_schedule_request(frame->payload);
      } catch (const codec::DecodeError& e) {
        ScheduleResponse refusal;
        refusal.status = ScheduleStatus::kError;
        refusal.error = e.what();
        send_response(session, refusal);
        continue;
      }
      {
        std::lock_guard<std::mutex> lock(stats_mutex_);
        ++stats_.received;
      }
      DLS_COUNT("serve.shard.requests");
      handle_request(session, request, frame->payload);
    }
  } catch (const TransportError&) {
    // Client connection died; nothing to salvage.
  }
}

bool ShardRouter::try_replay(Session* session,
                             std::span<const std::uint8_t> payload) {
  const std::span<const std::uint8_t> key =
      schedule_request_replay_key(payload);
  if (key.empty()) return false;
  const std::string_view whole(
      reinterpret_cast<const char*>(payload.data()), payload.size());
  const std::string_view needle(reinterpret_cast<const char*>(key.data()),
                                key.size());
  // Tier 1: an exact repeat (idempotent retry, id included) ships the
  // cached frame bytes untouched — one write, no hashing or encoding.
  const std::uint64_t request_id = schedule_request_id(payload);
  codec::Bytes wire;
  codec::Bytes encoded;
  bool verbatim = false;
  bool promote = false;
  {
    std::lock_guard<std::mutex> lock(replay_mutex_);
    const auto hit = verbatim_cache_.find(whole);
    if (hit != verbatim_cache_.end()) {
      wire = hit->second;
      verbatim = true;
    } else {
      const auto it = replay_cache_.find(needle);
      if (it == replay_cache_.end()) return false;
      encoded = it->second.encoded;
      promote = it->second.last_id == request_id;
      it->second.last_id = request_id;
    }
  }
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.received;
    ++stats_.replayed;
    if (verbatim) ++stats_.replayed_verbatim;
    ++stats_.answered_ok;
  }
  DLS_COUNT("serve.shard.requests");
  DLS_COUNT("serve.shard.replays");
  if (!verbatim) {
    // Tier 2: same request under a fresh id — patch the echoed id into
    // the cached payload and re-frame. Promotion into tier 1 waits for
    // a repeat under the SAME id (an exact-frame replayer), so id-
    // incrementing clients don't churn the verbatim tier.
    patch_schedule_response_id(encoded, request_id);
    Frame frame;
    frame.type = FrameType::kScheduleResponse;
    frame.payload = std::move(encoded);
    wire = encode_frame(frame);
    if (promote) store_verbatim(payload, wire);
  } else {
    DLS_COUNT("serve.shard.replays_verbatim");
  }
  try {
    session->end->write(wire);
  } catch (const TransportError&) {
    // The client hung up before its answer landed; nothing to do.
  }
  return true;
}

void ShardRouter::store_replay(std::span<const std::uint8_t> payload,
                               const codec::Bytes& encoded,
                               const codec::Bytes& wire) {
  const std::span<const std::uint8_t> key =
      schedule_request_replay_key(payload);
  if (key.empty()) return;
  std::string owned(reinterpret_cast<const char*>(key.data()), key.size());
  {
    std::lock_guard<std::mutex> lock(replay_mutex_);
    if (replay_cache_.find(std::string_view(owned)) ==
        replay_cache_.end()) {
      while (replay_cache_.size() >= config_.replay_cache_capacity &&
             !replay_fifo_.empty()) {
        replay_cache_.erase(replay_fifo_.front());
        replay_fifo_.pop_front();
      }
      replay_fifo_.push_back(owned);
      replay_cache_.emplace(
          std::move(owned),
          ReplayEntry{encoded, schedule_request_id(payload)});
    }
  }
  store_verbatim(payload, wire);
}

void ShardRouter::store_verbatim(std::span<const std::uint8_t> payload,
                                 const codec::Bytes& wire) {
  std::string owned(reinterpret_cast<const char*>(payload.data()),
                    payload.size());
  std::lock_guard<std::mutex> lock(replay_mutex_);
  if (verbatim_cache_.find(std::string_view(owned)) !=
      verbatim_cache_.end()) {
    return;
  }
  while (verbatim_cache_.size() >= config_.replay_cache_capacity &&
         !verbatim_fifo_.empty()) {
    verbatim_cache_.erase(verbatim_fifo_.front());
    verbatim_fifo_.pop_front();
  }
  verbatim_fifo_.push_back(owned);
  verbatim_cache_.emplace(std::move(owned), wire);
}

void ShardRouter::handle_request(Session* session,
                                 const ScheduleRequest& request,
                                 std::span<const std::uint8_t> payload) {
  // Malformed instances hash over the full request encoding instead:
  // they still deserve a deterministic owner, whose solver will answer
  // with the canonical kError text.
  codec::Bytes key;
  try {
    key = canonical_topology_key(request.w, request.z);
  } catch (const dls::Error&) {
    key = encode_schedule_request(request);
  }
  std::vector<std::size_t> owners;
  {
    std::lock_guard<std::mutex> lock(health_mutex_);
    owners = map_.owners(key, config_.replication);
  }
  if (owners.empty()) {
    ScheduleResponse refusal;
    refusal.request_id = request.request_id;
    refusal.status = ScheduleStatus::kDegraded;
    refusal.error = "no alive shard owns this key";
    refusal.retry_after_us = config_.degraded_retry_after_us;
    {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.no_owner;
      ++stats_.refused;
    }
    DLS_COUNT("serve.shard.no_owner");
    send_response(session, refusal);
    return;
  }
  // Colocated fast path: with no replication to cross-check, a
  // payment-free cache hit on the primary's in-process service skips
  // the wire, the admission queue and the dispatcher entirely.
  if (inline_enabled()) {
    SchedulerService* local = config_.local[owners[0]];
    ScheduleResponse response;
    if (local != nullptr && local->try_serve_inline(request, response)) {
      {
        std::lock_guard<std::mutex> lock(stats_mutex_);
        ++stats_.inline_hits;
        ++stats_.answered_ok;
      }
      DLS_COUNT("serve.shard.inline_hits");
      // Encode once: the frame bytes answer this client AND seed both
      // replay tiers, so the next identical request skips decode and
      // encode entirely. Only inline answers (payment-free,
      // deadline-free cache hits) ever populate them, which keeps
      // replays safe.
      Frame frame;
      frame.type = FrameType::kScheduleResponse;
      frame.payload = encode_schedule_response(response);
      const codec::Bytes wire = encode_frame(frame);
      if (config_.replay_cache_capacity > 0) {
        store_replay(payload, frame.payload, wire);
      }
      try {
        session->end->write(wire);
      } catch (const TransportError&) {
        // The client hung up before its answer landed; nothing to do.
      }
      return;
    }
  }
  std::vector<ForwardResult> results;
  results.reserve(owners.size());
  for (const std::size_t shard : owners) {
    results.push_back(forward(session, shard, payload));
  }
  const ScheduleResponse merged = merge(request, results);
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    if (merged.status == ScheduleStatus::kOk) {
      ++stats_.answered_ok;
    } else {
      ++stats_.refused;
    }
  }
  send_response(session, merged);
}

ShardRouter::ForwardResult ShardRouter::forward(
    Session* session, std::size_t shard,
    std::span<const std::uint8_t> payload) {
  ForwardResult result;
  Transport* link = session->backends[shard].get();
  if (link == nullptr || !link->valid()) {
    try {
      session->backends[shard] = config_.connect(shard);
      link = session->backends[shard].get();
    } catch (const dls::Error&) {
      link = nullptr;
    }
    if (link == nullptr) {
      note_forward_failure(shard);
      return result;
    }
  }
  // The client's encoding goes on unchanged apart from the id: this
  // link numbers its own requests so stale replies can be told apart.
  const std::uint64_t forward_id = session->backend_next_id[shard]++;
  Frame frame;
  frame.type = FrameType::kScheduleRequest;
  frame.payload.assign(payload.begin(), payload.end());
  patch_schedule_request_id(frame.payload, forward_id);
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.forwarded;
  }
  DLS_COUNT("serve.shard.forwarded");
  try {
    write_frame(*link, frame);
    // Bounded skip of stale responses (a chaos-duplicated frame from an
    // earlier round trip on this link).
    for (int attempt = 0; attempt < 4; ++attempt) {
      std::optional<Frame> reply = read_frame(*link, config_.forward_timeout_s);
      if (!reply) break;  // shard hung up
      if (reply->type != FrameType::kScheduleResponse) continue;
      ScheduleResponse response = decode_schedule_response(reply->payload);
      if (response.request_id != forward_id) continue;  // stale
      result.delivered = true;
      result.response = std::move(response);
      result.normalized = std::move(reply->payload);
      normalize_schedule_response(result.normalized);
      note_forward_success(shard);
      return result;
    }
  } catch (const TransportError&) {
  } catch (const codec::DecodeError&) {
  }
  // Wire trouble: drop the link so the next request redials, and count
  // the failure against the shard's heartbeat retry budget.
  session->backends[shard]->close();
  session->backends[shard].reset();
  note_forward_failure(shard);
  return result;
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
      {
        std::lock_guard<std::mutex> lock(stats_mutex_);
        ++stats_.quorum_checked;
        if (diverged) {
          ++stats_.quorum_divergence;
        } else {
          ++stats_.quorum_agreed;
        }
      }
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
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.quorum_single;
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

void ShardRouter::send_response(Session* session,
                                const ScheduleResponse& response) {
  try {
    Frame frame;
    frame.type = FrameType::kScheduleResponse;
    frame.payload = encode_schedule_response(response);
    write_frame(*session->end, frame);
  } catch (const TransportError&) {
    // The client hung up before its answer landed; nothing to do.
  }
}

void ShardRouter::note_forward_failure(std::size_t shard) {
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.forward_failures;
  }
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
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.shard_deaths;
    ++stats_.rebalances;
  }
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
        {
          std::lock_guard<std::mutex> lock(stats_mutex_);
          ++stats_.shard_revivals;
          ++stats_.rebalances;
        }
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
