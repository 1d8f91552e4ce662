#include "serve/service.hpp"

#include <algorithm>
#include <utility>

#include "common/discipline.hpp"
#include "multiload/payments.hpp"
#include "multiload/solver.hpp"
#include "net/networks.hpp"
#include "obs/obs.hpp"
#include "serve/frame.hpp"

namespace dls::serve {

namespace {

double elapsed_us(std::chrono::steady_clock::time_point since,
                  std::chrono::steady_clock::time_point now) {
  return std::chrono::duration<double, std::micro>(now - since).count();
}

}  // namespace

SchedulerService::SchedulerService(ServiceConfig config,
                                   exec::ThreadPool* pool)
    : config_(config),
      pool_(pool != nullptr ? pool : &exec::ThreadPool::global()),
      cache_(config.cache_capacity),
      paused_(config.start_paused) {
  DLS_REQUIRE(config_.queue_capacity >= 1,
              "service needs a queue of at least one request");
  DLS_REQUIRE(config_.max_batch >= 1, "max_batch must be at least 1");
  dispatcher_ = std::thread([this] { dispatch_loop(); });
}

SchedulerService::~SchedulerService() { stop(); }

PipeEnd SchedulerService::connect() {
  Pipe pipe = make_pipe();
  adopt(std::make_unique<PipeEnd>(std::move(pipe.a)));
  return std::move(pipe.b);
}

void SchedulerService::adopt(std::unique_ptr<Transport> transport) {
  DLS_REQUIRE(transport != nullptr, "adopt() needs a transport");
  std::lock_guard<std::mutex> lock(sessions_mutex_);
  DLS_REQUIRE(accepting_, "adopt()/connect() on a stopped service");
  // Reap sessions whose reader has already returned (peer hung up or
  // was quarantined) so reconnect storms don't accumulate dead threads
  // for the lifetime of the service.
  for (auto it = sessions_.begin(); it != sessions_.end();) {
    if ((*it)->done.load(std::memory_order_acquire) &&
        (*it)->pending.load(std::memory_order_acquire) == 0) {
      if ((*it)->reader.joinable()) (*it)->reader.join();
      it = sessions_.erase(it);
    } else {
      ++it;
    }
  }
  auto session = std::make_unique<Session>();
  session->end = std::move(transport);
  Session* raw = session.get();
  session->reader = std::thread([this, raw] {
    session_loop(raw);
    raw->done.store(true, std::memory_order_release);
  });
  sessions_.push_back(std::move(session));
  DLS_COUNT("serve.sessions");
}

bool SchedulerService::try_serve_inline(const ScheduleRequest& request,
                                        ScheduleResponse& response) {
  if (request.options.want_payments) return false;
  // Deadline accounting is admission-relative and owned by the framed
  // path; serving such a request inline could answer where handle()
  // would expire it, so any effective deadline declines the fast path.
  double deadline_us = request.options.deadline_us;
  if (deadline_us <= 0.0) deadline_us = config_.default_deadline_us;
  if (deadline_us > 0.0) return false;
  codec::Bytes key;
  try {
    key = canonical_topology_key(request.w, request.z);
  } catch (const dls::Error&) {
    return false;  // malformed instance: the framed path owns kError
  }
  const SolveCache::Value solution = cache_.lookup(key);
  if (!solution) return false;
  response = ScheduleResponse{};
  response.request_id = request.request_id;
  response.status = ScheduleStatus::kOk;
  response.cache_hit = true;
  response.alpha = solution->alpha;
  response.makespan = solution->makespan;
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.inline_hits;
  }
  DLS_COUNT("serve.inline_hits");
  return true;
}

void SchedulerService::pause() {
  std::lock_guard<std::mutex> lock(queue_mutex_);
  paused_ = true;
}

void SchedulerService::resume() {
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    paused_ = false;
  }
  queue_cv_.notify_all();
}

void SchedulerService::stop() {
  {
    std::lock_guard<std::mutex> lock(sessions_mutex_);
    accepting_ = false;
  }
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    stopping_ = true;
    paused_ = false;
  }
  queue_cv_.notify_all();
  if (dispatcher_.joinable()) dispatcher_.join();
  // Closing the server ends unblocks every reader (EOF) and makes any
  // late response write throw, which send_response absorbs.
  std::vector<std::unique_ptr<Session>> sessions;
  {
    std::lock_guard<std::mutex> lock(sessions_mutex_);
    sessions.swap(sessions_);
  }
  for (auto& session : sessions) session->end->close();
  for (auto& session : sessions) {
    if (session->reader.joinable()) session->reader.join();
  }
}

ServiceStats SchedulerService::stats() const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  return stats_;
}

void SchedulerService::session_loop(Session* session) {
  std::size_t poison = 0;
  try {
    for (;;) {
      std::size_t skipped = 0;
      std::optional<Frame> frame;
      try {
        frame = read_frame_resync(*session->end, config_.resync_scan_bytes,
                                  &skipped);
      } catch (const FrameTruncationError&) {
        // Peer vanished mid-frame (torn write / silent disconnect):
        // the connection is dead, nothing to salvage.
        return;
      } catch (const FrameChecksumError&) {
        // Payload corrupted in flight, but the announced length was
        // fully consumed so the stream is still frame-aligned: a
        // poison frame, not a dead connection.
        ++poison;
        DLS_COUNT("serve.fault.checksum_mismatches");
        {
          std::lock_guard<std::mutex> lock(stats_mutex_);
          ++stats_.poison_frames;
        }
        if (poison > config_.poison_budget) {
          quarantine(session);
          return;
        }
        continue;
      } catch (const codec::DecodeError&) {
        // The resync scan gave up (budget exhausted or the stream died
        // while hunting): this peer is sending garbage, not frames.
        quarantine(session);
        return;
      }
      if (skipped > 0) {
        // A malformed header was skipped over: count the poison frame
        // and quarantine peers that keep sending them.
        ++poison;
        DLS_COUNT("serve.fault.poison_frames");
        DLS_COUNT("serve.fault.resync_bytes", skipped);
        {
          std::lock_guard<std::mutex> lock(stats_mutex_);
          ++stats_.poison_frames;
        }
        if (poison > config_.poison_budget) {
          quarantine(session);
          return;
        }
      }
      if (!frame) return;  // clean EOF: the client hung up
      if (frame->type == FrameType::kMultiScheduleRequest) {
        MultiScheduleRequest request;
        try {
          request = decode_multi_schedule_request(frame->payload);
        } catch (const codec::DecodeError& e) {
          MultiScheduleResponse refusal;
          refusal.status = ScheduleStatus::kError;
          refusal.error = e.what();
          count_multi_response(refusal);
          send_multi_response(session, refusal);
          continue;
        }
        {
          std::lock_guard<std::mutex> lock(stats_mutex_);
          ++stats_.received;
          ++stats_.multi_received;
        }
        DLS_COUNT("serve.multi.requests");
        Pending pending;
        pending.multi = std::move(request);
        pending.session = session;
        admit(std::move(pending));
        continue;
      }
      if (frame->type != FrameType::kScheduleRequest) {
        ScheduleResponse refusal;
        refusal.status = ScheduleStatus::kError;
        refusal.error = "unexpected frame type '" + to_string(frame->type) +
                        "' (expected schedule_request)";
        count_response(refusal);
        send_response(session, refusal);
        continue;
      }
      ScheduleRequest request;
      try {
        request = decode_schedule_request(frame->payload);
      } catch (const codec::DecodeError& e) {
        ScheduleResponse refusal;
        refusal.status = ScheduleStatus::kError;
        refusal.error = e.what();
        count_response(refusal);
        send_response(session, refusal);
        continue;
      }
      {
        std::lock_guard<std::mutex> lock(stats_mutex_);
        ++stats_.received;
      }
      DLS_COUNT("serve.requests");
      Pending pending;
      pending.request = std::move(request);
      pending.session = session;
      admit(std::move(pending));
    }
  } catch (const TransportError&) {
    // Peer vanished; the connection is dead either way.
  }
}

void SchedulerService::quarantine(Session* session) {
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.quarantined;
  }
  DLS_COUNT("serve.quarantined");
  // Closing only this connection tears down the poisoned peer without
  // touching the dispatcher or any other session; the client observes
  // EOF for anything it still believes is in flight.
  session->end->close();
}

bool SchedulerService::try_brownout(const ScheduleRequest& request,
                                    Session* session) {
  if (config_.brownout_watermark == 0) return false;
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    if (queue_.size() < config_.brownout_watermark) return false;
  }
  // Above the watermark the solver pool is the bottleneck, so answer
  // what the cache already knows inline from the reader thread (the
  // bytes are identical to a queued solve) and refuse the rest with a
  // typed hint instead of letting the queue shed blindly.
  DLS_SPAN("serve.brownout");
  if (!request.options.want_payments) {
    const codec::Bytes key = canonical_topology_key(request.w, request.z);
    if (const SolveCache::Value solution = cache_.lookup(key)) {
      ScheduleResponse response;
      response.request_id = request.request_id;
      response.status = ScheduleStatus::kOk;
      response.cache_hit = true;
      response.alpha = solution->alpha;
      response.makespan = solution->makespan;
      DLS_COUNT("serve.brownout.cache_hits");
      count_response(response);
      send_response(session, response);
      return true;
    }
  }
  // Payments need the full mechanism run, never just cached bytes, so
  // want_payments traffic always degrades during a brown-out.
  ScheduleResponse degraded;
  degraded.request_id = request.request_id;
  degraded.status = ScheduleStatus::kDegraded;
  degraded.error = "service degraded: queue above brown-out watermark";
  degraded.retry_after_us = config_.degraded_retry_after_us;
  count_response(degraded);
  send_response(session, degraded);
  return true;
}

bool SchedulerService::try_brownout_multi(const MultiScheduleRequest& request,
                                          Session* session) {
  if (config_.brownout_watermark == 0) return false;
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    if (queue_.size() < config_.brownout_watermark) return false;
  }
  // No cache fast path here: a multi-load answer depends on the whole
  // load mix, never on topology alone, so brown-out always refuses
  // with the typed hint.
  DLS_SPAN("serve.brownout");
  MultiScheduleResponse degraded;
  degraded.request_id = request.request_id;
  degraded.status = ScheduleStatus::kDegraded;
  degraded.error = "service degraded: queue above brown-out watermark";
  degraded.retry_after_us = config_.degraded_retry_after_us;
  count_multi_response(degraded);
  send_multi_response(session, degraded);
  return true;
}

void SchedulerService::admit(Pending pending) {
  if (pending.multi) {
    if (try_brownout_multi(*pending.multi, pending.session)) return;
  } else if (try_brownout(pending.request, pending.session)) {
    return;
  }
  Session* session = pending.session;
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    if (!stopping_ && queue_.size() < config_.queue_capacity) {
      session->pending.fetch_add(1, std::memory_order_relaxed);
      pending.admitted_at = std::chrono::steady_clock::now();
      queue_.push_back(std::move(pending));
      DLS_GAUGE_MAX("serve.queue_depth", static_cast<double>(queue_.size()));
      {
        std::lock_guard<std::mutex> stats_lock(stats_mutex_);
        ++stats_.admitted;
      }
      queue_cv_.notify_one();
      return;
    }
  }
  // Explicit backpressure: the client learns immediately and retries
  // with backoff instead of waiting on a silently growing queue.
  if (pending.multi) {
    MultiScheduleResponse shed;
    shed.request_id = pending.multi->request_id;
    shed.status = ScheduleStatus::kShed;
    count_multi_response(shed);
    send_multi_response(session, shed);
    return;
  }
  ScheduleResponse shed;
  shed.request_id = pending.request.request_id;
  shed.status = ScheduleStatus::kShed;
  count_response(shed);
  send_response(session, shed);
}

void SchedulerService::dispatch_loop() {
  std::vector<Pending> batch;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      queue_cv_.wait(lock, [&] {
        return stopping_ || (!paused_ && !queue_.empty());
      });
      if (stopping_) break;
      const std::size_t take = std::min(config_.max_batch, queue_.size());
      batch.clear();
      batch.reserve(take);
      for (std::size_t i = 0; i < take; ++i) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
    }
    try {
      process_batch(batch);
    } catch (const std::exception&) {
      // Last-ditch backstop: process_batch guards its solve phase and
      // the response writes swallow transport errors, so this is
      // effectively unreachable — but an exception escaping here would
      // std::terminate the whole service from the dispatcher thread,
      // so the loop must never rethrow.
      DLS_COUNT("serve.dispatch.batch_dropped");
    }
  }
  // Drain on stop: everything still queued is answered, not dropped.
  std::deque<Pending> rest;
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    rest.swap(queue_);
  }
  for (const Pending& pending : rest) {
    if (pending.multi) {
      MultiScheduleResponse refusal;
      refusal.request_id = pending.multi->request_id;
      refusal.status = ScheduleStatus::kError;
      refusal.error = "service stopped before the request was served";
      count_multi_response(refusal);
      send_multi_response(pending.session, refusal);
    } else {
      ScheduleResponse refusal;
      refusal.request_id = pending.request.request_id;
      refusal.status = ScheduleStatus::kError;
      refusal.error = "service stopped before the request was served";
      count_response(refusal);
      send_response(pending.session, refusal);
    }
    pending.session->pending.fetch_sub(1, std::memory_order_release);
  }
}

void SchedulerService::process_batch(std::vector<Pending>& batch) {
  DLS_SPAN_ARGS("serve.dispatch",
                "{\"batch\":" + std::to_string(batch.size()) + "}");
  DLS_OBSERVE("serve.batch_size", static_cast<double>(batch.size()),
              {1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0});
  std::vector<ScheduleResponse> responses(batch.size());
  std::vector<MultiScheduleResponse> multi_responses(batch.size());
  std::vector<SingleTask> singles;
  std::vector<MissGroup> groups;
  classify_window(batch, responses, singles, groups);
  const std::size_t group_count = groups.size();
  const std::size_t tasks = group_count + singles.size();
  while (dispatch_scratch_.size() < tasks) {
    dispatch_scratch_.push_back(std::make_unique<DispatchScratch>());
  }
  try {
    pool_->parallel_for(tasks, [&](std::size_t t) {
      DispatchScratch& scratch = *dispatch_scratch_[t];
      if (t < group_count) {
        solve_group(groups[t], scratch, batch, responses);
      } else {
        const SingleTask& task = singles[t - group_count];
        const Pending& pending = batch[task.index];
        if (pending.multi) {
          multi_responses[task.index] = handle_multi(pending);
        } else {
          responses[task.index] = handle(pending, scratch.assess, &task);
        }
      }
    });
  } catch (const std::exception& e) {
    // handle()/handle_multi()/solve_group() absorb per-request failures
    // themselves, so only a failure outside them (response assignment,
    // pool plumbing) lands here. The pool reports the first exception
    // and the rest of the tasks still ran, but which entry it came from
    // is unknown — refuse every entry that was being computed in
    // parallel (classify_window results stand) and keep the dispatcher.
    DLS_COUNT("serve.dispatch.batch_failed");
    const auto refuse = [&](std::size_t i) {
      if (batch[i].multi) {
        MultiScheduleResponse& r = multi_responses[i];
        r = MultiScheduleResponse{};
        r.request_id = batch[i].multi->request_id;
        r.status = ScheduleStatus::kError;
        r.error = e.what();
      } else {
        ScheduleResponse& r = responses[i];
        r = ScheduleResponse{};
        r.request_id = batch[i].request.request_id;
        r.status = ScheduleStatus::kError;
        r.error = e.what();
      }
    };
    for (const SingleTask& task : singles) refuse(task.index);
    for (const MissGroup& group : groups) {
      for (const std::size_t i : group.members) refuse(i);
      for (const auto& [i, lane] : group.aliases) refuse(i);
    }
  }
  // Responses are written serially, in admission order, after the
  // parallel solve — frame writes are atomic either way, but serial
  // writes keep per-connection response order deterministic.
  // [[maybe_unused]]: the only consumer is DLS_OBSERVE, which compiles
  // out at DLS_OBS_LEVEL=0 and must not leave a warning behind.
  [[maybe_unused]] const auto now = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (batch[i].multi) {
      count_multi_response(multi_responses[i]);
      send_multi_response(batch[i].session, multi_responses[i]);
      batch[i].session->pending.fetch_sub(1, std::memory_order_release);
      continue;
    }
    count_response(responses[i]);
    if (responses[i].status == ScheduleStatus::kOk) {
      DLS_OBSERVE("serve.request.latency_us",
                  elapsed_us(batch[i].admitted_at, now),
                  {10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1000.0, 2000.0,
                   5000.0, 10000.0, 20000.0, 50000.0, 100000.0, 1000000.0});
    }
    send_response(batch[i].session, responses[i]);
    batch[i].session->pending.fetch_sub(1, std::memory_order_release);
  }
}

void SchedulerService::classify_window(const std::vector<Pending>& batch,
                                       std::vector<ScheduleResponse>& responses,
                                       std::vector<SingleTask>& singles,
                                       std::vector<MissGroup>& groups) {
  if (config_.batch_min_lanes == 0) {
    // Dispatch-window batching disabled: everything takes the classic
    // per-request path, untouched.
    singles.reserve(batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      singles.push_back(SingleTask{i, {}, nullptr});
    }
    return;
  }
  const auto now = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (batch[i].multi) {
      // Multi-load requests always take the per-request path: the
      // answer depends on the whole load mix, so there is nothing to
      // look up or coalesce with batchmates.
      singles.push_back(SingleTask{i, {}, nullptr});
      continue;
    }
    const ScheduleRequest& request = batch[i].request;
    ScheduleResponse& response = responses[i];
    response.request_id = request.request_id;

    // Same deadline rule handle() applies before touching the solver:
    // an expired batchmate is answered here and never occupies a lane.
    double deadline_us = request.options.deadline_us;
    if (deadline_us <= 0.0) deadline_us = config_.default_deadline_us;
    if (deadline_us > 0.0 &&
        elapsed_us(batch[i].admitted_at, now) > deadline_us) {
      response.status = ScheduleStatus::kExpired;
      continue;
    }

    // Validate exactly as handle() would; invalid instances go to the
    // single path so their kError response is produced by the same code.
    try {
      net::LinearNetwork::validate(request.w, request.z);
    } catch (const dls::Error&) {
      singles.push_back(SingleTask{i, {}, nullptr});
      continue;
    }

    codec::Bytes key = canonical_topology_key(request.w, request.z);
    if (SolveCache::Value solution = cache_.lookup(key)) {
      if (request.options.want_payments) {
        // A hit that wants payments is assessed from the cached
        // solution on the classic path (handing over the hit and its
        // key so neither is computed twice).
        singles.push_back(SingleTask{i, std::move(key), std::move(solution)});
        continue;
      }
      response.status = ScheduleStatus::kOk;
      response.cache_hit = true;
      response.alpha = solution->alpha;
      response.makespan = solution->makespan;
      continue;
    }

    // Cache miss: group by chain length; identical topologies collapse
    // into one lane (payment-carrying requests keep their own lane so
    // each gets its own mechanism run).
    const std::size_t chain = request.w.size();
    MissGroup* group = nullptr;
    for (MissGroup& g : groups) {
      if (g.chain == chain) {
        group = &g;
        break;
      }
    }
    if (group == nullptr) {
      groups.emplace_back();
      group = &groups.back();
      group->chain = chain;
    }
    if (!request.options.want_payments) {
      bool aliased = false;
      for (std::size_t lane = 0; lane < group->keys.size(); ++lane) {
        if (group->keys[lane] == key) {
          group->aliases.emplace_back(i, lane);
          aliased = true;
          break;
        }
      }
      if (aliased) continue;
    }
    group->members.push_back(i);
    group->keys.push_back(std::move(key));
  }

  // Undersized groups don't amortise the batch machinery; hand their
  // members back to the per-request path (aliases justify keeping a
  // group regardless — one solve still answers several requests).
  for (auto it = groups.begin(); it != groups.end();) {
    if (it->members.size() < config_.batch_min_lanes &&
        it->aliases.empty()) {
      for (std::size_t lane = 0; lane < it->members.size(); ++lane) {
        // Classification already looked these up (known misses).
        singles.push_back(
            SingleTask{it->members[lane], std::move(it->keys[lane]), nullptr});
      }
      it = groups.erase(it);
    } else {
      ++it;
    }
  }
}

// The dispatcher's inner loop: stages every lane of a miss group into
// the warmed batch solver and runs it. Split from solve_group so the
// part that must stay allocation-free under load carries the
// DLS_HOT_NOALLOC contract, while the response fan-out above it is free
// to build strings and shared_ptrs.
DLS_HOT_NOALLOC
void SchedulerService::solve_group_lanes(const MissGroup& group,
                                         DispatchScratch& scratch,
                                         const std::vector<Pending>& batch) {
  const std::size_t lanes = group.members.size();
  scratch.solver.begin(group.chain, lanes);
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    const ScheduleRequest& request = batch[group.members[lane]].request;
    scratch.solver.set_instance(lane, request.w, request.z);
  }
  scratch.solver.solve();
}

void SchedulerService::solve_group(const MissGroup& group,
                                   DispatchScratch& scratch,
                                   const std::vector<Pending>& batch,
                                   std::vector<ScheduleResponse>& responses) {
  const std::size_t lanes = group.members.size();
  DLS_SPAN_ARGS("serve.batch.solve",
                "{\"m\":" + std::to_string(group.chain) +
                    ",\"k\":" + std::to_string(lanes) + "}");
  DLS_COUNT("serve.batch.groups");
  DLS_COUNT("serve.batch.lanes", lanes);
  if (!group.aliases.empty()) {
    DLS_COUNT("serve.batch.dedup", group.aliases.size());
  }
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.batch_groups;
    stats_.batched += lanes + group.aliases.size();
    stats_.batch_deduped += group.aliases.size();
  }

  try {
    solve_group_lanes(group, scratch, batch);
  } catch (const std::exception& e) {
    // A contract violation (or allocation failure) mid-batch poisons
    // every lane equally; each member gets an error, aliases included.
    const auto fail = [&](std::size_t i) {
      ScheduleResponse& r = responses[i];
      r = ScheduleResponse{};
      r.request_id = batch[i].request.request_id;
      r.status = ScheduleStatus::kError;
      r.error = e.what();
    };
    for (const std::size_t i : group.members) fail(i);
    for (const auto& [i, lane] : group.aliases) fail(i);
    return;
  }

  std::vector<SolveCache::Value> solutions(lanes);
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    const std::size_t i = group.members[lane];
    const ScheduleRequest& request = batch[i].request;
    auto solved = std::make_shared<dlt::LinearSolution>();
    scratch.solver.extract(lane, *solved);
    solutions[lane] = std::move(solved);
    cache_.insert(group.keys[lane], solutions[lane]);

    ScheduleResponse& response = responses[i];
    response.status = ScheduleStatus::kOk;
    response.cache_hit = false;
    response.alpha = solutions[lane]->alpha;
    response.makespan = solutions[lane]->makespan;
    if (request.options.want_payments) {
      try {
        const net::LinearNetwork network(request.w, request.z);
        fill_payments(network, *solutions[lane], scratch.assess, response);
      } catch (const std::exception& e) {
        response = ScheduleResponse{};
        response.request_id = request.request_id;
        response.status = ScheduleStatus::kError;
        response.error = e.what();
      }
    }
  }

  for (const auto& [i, lane] : group.aliases) {
    ScheduleResponse& response = responses[i];
    response.request_id = batch[i].request.request_id;
    response.status = ScheduleStatus::kOk;
    response.cache_hit = false;
    response.alpha = solutions[lane]->alpha;
    response.makespan = solutions[lane]->makespan;
  }
}

void SchedulerService::fill_payments(const net::LinearNetwork& network,
                                     const dlt::LinearSolution& solution,
                                     core::AssessWorkspace& assess,
                                     ScheduleResponse& response) const {
  const core::DlsLblResult& assessed = core::assess_compliant_from_solution(
      network, solution, network.processing_times(), config_.mechanism,
      assess);
  response.payments.resize(assessed.processors.size());
  for (std::size_t j = 0; j < assessed.processors.size(); ++j) {
    response.payments[j] = assessed.processors[j].money.payment;
  }
  response.total_payment = assessed.total_payment;
}

ScheduleResponse SchedulerService::handle(const Pending& pending,
                                          core::AssessWorkspace& assess,
                                          const SingleTask* prefetched) {
  DLS_SPAN("serve.handle");
  const ScheduleRequest& request = pending.request;
  ScheduleResponse response;
  response.request_id = request.request_id;

  double deadline_us = request.options.deadline_us;
  if (deadline_us <= 0.0) deadline_us = config_.default_deadline_us;
  if (deadline_us > 0.0 &&
      elapsed_us(pending.admitted_at, std::chrono::steady_clock::now()) >
          deadline_us) {
    response.status = ScheduleStatus::kExpired;
    return response;
  }

  try {
    const net::LinearNetwork network(request.w, request.z);
    const bool looked_up = prefetched != nullptr && !prefetched->key.empty();
    codec::Bytes fresh_key;
    if (!looked_up) fresh_key = canonical_topology_key(request.w, request.z);
    const codec::Bytes& key = looked_up ? prefetched->key : fresh_key;
    SolveCache::Value solution =
        looked_up ? prefetched->solution : cache_.lookup(key);
    response.cache_hit = solution != nullptr;
    if (!solution) {
      auto solved = std::make_shared<dlt::LinearSolution>();
      dlt::solve_linear_boundary_into(network, *solved,
                                      /*want_steps=*/false);
      solution = std::move(solved);
      cache_.insert(key, solution);
    }
    response.alpha = solution->alpha;
    response.makespan = solution->makespan;
    if (request.options.want_payments) {
      fill_payments(network, *solution, assess, response);
    }
    response.status = ScheduleStatus::kOk;
  } catch (const dls::Error& e) {
    response = ScheduleResponse{};
    response.request_id = request.request_id;
    response.status = ScheduleStatus::kError;
    response.error = e.what();
  } catch (const std::exception& e) {
    // Untyped failure (e.g. bad_alloc): refuse rather than unwind into
    // the dispatcher thread and kill the service.
    response = ScheduleResponse{};
    response.request_id = request.request_id;
    response.status = ScheduleStatus::kError;
    response.error = e.what();
  }
  return response;
}

MultiScheduleResponse SchedulerService::handle_multi(const Pending& pending) {
  DLS_SPAN("serve.multi.handle");
  const MultiScheduleRequest& request = *pending.multi;
  MultiScheduleResponse response;
  response.request_id = request.request_id;

  double deadline_us = request.deadline_us;
  if (deadline_us <= 0.0) deadline_us = config_.default_deadline_us;
  if (deadline_us > 0.0 &&
      elapsed_us(pending.admitted_at, std::chrono::steady_clock::now()) >
          deadline_us) {
    // Expired before dispatch: answered without scheduling a single
    // installment, exactly like the single-load deadline rule.
    response.status = ScheduleStatus::kExpired;
    return response;
  }

  try {
    const net::LinearNetwork network(request.w, request.z);
    std::vector<multiload::LoadSpec> specs;
    specs.reserve(request.loads.size());
    for (const MultiLoadItem& item : request.loads) {
      specs.push_back(multiload::LoadSpec{item.load_id, item.size,
                                          item.release, item.deadline});
    }
    multiload::MultiLoadConfig config;
    config.policy = static_cast<multiload::DispatchPolicy>(request.policy);
    config.installments_per_load = request.installments;
    config.ingress_z = request.ingress_z;
    multiload::MultiLoadSolver solver(network);
    const multiload::MultiLoadSchedule schedule = solver.solve(specs, config);
    response.loads.reserve(schedule.loads.size());
    for (const multiload::LoadOutcome& outcome : schedule.loads) {
      MultiLoadResult result;
      result.load_id = outcome.spec.id;
      result.start = outcome.start;
      result.completion = outcome.completion;
      result.deadline_met = outcome.deadline_met;
      response.loads.push_back(result);
    }
    response.makespan = schedule.makespan;
    response.serialized_makespan = schedule.serialized_makespan;
    if (request.want_payments) {
      const multiload::MultiLoadAssessment assessment =
          multiload::assess_loads(network, network.processing_times(), specs,
                                  config_.mechanism);
      for (std::size_t i = 0; i < assessment.loads.size(); ++i) {
        response.loads[i].total_payment = assessment.loads[i].total_payment;
      }
      response.total_payment = assessment.total_payment;
    }
    response.status = ScheduleStatus::kOk;
  } catch (const dls::Error& e) {
    response = MultiScheduleResponse{};
    response.request_id = request.request_id;
    response.status = ScheduleStatus::kError;
    response.error = e.what();
  } catch (const std::exception& e) {
    // Untyped failure (bad_alloc, length_error from a hostile request
    // size): same refusal. Letting it escape would unwind through the
    // thread pool into the dispatcher thread and terminate the process.
    response = MultiScheduleResponse{};
    response.request_id = request.request_id;
    response.status = ScheduleStatus::kError;
    response.error = e.what();
  }
  return response;
}

void SchedulerService::send_response(Session* session,
                                     const ScheduleResponse& response) {
  try {
    write_frame(*session->end,
                Frame{FrameType::kScheduleResponse,
                      encode_schedule_response(response)});
  } catch (const TransportError&) {
    // The client hung up before its answer arrived; nothing to do.
  }
}

void SchedulerService::send_multi_response(
    Session* session, const MultiScheduleResponse& response) {
  try {
    write_frame(*session->end,
                Frame{FrameType::kMultiScheduleResponse,
                      encode_multi_schedule_response(response)});
  } catch (const TransportError&) {
    // The client hung up before its answer arrived; nothing to do.
  }
}

void SchedulerService::count_multi_response(
    const MultiScheduleResponse& response) {
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    switch (response.status) {
      case ScheduleStatus::kOk:
        ++stats_.ok;
        stats_.multi_loads += response.loads.size();
        break;
      case ScheduleStatus::kShed:
        ++stats_.shed;
        break;
      case ScheduleStatus::kExpired:
        ++stats_.expired;
        break;
      case ScheduleStatus::kError:
        ++stats_.errors;
        break;
      case ScheduleStatus::kDegraded:
        ++stats_.degraded;
        break;
    }
  }
  switch (response.status) {
    case ScheduleStatus::kOk:
      DLS_COUNT("serve.multi.responses.ok");
      DLS_COUNT("serve.multi.loads", response.loads.size());
      break;
    case ScheduleStatus::kShed:
      DLS_COUNT("serve.multi.responses.shed");
      break;
    case ScheduleStatus::kExpired:
      DLS_COUNT("serve.multi.responses.expired");
      break;
    case ScheduleStatus::kError:
      DLS_COUNT("serve.multi.responses.error");
      break;
    case ScheduleStatus::kDegraded:
      DLS_COUNT("serve.multi.responses.degraded");
      break;
  }
}

void SchedulerService::count_response(const ScheduleResponse& response) {
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    switch (response.status) {
      case ScheduleStatus::kOk:
        ++stats_.ok;
        break;
      case ScheduleStatus::kShed:
        ++stats_.shed;
        break;
      case ScheduleStatus::kExpired:
        ++stats_.expired;
        break;
      case ScheduleStatus::kError:
        ++stats_.errors;
        break;
      case ScheduleStatus::kDegraded:
        ++stats_.degraded;
        break;
    }
  }
  switch (response.status) {
    case ScheduleStatus::kOk:
      DLS_COUNT("serve.responses.ok");
      break;
    case ScheduleStatus::kShed:
      DLS_COUNT("serve.responses.shed");
      break;
    case ScheduleStatus::kExpired:
      DLS_COUNT("serve.responses.expired");
      break;
    case ScheduleStatus::kError:
      DLS_COUNT("serve.responses.error");
      break;
    case ScheduleStatus::kDegraded:
      DLS_COUNT("serve.degraded");
      break;
  }
}

}  // namespace dls::serve
