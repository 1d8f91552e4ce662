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

/// The kOk answer a solution gives: bit-identical whether the solution
/// came from the cache, a fresh solve or a batch lane.
ScheduleResponse solved(std::uint64_t request_id,
                        const dlt::LinearSolution& solution, bool cache_hit) {
  ScheduleResponse response;
  response.request_id = request_id;
  response.status = ScheduleStatus::kOk;
  response.cache_hit = cache_hit;
  response.alpha = solution.alpha;
  response.makespan = solution.makespan;
  return response;
}

/// Server-side latency of one kOk answer, µs. The buckets below 10 µs
/// resolve a hit answered in place (~2 µs of work); with 10 µs as the
/// first bound its p50 could only be interpolated inside [0, 10].
void observe_latency([[maybe_unused]] double us) {
  DLS_OBSERVE("serve.request.latency_us", us,
              {1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1000.0,
               2000.0, 5000.0, 10000.0, 20000.0, 50000.0, 100000.0, 1000000.0});
}

}  // namespace

SchedulerService::SchedulerService(ServiceConfig config,
                                   exec::ThreadPool* pool)
    : config_(config),
      pool_(pool != nullptr ? pool : &exec::ThreadPool::global()),
      cache_(config.cache_capacity),
      paused_(config.start_paused),
      sessions_(config.poison_budget, config.resync_scan_bytes,
                [this](Session& session, const Frame& frame) {
                  on_frame(session, frame);
                }) {
  DLS_REQUIRE(config_.queue_capacity >= 1,
              "service needs a queue of at least one request");
  DLS_REQUIRE(config_.max_batch >= 1, "max_batch must be at least 1");
  dispatcher_ = std::thread([this] { dispatch_loop(); });
}

SchedulerService::~SchedulerService() { stop(); }

PipeEnd SchedulerService::connect() { return sessions_.connect(); }

void SchedulerService::adopt(std::unique_ptr<Transport> transport) {
  sessions_.adopt(std::move(transport));
}

bool SchedulerService::try_serve_inline(const ScheduleRequest& request,
                                        ScheduleResponse& response) {
  codec::Bytes key;
  return serve_in_place(request, /*session=*/nullptr, key, response);
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
    std::lock_guard<std::mutex> lock(queue_mutex_);
    stopping_.store(true, std::memory_order_release);
    paused_ = false;
  }
  queue_cv_.notify_all();
  if (dispatcher_.joinable()) dispatcher_.join();
  // The dispatcher answered everything queued; only now close the
  // connections (unblocking every reader with EOF). A reader still
  // admitting meanwhile is shed, since stopping_ is set; the in-place
  // rule declines from the same moment.
  sessions_.stop();
}

ServiceStats SchedulerService::stats() const {
  ServiceStats stats;
  stats.received = read_tally(tallies_.received);
  stats.admitted = read_tally(tallies_.admitted);
  stats.ok = read_tally(tallies_.ok);
  stats.shed = read_tally(tallies_.shed);
  stats.expired = read_tally(tallies_.expired);
  stats.errors = read_tally(tallies_.errors);
  stats.degraded = read_tally(tallies_.degraded);
  stats.batched = read_tally(tallies_.batched);
  stats.batch_groups = read_tally(tallies_.batch_groups);
  stats.batch_deduped = read_tally(tallies_.batch_deduped);
  stats.inline_hits = read_tally(tallies_.inline_hits);
  stats.multi_received = read_tally(tallies_.multi_received);
  stats.multi_loads = read_tally(tallies_.multi_loads);
  stats.poison_frames = sessions_.poison_frames();
  stats.quarantined = sessions_.quarantined();
  return stats;
}

void SchedulerService::on_frame(Session& session, const Frame& frame) {
  Pending pending;
  pending.session = &session;
  const bool multi = frame.type == FrameType::kMultiScheduleRequest;
  // Engaged before decoding, so an undecodable multi-load payload is
  // refused in its own kind (under id 0: the id was not readable).
  if (multi) pending.multi.emplace();
  try {
    if (multi) {
      *pending.multi = decode_multi_schedule_request(frame.payload);
    } else if (frame.type == FrameType::kScheduleRequest) {
      pending.request = decode_schedule_request(frame.payload);
    } else {
      refuse(pending, ScheduleStatus::kError,
             unexpected_frame_type(frame.type));
      return;
    }
  } catch (const codec::DecodeError& e) {
    refuse(pending, ScheduleStatus::kError, e.what());
    return;
  }
  bump(tallies_.received);
  if (multi) bump(tallies_.multi_received);
  DLS_COUNT("serve.requests");
  if (multi) DLS_COUNT("serve.multi.requests");
  if (!multi) {
    const auto decoded_at = Clock::now();
    ScheduleResponse response;
    if (serve_in_place(pending.request, &session, pending.key, response)) {
      // Accepted, not shed: an in-place answer counts as admitted.
      bump(tallies_.admitted);
      answer(session, response);
      observe_latency(elapsed_us(decoded_at, Clock::now()));
      return;
    }
  }
  admit(std::move(pending));
}

bool SchedulerService::serve_in_place(const ScheduleRequest& request,
                                      const Session* session, codec::Bytes& key,
                                      ScheduleResponse& response) {
  // A deadline is admission-relative and owned by the dispatcher, which
  // may expire the request where this would answer it.
  if (request.options.want_payments ||
      deadline_of(request.options.deadline_us) > 0.0 ||
      stopping_.load(std::memory_order_acquire)) {
    return false;
  }
  // A session with requests queued would see this answer overtake theirs.
  if (session != nullptr &&
      session->pending.load(std::memory_order_acquire) != 0) {
    return false;
  }
  key = canonical_topology_key(request.w, request.z);
  const SolveCache::Value solution = cache_.lookup(key);
  if (!solution) return false;
  response = solved(request.request_id, *solution, /*cache_hit=*/true);
  bump(tallies_.inline_hits);
  DLS_COUNT("serve.inline_hits");
  return true;
}

bool SchedulerService::try_brownout(const Pending& pending) {
  if (config_.brownout_watermark == 0) return false;
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    if (queue_.size() < config_.brownout_watermark) return false;
  }
  // Above the watermark the solver pool is the bottleneck. The in-place
  // rule already answered every hit it could; the rest — misses,
  // payments, deadlines, multi-load, and hits queued behind their own
  // session's requests — get a typed hint instead of a blind shed.
  DLS_SPAN("serve.brownout");
  refuse(pending, ScheduleStatus::kDegraded,
         "service degraded: queue above brown-out watermark",
         config_.degraded_retry_after_us);
  return true;
}

void SchedulerService::admit(Pending pending) {
  if (try_brownout(pending)) return;
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    if (!stopping_.load(std::memory_order_relaxed) &&
        queue_.size() < config_.queue_capacity) {
      pending.session->pending.fetch_add(1, std::memory_order_relaxed);
      pending.admitted_at = Clock::now();
      queue_.push_back(std::move(pending));
      DLS_GAUGE_MAX("serve.queue_depth", static_cast<double>(queue_.size()));
      bump(tallies_.admitted);
      queue_cv_.notify_one();
      return;
    }
  }
  // Explicit backpressure: the client learns immediately and retries
  // with backoff instead of waiting on a silently growing queue.
  refuse(pending, ScheduleStatus::kShed);
}

bool SchedulerService::expired(const Pending& pending,
                               Clock::time_point now) const {
  const double deadline_us =
      deadline_of(pending.multi ? pending.multi->deadline_us
                                : pending.request.options.deadline_us);
  return deadline_us > 0.0 &&
         elapsed_us(pending.admitted_at, now) > deadline_us;
}

void SchedulerService::dispatch_loop() {
  std::vector<Pending> batch;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      queue_cv_.wait(lock, [&] {
        return stopping_.load(std::memory_order_relaxed) ||
               (!paused_ && !queue_.empty());
      });
      if (stopping_.load(std::memory_order_relaxed)) break;
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
    refuse(pending, ScheduleStatus::kError,
           "service stopped before the request was served");
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
  // Entries the parallel phase was computing when it failed; empty
  // unless it did.
  std::vector<bool> refused;
  std::string failure;
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
    failure = e.what();
    refused.assign(batch.size(), false);
    for (const SingleTask& task : singles) refused[task.index] = true;
    for (const MissGroup& group : groups) {
      for (const std::size_t i : group.members) refused[i] = true;
      for (const auto& [i, lane] : group.aliases) refused[i] = true;
    }
  }
  // Responses are written serially, in admission order, after the
  // parallel solve — frame writes are atomic either way, but serial
  // writes keep per-connection response order deterministic.
  const auto now = Clock::now();
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const Pending& pending = batch[i];
    if (!refused.empty() && refused[i]) {
      refuse(pending, ScheduleStatus::kError, failure);
    } else if (pending.multi) {
      answer(*pending.session, multi_responses[i]);
    } else {
      if (responses[i].status == ScheduleStatus::kOk) {
        observe_latency(elapsed_us(pending.admitted_at, now));
      }
      answer(*pending.session, responses[i]);
    }
    pending.session->pending.fetch_sub(1, std::memory_order_release);
  }
}

void SchedulerService::classify_window(std::vector<Pending>& batch,
                                       std::vector<ScheduleResponse>& responses,
                                       std::vector<SingleTask>& singles,
                                       std::vector<MissGroup>& groups) {
  if (config_.batch_min_lanes == 0) {
    // Dispatch-window batching disabled: everything takes the classic
    // per-request path, untouched.
    singles.reserve(batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      singles.push_back(SingleTask{i, std::move(batch[i].key), nullptr});
    }
    return;
  }
  const auto now = Clock::now();
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
    if (expired(batch[i], now)) {
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

    // A request the reader's in-place rule looked up arrives as a known
    // miss with its key; any other is looked up here, once.
    codec::Bytes key = std::move(batch[i].key);
    SolveCache::Value solution;
    if (key.empty()) {
      key = canonical_topology_key(request.w, request.z);
      solution = cache_.lookup(key);
    }
    if (solution) {
      if (request.options.want_payments) {
        // A hit that wants payments is assessed from the cached
        // solution on the classic path (handing over the hit and its
        // key so neither is computed twice).
        singles.push_back(SingleTask{i, std::move(key), std::move(solution)});
        continue;
      }
      response = solved(request.request_id, *solution, /*cache_hit=*/true);
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
  bump(tallies_.batch_groups);
  bump(tallies_.batched, lanes + group.aliases.size());
  bump(tallies_.batch_deduped, group.aliases.size());

  try {
    solve_group_lanes(group, scratch, batch);
  } catch (const std::exception& e) {
    // A contract violation (or allocation failure) mid-batch poisons
    // every lane equally; each member gets an error, aliases included.
    const auto fail = [&](std::size_t i) {
      responses[i] = refusal<ScheduleResponse>(batch[i].request.request_id,
                                               ScheduleStatus::kError,
                                               e.what());
    };
    for (const std::size_t i : group.members) fail(i);
    for (const auto& [i, lane] : group.aliases) fail(i);
    return;
  }

  std::vector<SolveCache::Value> solutions(lanes);
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    const std::size_t i = group.members[lane];
    const ScheduleRequest& request = batch[i].request;
    auto fresh = std::make_shared<dlt::LinearSolution>();
    scratch.solver.extract(lane, *fresh);
    solutions[lane] = std::move(fresh);
    cache_.insert(group.keys[lane], solutions[lane]);

    ScheduleResponse& response = responses[i];
    response = solved(request.request_id, *solutions[lane],
                      /*cache_hit=*/false);
    if (request.options.want_payments) {
      try {
        const net::LinearNetwork network(request.w, request.z);
        fill_payments(network, *solutions[lane], scratch.assess, response);
      } catch (const std::exception& e) {
        response = refusal<ScheduleResponse>(
            request.request_id, ScheduleStatus::kError, e.what());
      }
    }
  }

  for (const auto& [i, lane] : group.aliases) {
    responses[i] = solved(batch[i].request.request_id, *solutions[lane],
                          /*cache_hit=*/false);
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
  if (expired(pending, Clock::now())) {
    return refusal<ScheduleResponse>(request.request_id,
                                     ScheduleStatus::kExpired);
  }
  ScheduleResponse response;
  try {
    const net::LinearNetwork network(request.w, request.z);
    const bool looked_up = prefetched != nullptr && !prefetched->key.empty();
    codec::Bytes fresh_key;
    if (!looked_up) fresh_key = canonical_topology_key(request.w, request.z);
    const codec::Bytes& key = looked_up ? prefetched->key : fresh_key;
    SolveCache::Value solution =
        looked_up ? prefetched->solution : cache_.lookup(key);
    const bool cache_hit = solution != nullptr;
    if (!solution) {
      auto fresh = std::make_shared<dlt::LinearSolution>();
      dlt::solve_linear_boundary_into(network, *fresh,
                                      /*want_steps=*/false);
      solution = std::move(fresh);
      cache_.insert(key, solution);
    }
    response = solved(request.request_id, *solution, cache_hit);
    if (request.options.want_payments) {
      fill_payments(network, *solution, assess, response);
    }
  } catch (const std::exception& e) {
    // Typed (dls::Error) or untyped (e.g. bad_alloc): refuse rather than
    // unwind into the dispatcher thread and kill the service.
    response = refusal<ScheduleResponse>(request.request_id,
                                         ScheduleStatus::kError, e.what());
  }
  return response;
}

MultiScheduleResponse SchedulerService::handle_multi(const Pending& pending) {
  DLS_SPAN("serve.multi.handle");
  const MultiScheduleRequest& request = *pending.multi;
  if (expired(pending, Clock::now())) {
    // Expired before dispatch: answered without scheduling a single
    // installment.
    return refusal<MultiScheduleResponse>(request.request_id,
                                          ScheduleStatus::kExpired);
  }
  MultiScheduleResponse response;
  response.request_id = request.request_id;
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
  } catch (const std::exception& e) {
    // Typed (dls::Error) or untyped (bad_alloc, length_error from a
    // hostile request size): letting it escape would unwind through the
    // thread pool into the dispatcher thread and terminate the process.
    response = refusal<MultiScheduleResponse>(
        request.request_id, ScheduleStatus::kError, e.what());
  }
  return response;
}

void SchedulerService::refuse(const Pending& pending, ScheduleStatus status,
                              std::string error, double retry_after_us) {
  count(status);
  send_refusal(*pending.session, pending.multi.has_value(),
               pending.multi ? pending.multi->request_id
                             : pending.request.request_id,
               status, std::move(error), retry_after_us);
}

void SchedulerService::answer(Session& session,
                              const ScheduleResponse& response) {
  count(response.status);
  session.send(response);
}

void SchedulerService::answer(Session& session,
                              const MultiScheduleResponse& response) {
  count(response.status, response.loads.size());
  session.send(response);
}

void SchedulerService::count(ScheduleStatus status, std::size_t multi_loads) {
  Tally Tallies::*tally = &Tallies::errors;
  switch (status) {
    case ScheduleStatus::kOk:
      tally = &Tallies::ok;
      DLS_COUNT("serve.responses.ok");
      if (multi_loads > 0) DLS_COUNT("serve.multi.loads", multi_loads);
      break;
    case ScheduleStatus::kShed:
      tally = &Tallies::shed;
      DLS_COUNT("serve.responses.shed");
      break;
    case ScheduleStatus::kExpired:
      tally = &Tallies::expired;
      DLS_COUNT("serve.responses.expired");
      break;
    case ScheduleStatus::kError:
      tally = &Tallies::errors;
      DLS_COUNT("serve.responses.error");
      break;
    case ScheduleStatus::kDegraded:
      tally = &Tallies::degraded;
      DLS_COUNT("serve.responses.degraded");
      break;
  }
  bump(tallies_.*tally);
  if (multi_loads > 0) bump(tallies_.multi_loads, multi_loads);
}

}  // namespace dls::serve
