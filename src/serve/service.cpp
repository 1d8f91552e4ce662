#include "serve/service.hpp"

#include <algorithm>
#include <utility>

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
/// came from the cache or a fresh solve.
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

SchedulerService::SchedulerService(ServiceConfig config)
    : config_(config),
      pool_(exec::ThreadPool::global()),
      cache_(config.cache_capacity),
      lanes_(pool_.worker_count()),
      paused_(config.start_paused),
      sessions_(config.poison_budget, config.resync_scan_bytes,
                [this](Session& session, const Frame& frame) {
                  on_frame(session, frame);
                }) {
  DLS_REQUIRE(config_.queue_capacity >= 1,
              "service needs a queue of at least one request");
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
  std::vector<Lane*> held;
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    paused_ = false;
    for (Lane& lane : lanes_) {
      if (!lane.scheduled && !lane.queue.empty()) {
        lane.scheduled = true;
        held.push_back(&lane);
      }
    }
  }
  for (Lane* lane : held) post(*lane);
}

void SchedulerService::stop() {
  std::vector<Pending> rest;
  {
    std::unique_lock<std::mutex> lock(queue_mutex_);
    stopping_.store(true, std::memory_order_release);
    // A running task finishes its request; none claims another.
    lanes_idle_.wait(lock, [&] {
      return std::none_of(lanes_.begin(), lanes_.end(),
                          [](const Lane& lane) { return lane.scheduled; });
    });
    for (Lane& lane : lanes_) {
      for (Pending& pending : lane.queue) rest.push_back(std::move(pending));
      lane.queue.clear();
    }
    queued_ = 0;
  }
  // Drain on stop: everything still queued is answered, not dropped.
  for (const Pending& pending : rest) {
    refuse(pending, ScheduleStatus::kError,
           "service stopped before the request was served");
    pending.session->pending.fetch_sub(1, std::memory_order_release);
  }
  // Only now close the connections (unblocking every reader with EOF). A
  // reader still admitting meanwhile is shed, since stopping_ is set;
  // the in-place rule declines from the same moment.
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
  // A deadline is admission-relative and owned by the lane task, which
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
    if (queued_ < config_.brownout_watermark) return false;
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
  Lane& lane = lanes_[pending.session->id % lanes_.size()];
  {
    std::unique_lock<std::mutex> lock(queue_mutex_);
    if (!stopping_.load(std::memory_order_relaxed) &&
        queued_ < config_.queue_capacity) {
      pending.session->pending.fetch_add(1, std::memory_order_relaxed);
      pending.admitted_at = Clock::now();
      lane.queue.push_back(std::move(pending));
      ++queued_;
      DLS_GAUGE_MAX("serve.queue_depth", static_cast<double>(queued_));
      bump(tallies_.admitted);
      const bool start = !paused_ && !lane.scheduled;
      if (start) lane.scheduled = true;
      lock.unlock();
      if (start) post(lane);
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

void SchedulerService::post(Lane& lane) {
  pool_.post([this, &lane] { run_lane(lane); });
}

bool SchedulerService::keep_scheduled(Lane& lane) {
  if (!paused_ && !stopping_.load(std::memory_order_relaxed) &&
      !lane.queue.empty()) {
    return true;
  }
  lane.scheduled = false;
  if (stopping_.load(std::memory_order_relaxed)) lanes_idle_.notify_all();
  return false;
}

void SchedulerService::run_lane(Lane& lane) {
  Pending pending;
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    if (!keep_scheduled(lane)) return;
    pending = std::move(lane.queue.front());
    lane.queue.pop_front();
    --queued_;
  }
  try {
    if (pending.multi) {
      answer(*pending.session, handle_multi(pending));
    } else {
      const ScheduleResponse response = handle(pending, lane.assess);
      answer(*pending.session, response);
      if (response.status == ScheduleStatus::kOk) {
        observe_latency(elapsed_us(pending.admitted_at, Clock::now()));
      }
    }
  } catch (const std::exception&) {
    // Backstop: handle()/handle_multi() absorb per-request failures and
    // writes swallow transport errors, so this is effectively
    // unreachable — but an exception escaping a pool task would
    // std::terminate the process.
    DLS_COUNT("serve.lane.dropped");
  }
  pending.session->pending.fetch_sub(1, std::memory_order_release);
  bool again = false;
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    again = keep_scheduled(lane);
  }
  if (again) post(lane);
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
                                          core::AssessWorkspace& assess) {
  DLS_SPAN("serve.handle");
  const ScheduleRequest& request = pending.request;
  if (expired(pending, Clock::now())) {
    return refusal<ScheduleResponse>(request.request_id,
                                     ScheduleStatus::kExpired);
  }
  ScheduleResponse response;
  try {
    const net::LinearNetwork network(request.w, request.z);
    // A key from the in-place rule is a known miss: looked up once only.
    const bool known_miss = !pending.key.empty();
    codec::Bytes fresh_key;
    if (!known_miss) fresh_key = canonical_topology_key(request.w, request.z);
    const codec::Bytes& key = known_miss ? pending.key : fresh_key;
    SolveCache::Value solution = known_miss ? nullptr : cache_.lookup(key);
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
    // unwind out of the lane task and kill the service.
    response = refusal<ScheduleResponse>(request.request_id,
                                         ScheduleStatus::kError, e.what());
  }
  return response;
}

MultiScheduleResponse SchedulerService::handle_multi(const Pending& pending) {
  DLS_SPAN("serve.multi.handle");
  const MultiScheduleRequest& request = *pending.multi;
  if (expired(pending, Clock::now())) {
    // Expired while queued: answered without scheduling a single
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
    // hostile request size): letting it escape would unwind out of the
    // lane task and terminate the process.
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
