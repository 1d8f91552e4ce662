// The scheduling service: concurrent DLS-LBL sessions behind a framed
// transport, with admission control, per-request deadlines, solve cache.
//
// Shape (mirroring a BOINC-style scheduler front-end):
//
//   client ──Pipe── session reader ──lane (session.id % lanes)── pool task
//                       │                       │                   │
//                       │ warm hit: in place;   │ expire past       │ solve
//                       ▼ else shed if full     ▼ deadline          ▼ via cache
//                    responses written back on the request's connection
//
//  * Connections run on the session core (session.hpp). Its reader
//    answers a warm payment-free hit in place (serve_in_place) and
//    admits the rest *synchronously*: a full queue answers kShed at
//    once — explicit backpressure, no stall.
//  * Admission appends a request to one of pool.worker_count() FIFO
//    lanes, picked by its connection's number. A lane with work has
//    exactly one task on exec::ThreadPool::global(): it answers the
//    lane's oldest request and re-posts itself while the lane has more,
//    so a connection's answers leave in arrival order and a slow request
//    holds up only its own lane.
//  * Each request's deadline (admission-relative, µs) is checked when
//    its task starts; an expired request is answered kExpired
//    solver-untouched.
//  * Solutions are memoised in a SolveCache keyed by canonical (w, z)
//    bytes. Metrics (serve.*): see docs/OBSERVABILITY.md.
//  * Multi-load requests share the lanes, the deadline rule and the
//    refusal path (each refusal in the request's own response kind) but
//    solve via multiload::MultiLoadSolver, uncached.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/dls_lbl.hpp"
#include "exec/thread_pool.hpp"
#include "serve/cache.hpp"
#include "serve/multiload_wire.hpp"
#include "serve/pipe.hpp"
#include "serve/service_wire.hpp"
#include "serve/session.hpp"

namespace dls::serve {

struct ServiceConfig {
  /// Admission bound: requests beyond this many queued (across all
  /// lanes) are shed.
  std::size_t queue_capacity = 64;
  /// Solve-cache capacity in resident solutions; 0 disables caching.
  std::size_t cache_capacity = 256;
  /// Deadline applied to requests that carry none; 0 = no deadline.
  double default_deadline_us = 0.0;
  /// Payment arithmetic for want_payments requests.
  core::MechanismConfig mechanism;
  /// Start with the lanes held: requests are admitted (or shed) but
  /// nothing is solved until resume(). Tests use this to provoke
  /// deterministic queue-full and deadline-expiry behaviour. The
  /// in-place rule keeps answering warm hits on the reader meanwhile.
  bool start_paused = false;
  /// Brown-out watermark: when the queue holds at least this many
  /// requests, every request the in-place rule did not answer gets a
  /// typed kDegraded refusal with a retry-after hint instead of
  /// queueing. 0 disables brown-out.
  std::size_t brownout_watermark = 0;
  /// The retry-after hint carried by kDegraded responses (µs).
  double degraded_retry_after_us = 1000.0;
  /// Poison-frame tolerance: how many resynchronised (garbled) frames
  /// a connection may send before it is quarantined (closed).
  std::size_t poison_budget = 8;
  /// Bytes the framing layer may discard hunting for the next frame
  /// boundary after a malformed header, per incident.
  std::size_t resync_scan_bytes = 65536;
};

/// Transport-independent response counts (kept regardless of whether
/// the obs runtime switch is on).
struct ServiceStats {
  std::uint64_t received = 0;  ///< well-formed requests read off the wire
  std::uint64_t admitted = 0;
  std::uint64_t ok = 0;
  std::uint64_t shed = 0;
  std::uint64_t expired = 0;
  std::uint64_t errors = 0;
  std::uint64_t degraded = 0;       ///< kDegraded brown-out refusals
  std::uint64_t poison_frames = 0;  ///< frames recovered via resync
  std::uint64_t quarantined = 0;    ///< connections closed for poison
  /// Read 0: each request is solved on its own. Kept while the
  /// benchmark reports them.
  std::uint64_t batched = 0;
  std::uint64_t batch_groups = 0;
  std::uint64_t batch_deduped = 0;
  std::uint64_t inline_hits = 0;    ///< hits answered in place, by a
                                    ///< reader or a colocated router
  /// Well-formed multi-load requests read off the wire (also counted
  /// in `received`; responses land in the shared status counters).
  std::uint64_t multi_received = 0;
  std::uint64_t multi_loads = 0;  ///< loads inside kOk multi responses
};

class SchedulerService {
 public:
  /// Runs its lane tasks on exec::ThreadPool::global().
  explicit SchedulerService(ServiceConfig config);
  ~SchedulerService();

  SchedulerService(const SchedulerService&) = delete;
  SchedulerService& operator=(const SchedulerService&) = delete;

  /// Opens an in-memory connection and returns the client end. Each
  /// connection is served by its own reader thread until the client
  /// closes or the service stops.
  PipeEnd connect();

  /// Serves an established transport (an accepted socket, a chaos
  /// wrapper, ...) with the same per-connection reader machinery that
  /// backs connect(). The service owns the transport from here on.
  void adopt(std::unique_ptr<Transport> transport);

  /// Colocated fast path for a router sharing this process: applies the
  /// reader's in-place rule (serve_in_place) to `request` without
  /// touching the wire or the lanes. Returns
  /// true (and fills `response`, bit-identical to a queued cache hit)
  /// only for a payment-free, deadline-free cache hit that arrives
  /// before stop() begins; everything else returns false so the caller
  /// falls back to the framed path and its full admission semantics.
  /// The router's session has nothing queued here, as it forwards one
  /// request at a time.
  bool try_serve_inline(const ScheduleRequest& request,
                        ScheduleResponse& response);

  /// Holds / releases the lanes: paused, no lane task claims a request.
  /// Admission keeps running while paused, so the queue fills and sheds
  /// deterministically.
  void pause();
  void resume();

  /// Waits for every lane task to finish its request, answers
  /// everything still queued with kError, then closes every connection
  /// and joins the readers. Idempotent; the destructor calls it.
  void stop();

  ServiceStats stats() const;
  const SolveCache& cache() const noexcept { return cache_; }

 private:
  using Clock = std::chrono::steady_clock;

  struct Pending {
    ScheduleRequest request;
    /// Engaged for multi-load traffic; `request` is then unused.
    std::optional<MultiScheduleRequest> multi;
    /// Non-empty when the in-place rule looked the request up on the
    /// reader: the canonical key of a known miss, so handle() neither
    /// rebuilds it nor looks it up a second time.
    codec::Bytes key;
    Clock::time_point admitted_at;
    Session* session = nullptr;
  };

  /// One FIFO of admitted requests. `queue` and `scheduled` (a task for
  /// the lane is posted or running) are guarded by queue_mutex_; only
  /// the lane's task, one at a time, uses `assess`.
  struct Lane {
    std::deque<Pending> queue;
    bool scheduled = false;
    core::AssessWorkspace assess;
  };

  /// The session core's per-frame hook: decodes a request of either
  /// kind, answers it in place when the in-place rule allows, and
  /// admits it otherwise; anything else is refused with kError and the
  /// connection stays up.
  void on_frame(Session& session, const Frame& frame);
  /// The in-place rule, the one place a cache hit skips the lanes. A
  /// single-load request qualifies when it wants no payments, has no
  /// effective deadline, arrives before stop() begins and, when it came
  /// off a session, that session has nothing queued ahead of it
  /// (`session` is null for the colocated router). A qualifying request
  /// is looked up once: a hit fills `response` (the bytes of a queued
  /// hit) and counts as an inline hit; a miss leaves its key in `key`.
  /// Payment-wanting hits stay on the lanes: an assessment is O(m) work
  /// for the pool, not a reader.
  bool serve_in_place(const ScheduleRequest& request, const Session* session,
                      codec::Bytes& key, ScheduleResponse& response);
  /// Shared admission for single- and multi-load traffic: one bound
  /// across the lanes, FIFO per lane across both kinds, kShed when full.
  /// Stamps admitted_at at the moment of queueing.
  void admit(Pending pending);
  /// Brown-out: above the queue watermark, refuses with kDegraded what
  /// the in-place rule did not answer. Returns false when the request
  /// should proceed to normal admission.
  bool try_brownout(const Pending& pending);
  /// The deadline rule: a request's own admission-relative deadline
  /// (µs), else the service default; 0 means none.
  double deadline_of(double requested_us) const noexcept {
    return requested_us > 0.0 ? requested_us : config_.default_deadline_us;
  }
  /// True when `pending` outlived its deadline by `now`: it is then
  /// answered kExpired without touching the solver.
  bool expired(const Pending& pending, Clock::time_point now) const;
  /// Posts `lane`'s task; never called under queue_mutex_.
  void post(Lane& lane);
  /// The lane task: answers the lane's oldest request, then re-posts
  /// itself while the lane has more.
  void run_lane(Lane& lane);
  /// Under queue_mutex_: true when `lane`'s task may claim a request;
  /// otherwise the lane is no longer scheduled (and stop() is woken).
  bool keep_scheduled(Lane& lane);
  /// Phase IV payments for `response`, assessed from the solution the
  /// request already holds (cached or freshly solved) in the lane's
  /// warmed workspace — Algorithm 1 is not run a second time.
  void fill_payments(const net::LinearNetwork& network,
                     const dlt::LinearSolution& solution,
                     core::AssessWorkspace& assess,
                     ScheduleResponse& response) const;
  /// Solves (or refuses) one admitted request; pure apart from cache
  /// and metric updates, so lanes run it concurrently. `assess` is the
  /// lane's own workspace.
  ScheduleResponse handle(const Pending& pending,
                          core::AssessWorkspace& assess);
  /// Solves (or refuses) one admitted multi-load request via
  /// multiload::MultiLoadSolver; expired requests are answered without
  /// scheduling a single installment.
  MultiScheduleResponse handle_multi(const Pending& pending);
  /// The refusal path of both request kinds: a `status` refusal in
  /// `pending`'s own response kind, counted and sent.
  void refuse(const Pending& pending, ScheduleStatus status,
              std::string error = {}, double retry_after_us = 0.0);
  /// Counts a computed response and sends it on `session`.
  void answer(Session& session, const ScheduleResponse& response);
  void answer(Session& session, const MultiScheduleResponse& response);
  /// Counts one response by status; both kinds fold into the same
  /// counters. `multi_loads` is the load count of a kOk multi-load
  /// response.
  void count(ScheduleStatus status, std::size_t multi_loads = 0);

  ServiceConfig config_;
  exec::ThreadPool& pool_;
  SolveCache cache_;

  mutable std::mutex queue_mutex_;
  /// pool_.worker_count() lanes, fixed for the service's life.
  std::vector<Lane> lanes_;
  std::size_t queued_ = 0;  ///< requests in every lane
  bool paused_ = false;
  /// stop() waits on it for every lane to be unscheduled.
  std::condition_variable lanes_idle_;
  /// Written under queue_mutex_; the in-place rule reads it without.
  std::atomic<bool> stopping_{false};

  /// The counts behind stats(), one relaxed atomic each so that no
  /// request path takes a lock to count (the session core keeps the
  /// poison and quarantine counts).
  struct Tallies {
    Tally received{0};
    Tally admitted{0};
    Tally ok{0};
    Tally shed{0};
    Tally expired{0};
    Tally errors{0};
    Tally degraded{0};
    Tally inline_hits{0};
    Tally multi_received{0};
    Tally multi_loads{0};
  };
  Tallies tallies_;

  SessionCore sessions_;
};

}  // namespace dls::serve
