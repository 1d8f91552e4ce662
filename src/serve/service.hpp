// The scheduling service: concurrent DLS-LBL sessions behind a framed
// transport, with admission control, per-request deadlines, solve cache.
//
// Shape (mirroring a BOINC-style scheduler front-end):
//
//   client ──Pipe── session reader ──bounded queue── dispatcher ── pool
//                       │                 │               │
//                       │ shed when full  │ expire past   │ batch solve
//                       ▼                 ▼ deadline      ▼ via cache
//                    responses written back on the request's connection
//
//  * connect() hands out one end of a fresh Pipe; adopt() runs the same
//    session machinery over any Transport (SocketTransport,
//    ChaosTransport, ...). A per-connection reader thread decodes
//    frames and admits *synchronously*: a full queue answers kShed
//    immediately — backpressure is explicit, never a silent stall.
//  * A dispatcher thread drains the queue in batches of at most
//    `max_batch` and solves them concurrently on the exec::ThreadPool.
//  * Each request's deadline (admission-relative, µs) is checked before
//    solving; an expired request is answered kExpired solver-untouched.
//  * Same-length cache misses of one dispatch window coalesce into one
//    SoA batch solve (dlt::BatchLinearSolver); responses stay
//    bit-identical to per-request solves.
//  * Solutions are memoised in a SolveCache keyed by canonical (w, z)
//    bytes. Metrics (serve.*): see docs/OBSERVABILITY.md.
//  * Multi-load requests (kMultiScheduleRequest) share the same queue
//    and shed/degraded/expired/stop semantics but solve via
//    multiload::MultiLoadSolver per request (the answer depends on the
//    whole mix — nothing to cache); single-load bytes are unchanged.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "core/dls_lbl.hpp"
#include "exec/thread_pool.hpp"
#include "serve/cache.hpp"
#include "serve/multiload_wire.hpp"
#include "serve/pipe.hpp"
#include "serve/service_wire.hpp"

namespace dls::serve {

struct ServiceConfig {
  /// Admission bound: requests beyond this many queued are shed.
  std::size_t queue_capacity = 64;
  /// Requests solved per dispatcher wake-up (concurrently, on the pool).
  std::size_t max_batch = 8;
  /// Batched-solve threshold: cache-miss requests in the same dispatch
  /// window whose chains have equal length are coalesced into one
  /// BatchLinearSolver solve when at least this many distinct instances
  /// group together (duplicate topologies are deduplicated into one
  /// lane regardless). Responses stay bit-identical to unbatched
  /// solves. 0 disables dispatch-window batching entirely.
  std::size_t batch_min_lanes = 2;
  /// Solve-cache capacity in resident solutions; 0 disables caching.
  std::size_t cache_capacity = 256;
  /// Deadline applied to requests that carry none; 0 = no deadline.
  double default_deadline_us = 0.0;
  /// Payment arithmetic for want_payments requests.
  core::MechanismConfig mechanism;
  /// Start with the dispatcher held: requests are admitted (or shed)
  /// but nothing is solved until resume(). Tests use this to provoke
  /// deterministic queue-full and deadline-expiry behaviour.
  bool start_paused = false;
  /// Brown-out watermark: when the queue holds at least this many
  /// requests, cache hits are answered inline from the reader thread
  /// and cache misses get a typed kDegraded refusal with a retry-after
  /// hint instead of queueing. 0 disables brown-out.
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
  std::uint64_t batched = 0;        ///< requests answered via batch solves
  std::uint64_t batch_groups = 0;   ///< batched solver runs dispatched
  std::uint64_t batch_deduped = 0;  ///< duplicate topologies answered
                                    ///< from a batchmate's lane
  std::uint64_t inline_hits = 0;    ///< try_serve_inline cache answers
  /// Well-formed multi-load requests read off the wire (also counted
  /// in `received`; responses land in the shared status counters).
  std::uint64_t multi_received = 0;
  std::uint64_t multi_loads = 0;  ///< loads inside kOk multi responses
};

class SchedulerService {
 public:
  /// `pool` defaults to exec::ThreadPool::global().
  explicit SchedulerService(ServiceConfig config,
                            exec::ThreadPool* pool = nullptr);
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

  /// Colocated fast path for a router sharing this process: answers
  /// `request` from the solve cache without touching the wire, the
  /// admission queue or the dispatcher. Returns true (and fills
  /// `response`, bit-identical to a queued cache hit) only for
  /// payment-free cache hits on a valid instance; everything else —
  /// misses, payments, malformed requests — returns false so the caller
  /// falls back to the framed path and its full admission semantics.
  bool try_serve_inline(const ScheduleRequest& request,
                        ScheduleResponse& response);

  /// Holds / releases the dispatcher. Admission keeps running while
  /// paused, so the queue fills and sheds deterministically.
  void pause();
  void resume();

  /// Answers everything still queued with kError, closes every
  /// connection and joins all threads. Idempotent; the destructor
  /// calls it.
  void stop();

  ServiceStats stats() const;
  const SolveCache& cache() const noexcept { return cache_; }

 private:
  struct Session {
    std::unique_ptr<Transport> end;  ///< server side of the connection
    std::thread reader;
    std::atomic<bool> done{false};  ///< reader loop has returned
    /// Queued requests still holding a pointer to this session; the
    /// session may only be reaped once done and pending == 0.
    std::atomic<std::size_t> pending{0};
  };
  struct Pending {
    ScheduleRequest request;
    /// Engaged for multi-load traffic; `request` is then unused.
    std::optional<MultiScheduleRequest> multi;
    std::chrono::steady_clock::time_point admitted_at;
    Session* session = nullptr;
  };

  void session_loop(Session* session);
  /// Closes a connection that exhausted its poison budget (or sent a
  /// stream the resync scan could not rescue).
  void quarantine(Session* session);
  /// Shared admission for single- and multi-load traffic: one bounded
  /// queue, FIFO across both kinds, kShed in the request's own response
  /// type when full. Stamps admitted_at at the moment of queueing.
  void admit(Pending pending);
  /// Brown-out path: answers `request` inline (cache hit or kDegraded)
  /// when the queue is above the watermark. Returns false when the
  /// request should proceed to normal admission.
  bool try_brownout(const ScheduleRequest& request, Session* session);
  /// Multi-load brown-out: schedules are never cached (the answer
  /// depends on the full load mix), so above the watermark every
  /// multi-load request gets the typed kDegraded refusal.
  bool try_brownout_multi(const MultiScheduleRequest& request,
                          Session* session);
  void dispatch_loop();
  void process_batch(std::vector<Pending>& batch);

  /// Same-length cache misses of one dispatch window, coalesced into one
  /// BatchLinearSolver run. `members[lane]` is the batch index solved in
  /// `lane`; `aliases` are duplicate-topology requests answered from an
  /// existing lane's solution instead of their own.
  struct MissGroup {
    std::size_t chain = 0;  ///< processors per instance
    std::vector<std::size_t> members;
    std::vector<codec::Bytes> keys;  ///< cache key per lane
    std::vector<std::pair<std::size_t, std::size_t>> aliases;
  };
  /// Reusable solver + assessment buffers, owned by the dispatcher and
  /// handed to the window's pool tasks one each (task t — a miss group
  /// or a single request — uses dispatch_scratch_[t]).
  struct DispatchScratch {
    dlt::BatchLinearSolver solver;  ///< miss groups only
    core::AssessWorkspace assess;
  };

  /// A request routed to the per-request path. When classification
  /// already consulted the cache, the key it built and the lookup's
  /// result ride along so handle() neither rebuilds the key nor looks
  /// up (and counts) a second time.
  struct SingleTask {
    std::size_t index = 0;
    codec::Bytes key;            ///< empty = not looked up yet
    SolveCache::Value solution;  ///< null = known miss (or not looked up)
  };

  /// Dispatcher-thread triage of one window: answers expired requests
  /// and payment-free cache hits in place (into `responses`), groups
  /// batchable cache misses by chain length, and routes everything else
  /// (validation failures, cache hits wanting payments, leftovers of
  /// undersized groups) to `singles` for the classic handle() path.
  void classify_window(const std::vector<Pending>& batch,
                       std::vector<ScheduleResponse>& responses,
                       std::vector<SingleTask>& singles,
                       std::vector<MissGroup>& groups);
  /// Solves one miss group on the pool; fills member and alias
  /// responses (bit-identical to handle() on each request alone).
  void solve_group_lanes(const MissGroup& group, DispatchScratch& scratch,
                         const std::vector<Pending>& batch);
  void solve_group(const MissGroup& group, DispatchScratch& scratch,
                   const std::vector<Pending>& batch,
                   std::vector<ScheduleResponse>& responses);
  /// Phase IV payments for `response`, assessed from the solution the
  /// request already holds (cached, freshly solved or an extracted
  /// batch lane) in the task's warmed workspace — Algorithm 1 is not
  /// run a second time.
  void fill_payments(const net::LinearNetwork& network,
                     const dlt::LinearSolution& solution,
                     core::AssessWorkspace& assess,
                     ScheduleResponse& response) const;
  /// Solves (or refuses) one admitted request; pure apart from cache
  /// and metric updates, so batch items run concurrently on the pool.
  /// `assess` is the pool task's own workspace. `prefetched` carries
  /// classification's cache-lookup result when one was made (so every
  /// request is looked up exactly once).
  ScheduleResponse handle(const Pending& pending,
                          core::AssessWorkspace& assess,
                          const SingleTask* prefetched = nullptr);
  /// Solves (or refuses) one admitted multi-load request via
  /// multiload::MultiLoadSolver; expired requests are answered without
  /// scheduling a single installment.
  MultiScheduleResponse handle_multi(const Pending& pending);
  void send_response(Session* session, const ScheduleResponse& response);
  void send_multi_response(Session* session,
                           const MultiScheduleResponse& response);
  void count_response(const ScheduleResponse& response);
  void count_multi_response(const MultiScheduleResponse& response);

  ServiceConfig config_;
  exec::ThreadPool* pool_;
  SolveCache cache_;

  mutable std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  std::deque<Pending> queue_;
  bool paused_ = false;
  bool stopping_ = false;

  mutable std::mutex sessions_mutex_;
  std::vector<std::unique_ptr<Session>> sessions_;
  bool accepting_ = true;

  mutable std::mutex stats_mutex_;
  ServiceStats stats_;

  /// One entry per concurrent pool task: grown to the largest window's
  /// task count (at most max_batch) and reused across windows; only the
  /// dispatcher (and the pool tasks it fans out per window) touch it.
  std::vector<std::unique_ptr<DispatchScratch>> dispatch_scratch_;

  std::thread dispatcher_;
};

}  // namespace dls::serve
