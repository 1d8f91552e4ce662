// Persistent work-stealing execution engine for the sweep harness.
//
// The certification sweeps (THM5.1/5.3 grids, fault sweeps, Monte-Carlo
// baselines) are embarrassingly parallel but latency-sensitive: the old
// analysis-layer sweep driver spawned and joined fresh std::threads on
// every call, so a bench that issues thousands of small sweeps paid thread
// creation each time. This pool spawns its workers once, parks them on a
// condition variable, and dispatches chunked index ranges through
// per-worker deques with work stealing:
//   * each job is split into chunks of `grain` indices (auto-sized to a
//     few chunks per worker when 0) that are dealt round-robin onto the
//     deques;
//   * a worker pops its own deque LIFO (cache-warm) and steals FIFO from
//     victims when empty, so load imbalance self-corrects;
//   * the submitting thread participates as worker 0, so a dispatch
//     never blocks on a sleeping pool;
//   * results must be index-owned (body(i) writes only slot i), which
//     makes every sweep bit-identical at any worker count;
//   * an exception cancels every chunk above the lowest begin that threw
//     (chunks below it still run), so when several chunks throw the one
//     with the lowest begin index is rethrown on the caller, independent
//     of worker count.
// post() hands the workers one-off tasks besides the chunked jobs.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace dls::exec {

/// Tuning knobs for ThreadPool::parallel_for.
struct ForOptions {
  /// Indices per chunk; 0 picks ~4 chunks per participating worker.
  std::size_t grain = 0;
  /// Cap on participating workers including the caller (0 = all; 1 runs
  /// the body inline on the caller). Results are identical either way.
  std::size_t max_workers = 0;
};

class ThreadPool {
 public:
  /// `threads` pool workers in addition to the submitting thread, by
  /// default hardware_concurrency - 1. With 0 workers everything runs on
  /// the caller.
  explicit ThreadPool(std::size_t threads = default_threads());
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Maximum parallelism of a dispatch: pool workers + the caller.
  std::size_t worker_count() const noexcept { return workers_.size() + 1; }

  /// Invokes body(i) for every i in [0, count). Blocks until every index
  /// ran (or the job was cancelled by an exception, which is rethrown).
  /// Bodies must only touch index-owned state. Nested calls from inside
  /// a pool body run inline (serially) to keep the pool deadlock-free.
  void parallel_for(std::size_t count,
                    const std::function<void(std::size_t)>& body,
                    ForOptions options = {});

  /// Chunked flavour: body(begin, end) on half-open index ranges. This
  /// is the primitive parallel_for wraps; prefer it in hot sweeps so the
  /// per-index std::function indirection is paid once per chunk.
  void parallel_for_chunks(
      std::size_t count,
      const std::function<void(std::size_t, std::size_t)>& body,
      ForOptions options = {});

  /// Runs `task` once on a pool worker, FIFO with the other posted
  /// tasks, and returns without waiting for it. A pool with no workers
  /// runs it on the caller before returning; posted from inside such a
  /// task, it runs right after that task, so tasks never nest. The task
  /// must not throw (an escaping exception terminates, as from a
  /// std::thread). The destructor runs every task still queued before
  /// joining.
  void post(std::function<void()> task);

  /// The process-wide pool used by the sweep drivers, the analysis
  /// grids and the scheduling service. Created on first use, joined at
  /// exit.
  static ThreadPool& global();

 private:
  struct Chunk {
    std::size_t begin = 0;
    std::size_t end = 0;
  };

  /// One in-flight parallel_for_chunks call. Heap-held via shared_ptr so
  /// a worker that wakes late can still inspect it safely after the
  /// caller returned.
  struct Job {
    const std::function<void(std::size_t, std::size_t)>* body = nullptr;
    /// deques[0] belongs to the caller; deques[k] to pool worker k-1.
    std::vector<std::deque<Chunk>> deques;
    std::vector<std::unique_ptr<std::mutex>> deque_mutexes;
    std::mutex state_mutex;
    std::condition_variable done_cv;
    std::size_t chunks_remaining = 0;
    /// Pool-worker participation slots (the caller is always in).
    std::size_t slots = 0;
    bool cancelled = false;
    /// Lowest chunk begin among recorded exceptions, for deterministic
    /// rethrow when several bodies throw.
    std::size_t error_begin = 0;
    std::exception_ptr error;
  };

  /// hardware_concurrency - 1 (0 on a single-CPU host).
  static std::size_t default_threads();
  void worker_loop(std::size_t worker_index);
  /// Drains the job's deques from `self` (own deque first, then steals);
  /// returns when no chunk is left anywhere.
  static void run_chunks(Job& job, std::size_t self);
  static bool pop_or_steal(Job& job, std::size_t self, Chunk& out);

  std::vector<std::thread> workers_;

  std::mutex pool_mutex_;
  std::condition_variable wake_cv_;
  std::shared_ptr<Job> current_job_;
  std::uint64_t epoch_ = 0;
  std::deque<std::function<void()>> tasks_;  ///< posted, not yet started
  bool stopping_ = false;

  /// Serialises concurrent submissions from distinct caller threads.
  std::mutex submit_mutex_;
};

}  // namespace dls::exec
