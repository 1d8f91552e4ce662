#include "exec/thread_pool.hpp"

#include <algorithm>
#include <utility>

#include "common/discipline.hpp"
#include "common/error.hpp"
#include "obs/obs.hpp"

namespace dls::exec {

namespace {

/// Set while a thread is executing chunks of some job; nested
/// parallel_for calls from such a thread run inline instead of blocking
/// on the pool (the outer dispatch may hold every worker).
thread_local bool t_inside_pool_body = false;

/// Set while a pool with no workers runs posted tasks on this thread: a
/// task posted meanwhile joins this queue and runs once the current one
/// returns, so a task that re-posts itself loops instead of nesting.
thread_local std::deque<std::function<void()>>* t_inline_tasks = nullptr;

}  // namespace

std::size_t ThreadPool::default_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 1 ? static_cast<std::size_t>(hw - 1) : 0;
}

ThreadPool::ThreadPool(std::size_t threads) {
  workers_.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::scoped_lock lock(pool_mutex_);
    stopping_ = true;
  }
  wake_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

void ThreadPool::parallel_for(std::size_t count,
                              const std::function<void(std::size_t)>& body,
                              ForOptions options) {
  DLS_REQUIRE(static_cast<bool>(body), "parallel_for requires a body");
  const std::function<void(std::size_t, std::size_t)> chunk_body =
      [&body](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) body(i);
      };
  parallel_for_chunks(count, chunk_body, options);
}

void ThreadPool::parallel_for_chunks(
    std::size_t count,
    const std::function<void(std::size_t, std::size_t)>& body,
    ForOptions options) {
  DLS_REQUIRE(static_cast<bool>(body), "parallel_for requires a body");
  if (count == 0) return;

  std::size_t parallelism = worker_count();
  if (options.max_workers != 0) {
    parallelism = std::min(parallelism, options.max_workers);
  }
  parallelism = std::min(parallelism, count);

  // Serial fast paths: explicit single-worker requests, a pool with no
  // workers, and nested submissions from inside a pool body.
  if (parallelism <= 1 || workers_.empty() || t_inside_pool_body) {
    body(0, count);
    return;
  }

  DLS_SPAN_ARGS("exec.dispatch", "{\"count\":" + std::to_string(count) + "}");
  DLS_COUNT("exec.dispatches");

  const std::scoped_lock submit(submit_mutex_);
  auto job = std::make_shared<Job>();
  job->body = &body;
  job->count = count;
  job->grain = options.grain;
  job->divisor = 4 * parallelism;
  job->slots = parallelism - 1;  // pool workers; the caller always joins

  {
    const std::scoped_lock lock(pool_mutex_);
    current_job_ = job;
    ++epoch_;
  }
  wake_cv_.notify_all();

  run_chunks(*job);

  {
    // The caller's claims ran dry, so the cursor is past the end: close
    // the job to late workers and wait for the ones still running.
    std::unique_lock lock(job->state_mutex);
    job->closed = true;
    job->done_cv.wait(lock, [&] { return job->active == 0; });
  }
  {
    const std::scoped_lock lock(pool_mutex_);
    if (current_job_ == job) current_job_.reset();
  }
  DLS_COUNT("exec.chunks", job->chunks);
  DLS_OBSERVE("exec.queue_depth", static_cast<double>(job->chunks),
              {1.0, 4.0, 16.0, 64.0, 256.0, 1024.0});
  // Taken out of the job, so the exception dies on this thread even when
  // a worker drops the last reference to the job.
  if (std::exception_ptr error = std::exchange(job->error, nullptr)) {
    std::rethrow_exception(error);
  }
}

void ThreadPool::post(std::function<void()> task) {
  DLS_REQUIRE(static_cast<bool>(task), "post requires a task");
  if (workers_.empty()) {
    if (t_inline_tasks != nullptr) {
      t_inline_tasks->push_back(std::move(task));
      return;
    }
    std::deque<std::function<void()>> inline_tasks;
    inline_tasks.push_back(std::move(task));
    t_inline_tasks = &inline_tasks;
    [&]() noexcept {  // a throwing task terminates, as on a worker
      while (!inline_tasks.empty()) {
        const std::function<void()> next = std::move(inline_tasks.front());
        inline_tasks.pop_front();
        next();
      }
    }();
    t_inline_tasks = nullptr;
    return;
  }
  {
    const std::scoped_lock lock(pool_mutex_);
    tasks_.push_back(std::move(task));
  }
  wake_cv_.notify_one();
}

void ThreadPool::worker_loop() {
  std::uint64_t seen_epoch = 0;
  std::unique_lock lock(pool_mutex_);
  for (;;) {
    wake_cv_.wait(lock, [&] {
      return stopping_ || !tasks_.empty() ||
             (current_job_ && epoch_ != seen_epoch);
    });
    if (!current_job_ || epoch_ == seen_epoch) {
      if (tasks_.empty()) return;  // stopping, with every task run
      std::function<void()> task = std::move(tasks_.front());
      tasks_.pop_front();
      lock.unlock();
      task();
      task = nullptr;  // released before the lock is retaken
      lock.lock();
      continue;
    }
    seen_epoch = epoch_;
    const std::shared_ptr<Job> job = current_job_;
    lock.unlock();

    bool participate = false;
    {
      const std::scoped_lock state(job->state_mutex);
      if (job->slots > 0 && !job->closed) {
        --job->slots;
        ++job->active;
        participate = true;
      }
    }
    if (participate) run_chunks(*job);

    lock.lock();
  }
}

void ThreadPool::run_chunks(Job& job) {
  t_inside_pool_body = true;
  std::size_t claimed = 0;
  Chunk chunk;
  while (claim(job, chunk)) {
    ++claimed;
    bool run = true;
    {
      // A chunk below the lowest begin that threw still runs, so that
      // begin keeps falling until the lowest throwing chunk has thrown.
      const std::scoped_lock state(job.state_mutex);
      run = !job.cancelled || chunk.begin < job.error_begin;
    }
    if (!run) continue;
    // Scoped so the event is recorded before this participant leaves
    // the job below: the caller's post-join drain then observes it via
    // the same state_mutex release.
    DLS_SPAN_DETAIL("exec.chunk");
    try {
      (*job.body)(chunk.begin, chunk.end);
    } catch (...) {
      const std::scoped_lock state(job.state_mutex);
      job.cancelled = true;
      if (!job.error || chunk.begin < job.error_begin) {
        job.error = std::current_exception();
        job.error_begin = chunk.begin;
      }
    }
  }
  t_inside_pool_body = false;
  const std::scoped_lock state(job.state_mutex);
  job.chunks += claimed;
  if (--job.active == 0) job.done_cv.notify_all();
}

DLS_HOT_NOALLOC
bool ThreadPool::claim(Job& job, Chunk& out) {
  std::size_t begin = job.cursor.load();
  std::size_t size = 0;
  do {
    if (begin >= job.count) return false;
    const std::size_t remaining = job.count - begin;
    size = job.grain != 0 ? std::min(job.grain, remaining)
                          : std::max<std::size_t>(1, remaining / job.divisor);
  } while (!job.cursor.compare_exchange_weak(begin, begin + size));
  out = Chunk{begin, begin + size};
  return true;
}

}  // namespace dls::exec
