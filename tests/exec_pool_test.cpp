// Tests for the persistent pool (exec/thread_pool.hpp): coverage, the
// guided claim schedule, determinism at any worker count, grain control,
// the worker cap, exception propagation with cancellation, nesting, and
// posted tasks.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <functional>
#include <latch>
#include <mutex>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/experiments.hpp"
#include "analysis/sweep.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "exec/thread_pool.hpp"
#include "net/networks.hpp"

namespace {

using dls::exec::ForOptions;
using dls::exec::ThreadPool;

using Chunks = std::vector<std::pair<std::size_t, std::size_t>>;

/// Every [begin, end) one parallel_for_chunks call ran, sorted by begin.
Chunks record_chunks(ThreadPool& pool, std::size_t count,
                     ForOptions options) {
  std::mutex mutex;
  Chunks chunks;
  pool.parallel_for_chunks(
      count,
      [&](std::size_t begin, std::size_t end) {
        const std::scoped_lock lock(mutex);
        chunks.emplace_back(begin, end);
      },
      options);
  std::sort(chunks.begin(), chunks.end());
  return chunks;
}

/// Asserts that `chunks` tile [0, count) and that the chunk at `begin`
/// holds size_at(count - begin) indices.
template <typename SizeAt>
void expect_tiling(const Chunks& chunks, std::size_t count, SizeAt size_at) {
  std::size_t next = 0;
  for (const auto& [begin, end] : chunks) {
    ASSERT_EQ(begin, next) << "gap or overlap";
    EXPECT_EQ(end - begin, size_at(count - begin)) << "chunk at " << begin;
    next = end;
  }
  EXPECT_EQ(next, count);
}

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(3);
  constexpr std::size_t kCount = 10'000;
  std::vector<std::atomic<int>> hits(kCount);
  pool.parallel_for(kCount, [&](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < kCount; ++i) ASSERT_EQ(hits[i].load(), 1);
}

TEST(ThreadPool, ChunkApiCoversEveryIndexOnceUnderTinyGrain) {
  ThreadPool pool(4);
  constexpr std::size_t kCount = 1'237;  // prime: uneven final chunk
  std::vector<std::atomic<int>> hits(kCount);
  pool.parallel_for_chunks(
      kCount,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) ++hits[i];
      },
      ForOptions{.grain = 3});
  for (std::size_t i = 0; i < kCount; ++i) ASSERT_EQ(hits[i].load(), 1);
}

// Guided self-scheduling: with no grain each claim takes
// max(1, remaining / (4 x participants)) indices, so chunks shrink as the
// range drains and a participant that drew costly indices is not left
// alone with a large chunk at the end. A claim's size depends only on
// where it begins, so the schedule is the same whatever the timing.
TEST(ThreadPool, GuidedChunksTileTheRangeAndShrink) {
  ThreadPool pool(3);                   // 4 participants: remaining / 16
  constexpr std::size_t kCount = 6108;  // the sweep's curves per pass
  const Chunks chunks = record_chunks(pool, kCount, {});
  expect_tiling(chunks, kCount, [](std::size_t remaining) {
    return std::min(remaining, std::max<std::size_t>(1, remaining / 16));
  });
  EXPECT_EQ(chunks.size(), 117u);
}

TEST(ThreadPool, ExplicitGrainClaimsThatManyIndices) {
  ThreadPool pool(3);
  constexpr std::size_t kCount = 1'237;
  constexpr std::size_t kGrain = 10;
  const Chunks chunks = record_chunks(pool, kCount, {.grain = kGrain});
  expect_tiling(chunks, kCount, [&](std::size_t remaining) {
    return std::min(remaining, kGrain);
  });
  EXPECT_EQ(chunks.size(), 124u);
}

TEST(ThreadPool, MaxWorkersBoundsParticipants) {
  ThreadPool pool(7);
  for (int round = 0; round < 10; ++round) {
    std::mutex mutex;
    std::set<std::thread::id> ran_on;
    pool.parallel_for(
        64,
        [&](std::size_t) {
          std::this_thread::sleep_for(std::chrono::microseconds(50));
          const std::scoped_lock lock(mutex);
          ran_on.insert(std::this_thread::get_id());
        },
        ForOptions{.grain = 1, .max_workers = 2});
    EXPECT_LE(ran_on.size(), 2u) << "round " << round;
  }
}

// The core contract of the sweep engine: because every index writes only
// its own slot and draws from its own RNG stream, a sweep is
// bit-identical at 1, 2 and N workers.
TEST(ThreadPool, SweepsAreBitIdenticalAtAnyWorkerCount) {
  ThreadPool pool(7);
  constexpr std::size_t kCount = 501;
  const auto run = [&](std::size_t max_workers, std::size_t grain) {
    std::vector<double> out(kCount);
    pool.parallel_for(
        kCount,
        [&](std::size_t i) {
          dls::common::Rng rng(42 + i);
          out[i] = rng.uniform(0.0, 1.0) + rng.exponential(1.0);
        },
        ForOptions{.grain = grain, .max_workers = max_workers});
    return out;
  };
  const auto serial = run(1, 0);
  EXPECT_EQ(serial, run(2, 0));
  EXPECT_EQ(serial, run(0, 0));   // all workers
  EXPECT_EQ(serial, run(0, 1));   // pathological grain: chunk per index
  EXPECT_EQ(serial, run(5, 64));  // coarse chunks
}

// A real solver sweep (the workload the pool exists for) must also be
// bit-identical: utility_vs_bid per index at every worker count.
TEST(ThreadPool, SolverSweepBitIdenticalAcrossWorkerCounts) {
  constexpr std::size_t kInstances = 48;
  const dls::core::MechanismConfig config;
  const auto run = [&](std::size_t workers) {
    std::vector<double> gap(kInstances);
    ThreadPool::global().parallel_for(
        kInstances,
        [&](std::size_t rep) {
          dls::common::Rng rng(531 + 7919 * rep);
          const auto m = static_cast<std::size_t>(rng.uniform_int(1, 8));
          const auto net = dls::net::LinearNetwork::random(
              m + 1, rng, dls::analysis::kWLo, dls::analysis::kWHi,
              dls::analysis::kZLo, dls::analysis::kZHi);
          const auto i = static_cast<std::size_t>(
              rng.uniform_int(1, static_cast<std::int64_t>(m)));
          const auto grid = dls::analysis::logspace(0.5, 2.0, 17);
          const auto curve =
              dls::analysis::utility_vs_bid(net, i, grid, config);
          gap[rep] = dls::analysis::max_truth_advantage_gap(curve);
        },
        {.max_workers = workers});
    return gap;
  };
  const auto serial = run(1);
  EXPECT_EQ(serial, run(2));
  EXPECT_EQ(serial, run(0));
}

// A body that throws mid-sweep cancels the job and rethrows on the
// caller — at every worker count, for repeated submissions.
TEST(ThreadPool, ThrowingBodyPropagatesAtEveryWorkerCount) {
  ThreadPool pool(5);
  for (const std::size_t workers : {std::size_t{1}, std::size_t{2},
                                    std::size_t{0}}) {
    for (int repeat = 0; repeat < 3; ++repeat) {
      std::vector<int> out(300, 0);
      EXPECT_THROW(
          pool.parallel_for(
              out.size(),
              [&](std::size_t i) {
                if (i == 137) throw dls::Error("boom");
                out[i] = static_cast<int>(i);
              },
              ForOptions{.max_workers = workers}),
          dls::Error);
      // Indices that did run wrote their own slot correctly.
      for (std::size_t i = 0; i < out.size(); ++i) {
        if (i != 137 && out[i] != 0) {
          EXPECT_EQ(out[i], static_cast<int>(i));
        }
      }
    }
    // The pool survives the exception: the next sweep runs to completion
    // with results identical to a serial run.
    std::vector<std::size_t> ok(100);
    pool.parallel_for(ok.size(), [&](std::size_t i) { ok[i] = i * i; },
                      ForOptions{.max_workers = workers});
    for (std::size_t i = 0; i < ok.size(); ++i) EXPECT_EQ(ok[i], i * i);
  }
}

TEST(ThreadPool, LowestIndexExceptionWinsWhenEveryBodyThrows) {
  ThreadPool pool(4);
  // Every chunk throws; the recorded error must be the lowest chunk's.
  try {
    pool.parallel_for_chunks(
        64,
        [](std::size_t begin, std::size_t) {
          throw dls::Error("chunk " + std::to_string(begin));
        },
        ForOptions{.grain = 16});
    FAIL() << "expected a throw";
  } catch (const dls::Error& e) {
    EXPECT_STREQ(e.what(), "chunk 0");
  }
}

TEST(ThreadPool, LowestIndexExceptionWinsAtGrainOne) {
  // 64 one-index chunks over five participants: a higher chunk can throw
  // before the participant that claimed chunk 0 has run it. Chunk 0 must
  // still run and its exception must win.
  ThreadPool pool(4);
  try {
    pool.parallel_for_chunks(
        64,
        [](std::size_t begin, std::size_t) {
          throw dls::Error("chunk " + std::to_string(begin));
        },
        ForOptions{.grain = 1});
    FAIL() << "expected a throw";
  } catch (const dls::Error& e) {
    EXPECT_STREQ(e.what(), "chunk 0");
  }
}

TEST(ThreadPool, NestedSubmissionsRunInline) {
  ThreadPool pool(3);
  constexpr std::size_t kOuter = 16;
  constexpr std::size_t kInner = 32;
  std::vector<std::vector<int>> out(kOuter, std::vector<int>(kInner, 0));
  pool.parallel_for(kOuter, [&](std::size_t i) {
    pool.parallel_for(kInner, [&](std::size_t j) {
      out[i][j] = static_cast<int>(i * kInner + j);
    });
  });
  for (std::size_t i = 0; i < kOuter; ++i) {
    for (std::size_t j = 0; j < kInner; ++j) {
      EXPECT_EQ(out[i][j], static_cast<int>(i * kInner + j));
    }
  }
}

TEST(ThreadPool, EmptyAndTinyRanges) {
  ThreadPool pool(2);
  int calls = 0;
  pool.parallel_for(0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  std::atomic<int> atomic_calls{0};
  pool.parallel_for(1, [&](std::size_t) { ++atomic_calls; },
                    ForOptions{.max_workers = 16});
  EXPECT_EQ(atomic_calls.load(), 1);
}

TEST(ThreadPool, GlobalPoolIsShared) {
  ThreadPool& a = ThreadPool::global();
  ThreadPool& b = ThreadPool::global();
  EXPECT_EQ(&a, &b);
  EXPECT_GE(a.worker_count(), 1u);
}

// In the post tests the pool is declared last, so its workers are
// joined before the state its tasks touch is destroyed.
TEST(ThreadPool, PostedTaskRunsOnAWorkerThread) {
  std::thread::id ran_on;
  std::latch done(1);
  ThreadPool pool(2);
  pool.post([&] {
    ran_on = std::this_thread::get_id();
    done.count_down();
  });
  done.wait();
  EXPECT_NE(ran_on, std::this_thread::get_id());
}

TEST(ThreadPool, PostsFromManyThreadsEachRunExactlyOnce) {
  constexpr std::size_t kPosters = 4;
  constexpr std::size_t kPerPoster = 500;
  std::vector<std::atomic<int>> runs(kPosters * kPerPoster);
  std::latch done(static_cast<std::ptrdiff_t>(runs.size()));
  ThreadPool pool(3);
  std::vector<std::thread> posters;
  for (std::size_t p = 0; p < kPosters; ++p) {
    posters.emplace_back([&, p] {
      for (std::size_t i = 0; i < kPerPoster; ++i) {
        pool.post([&, slot = p * kPerPoster + i] {
          runs[slot].fetch_add(1);
          done.count_down();
        });
      }
    });
  }
  for (std::thread& poster : posters) poster.join();
  done.wait();
  for (const std::atomic<int>& count : runs) EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPool, ZeroWorkerPoolRunsPostOnTheCaller) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.worker_count(), 1u);
  std::thread::id ran_on;
  pool.post([&] { ran_on = std::this_thread::get_id(); });
  EXPECT_EQ(ran_on, std::this_thread::get_id());  // ran before returning
  std::vector<int> out(50, 0);
  pool.parallel_for(out.size(), [&](std::size_t i) { out[i] = 1; });
  EXPECT_EQ(out, std::vector<int>(50, 1));

  // A task that re-posts itself runs again after it returns, not nested
  // inside itself, however often it does so.
  constexpr int kRuns = 100'000;
  int runs = 0;
  int depth = 0;
  int max_depth = 0;
  std::function<void()> again = [&] {
    max_depth = std::max(max_depth, ++depth);
    if (++runs < kRuns) pool.post(again);
    --depth;
  };
  pool.post(again);
  EXPECT_EQ(runs, kRuns);
  EXPECT_EQ(max_depth, 1);
}

TEST(ThreadPool, PostsInterleavedWithParallelForAllComplete) {
  constexpr std::size_t kRounds = 40;
  constexpr std::size_t kPostsPerRound = 8;
  std::atomic<std::size_t> posted_runs{0};
  std::latch done(static_cast<std::ptrdiff_t>(kRounds * kPostsPerRound));
  ThreadPool pool(3);
  for (std::size_t round = 0; round < kRounds; ++round) {
    for (std::size_t k = 0; k < kPostsPerRound; ++k) {
      pool.post([&] {
        posted_runs.fetch_add(1);
        done.count_down();
      });
    }
    std::vector<std::size_t> out(257, 0);
    if (round % 4 == 3) {
      // A throwing sweep between posts: the posted tasks still run.
      const auto throwing = [&](std::size_t i) {
        if (i == 100) throw dls::Error("boom");
        out[i] = i;
      };
      EXPECT_THROW(pool.parallel_for(out.size(), throwing), dls::Error);
      continue;
    }
    pool.parallel_for(out.size(), [&](std::size_t i) { out[i] = i + round; });
    for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i + round);
  }
  done.wait();
  EXPECT_EQ(posted_runs.load(), kRounds * kPostsPerRound);
}

TEST(ThreadPool, WorkerCapMatchesSerialAndRejectsNullBody) {
  // max_workers = 1 is serial, 0 uses the whole pool, and results are
  // identical either way; a null body is a precondition violation.
  constexpr std::size_t kCount = 256;
  std::vector<double> serial(kCount), pooled(kCount);
  ThreadPool::global().parallel_for(
      kCount,
      [&](std::size_t i) {
        dls::common::Rng rng(7 * i + 1);
        serial[i] = rng.uniform01();
      },
      {.max_workers = 1});
  ThreadPool::global().parallel_for(kCount, [&](std::size_t i) {
    dls::common::Rng rng(7 * i + 1);
    pooled[i] = rng.uniform01();
  });
  EXPECT_EQ(serial, pooled);
  EXPECT_THROW(
      ThreadPool::global().parallel_for(
          4, std::function<void(std::size_t)>{}),
      dls::PreconditionError);
}

}  // namespace
