// Stress tests for exec::ThreadPool aimed at the ThreadSanitizer CI
// job: nested dispatch, claims from one cursor under deliberately skewed
// load, concurrent submitters on the shared global pool, exception
// delivery under contention, and concurrent CounterfactualSolver/Mechanism
// queries. Every assertion doubles as a determinism check — results
// must be bit-identical to a serial reference at any worker count.
#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/dls_lbl.hpp"
#include "dlt/counterfactual.hpp"
#include "dlt/linear.hpp"
#include "exec/thread_pool.hpp"
#include "net/networks.hpp"

namespace dls {
namespace {

double churn(std::size_t i) {
  // A few hundred flops of index-dependent work so chunks finish at
  // staggered times and participants race for the cursor.
  double x = static_cast<double>(i % 97) + 1.0;
  for (int k = 0; k < 100 + static_cast<int>(i % 7) * 50; ++k) {
    x = x * 1.0000001 + 0.5 / x;
  }
  return x;
}

TEST(ExecPoolStress, NestedParallelForUnderContention) {
  exec::ThreadPool pool(4);
  const std::size_t outer = pool.worker_count() * 4;
  const std::size_t inner = 257;
  for (int round = 0; round < 20; ++round) {
    std::vector<std::vector<double>> out(outer);
    pool.parallel_for(outer, [&](std::size_t i) {
      out[i].assign(inner, 0.0);
      // Nested dispatch from inside a pool body runs inline; it must
      // neither deadlock nor corrupt the outer job's bookkeeping.
      pool.parallel_for(inner,
                        [&, i](std::size_t j) { out[i][j] = churn(i + j); });
    });
    for (std::size_t i = 0; i < outer; ++i) {
      ASSERT_EQ(out[i].size(), inner);
      for (std::size_t j = 0; j < inner; ++j) {
        ASSERT_EQ(out[i][j], churn(i + j)) << "slot " << i << "," << j;
      }
    }
  }
}

TEST(ExecPoolStress, SkewedLoadCoversEveryIndex) {
  exec::ThreadPool pool(7);
  const std::size_t count = 20000;
  for (const std::size_t grain : {std::size_t{1}, std::size_t{16}}) {
    std::vector<std::atomic<int>> hits(count);
    std::vector<double> out(count, 0.0);
    exec::ForOptions options;
    options.grain = grain;
    pool.parallel_for(
        count,
        [&](std::size_t i) {
          // The first few indices are ~100x heavier than the rest, so
          // whoever claims them lags while the others drain the cursor.
          double sink = 0.0;
          const int reps = i < 8 ? 100 : 1;
          for (int r = 0; r < reps; ++r) sink += churn(i);
          if (!std::isfinite(sink)) std::abort();  // keeps the work live
          out[i] = churn(i);
          hits[i].fetch_add(1, std::memory_order_relaxed);
        },
        options);
    for (std::size_t i = 0; i < count; ++i) {
      ASSERT_EQ(hits[i].load(std::memory_order_relaxed), 1)
          << "index " << i << " ran the wrong number of times";
      ASSERT_EQ(out[i], churn(i));
    }
  }
}

TEST(ExecPoolStress, ConcurrentSubmittersShareTheGlobalPool) {
  const std::size_t submitters = 8;
  const std::size_t per_submitter = 30;
  const std::size_t count = 400;
  std::vector<std::vector<double>> results(submitters);
  std::vector<std::thread> threads;
  threads.reserve(submitters);
  for (std::size_t s = 0; s < submitters; ++s) {
    threads.emplace_back([&, s] {
      std::vector<double>& mine = results[s];
      mine.assign(count, 0.0);
      for (std::size_t r = 0; r < per_submitter; ++r) {
        exec::ThreadPool::global().parallel_for(count, [&](std::size_t i) {
          mine[i] = churn(s * count + i);
        });
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (std::size_t s = 0; s < submitters; ++s) {
    for (std::size_t i = 0; i < count; ++i) {
      ASSERT_EQ(results[s][i], churn(s * count + i));
    }
  }
}

TEST(ExecPoolStress, ExceptionDeliveryUnderContention) {
  exec::ThreadPool pool(6);
  const auto body = [](std::size_t i) {
    if (i == 700 || i == 900 || i >= 1500) {
      throw std::runtime_error("boom at " + std::to_string(i));
    }
    (void)churn(i);
  };
  {
    // Deterministic case first: inline execution runs indices in order,
    // so the lowest throwing index must be the one delivered.
    exec::ForOptions inline_options;
    inline_options.max_workers = 1;
    try {
      pool.parallel_for(2000, body, inline_options);
      FAIL() << "parallel_for must rethrow the body's exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "boom at 700");
    }
  }
  for (int round = 0; round < 25; ++round) {
    exec::ForOptions options;
    options.grain = 1;  // chunk begin == index
    try {
      pool.parallel_for(2000, body, options);
      FAIL() << "parallel_for must rethrow the body's exception";
    } catch (const std::runtime_error& e) {
      // Chunks are claimed in ascending order, so chunk 700 is claimed
      // before 900 or any chunk >= 1500, and a chunk below the lowest
      // begin that threw still runs: 700 is the only index delivered,
      // however the other throws race with it.
      const std::string what = e.what();
      ASSERT_EQ(what.rfind("boom at ", 0), 0u) << what;
      const std::size_t idx = std::stoul(what.substr(8));
      EXPECT_EQ(idx, 700u) << what;
    }
    // The pool must stay fully usable after a cancelled job.
    std::vector<double> out(64, 0.0);
    pool.parallel_for(out.size(),
                      [&](std::size_t i) { out[i] = churn(i); });
    for (std::size_t i = 0; i < out.size(); ++i) {
      ASSERT_EQ(out[i], churn(i));
    }
  }
}

TEST(ExecPoolStress, PoolChurnStartsAndStopsCleanly) {
  for (int round = 0; round < 40; ++round) {
    exec::ThreadPool pool(3);
    std::vector<double> out(128, 0.0);
    pool.parallel_for(out.size(),
                      [&](std::size_t i) { out[i] = churn(i); });
    for (std::size_t i = 0; i < out.size(); ++i) {
      ASSERT_EQ(out[i], churn(i));
    }
  }
}

TEST(ExecPoolStress, ConcurrentCounterfactualQueriesMatchSerial) {
  common::Rng rng(99);
  const net::LinearNetwork network =
      net::LinearNetwork::random(33, rng, 0.2, 5.0, 0.1, 2.0);
  const core::MechanismConfig config;

  // Serial reference: one utility curve per strategic processor.
  const std::size_t points = 40;
  std::vector<std::vector<double>> reference(network.size());
  std::vector<std::vector<double>> bids(network.size());
  {
    core::CounterfactualMechanism serial(
        network, network.processing_times(), config);
    for (std::size_t j = 1; j < network.size(); ++j) {
      bids[j].resize(points);
      reference[j].assign(points, 0.0);
      for (std::size_t k = 0; k < points; ++k) {
        bids[j][k] = network.w(j) * (0.5 + 0.05 * static_cast<double>(k));
      }
      serial.utility_curve(j, bids[j], reference[j]);
    }
  }

  // Concurrent replay: one mechanism (and so one solver) per lane, all
  // lanes hammering the pool at once; answers must match bit-for-bit.
  exec::ThreadPool pool(6);
  const std::size_t lanes = pool.worker_count() * 2;
  std::vector<std::string> failures(lanes);
  pool.parallel_for(lanes, [&](std::size_t lane) {
    core::CounterfactualMechanism mech(network,
                                       network.processing_times(), config);
    std::vector<double> curve(points, 0.0);
    for (std::size_t j = 1; j < network.size(); ++j) {
      mech.utility_curve(j, bids[j], curve);
      for (std::size_t k = 0; k < points; ++k) {
        if (curve[k] != reference[j][k]) {
          failures[lane] = "lane " + std::to_string(lane) + " P" +
                           std::to_string(j) + " point " +
                           std::to_string(k) + " diverged";
          return;
        }
      }
    }
  });
  for (const std::string& failure : failures) {
    EXPECT_TRUE(failure.empty()) << failure;
  }
}

TEST(ExecPoolStress, WorkspaceSolversAreIndependentAcrossThreads) {
  common::Rng rng(123);
  const std::size_t chains = 64;
  std::vector<net::LinearNetwork> networks;
  networks.reserve(chains);
  for (std::size_t c = 0; c < chains; ++c) {
    networks.push_back(
        net::LinearNetwork::random(2 + c % 31, rng, 0.2, 5.0, 0.1, 2.0));
  }
  std::vector<double> serial(chains, 0.0);
  for (std::size_t c = 0; c < chains; ++c) {
    serial[c] = dlt::solve_linear_boundary(networks[c]).makespan;
  }

  exec::ThreadPool pool(5);
  std::vector<double> parallel_result(chains, 0.0);
  for (int round = 0; round < 10; ++round) {
    pool.parallel_for_chunks(
        chains, [&](std::size_t begin, std::size_t end) {
          dlt::LinearSolverWorkspace ws;  // one workspace per chunk
          for (std::size_t c = begin; c < end; ++c) {
            parallel_result[c] =
                dlt::solve_linear_boundary(networks[c], ws).makespan;
          }
        });
    for (std::size_t c = 0; c < chains; ++c) {
      ASSERT_EQ(parallel_result[c], serial[c]) << "chain " << c;
    }
  }
}

}  // namespace
}  // namespace dls
