// The quorum soak: 3 SchedulerService shards behind a ShardRouter at
// replication R=2, every router→shard link wrapped in a seeded
// ChaosTransport, plus one injected shard kill per seed. The federation
// invariant under test:
//
//   * every kOk answer a client receives is bit-identical to a
//     fault-free solve_linear_boundary_into of the same topology,
//   * every other request ends in a typed refusal
//     (kShed/kDegraded/kExpired/kError) — NEVER a divergent-but-
//     accepted answer, and never a hang (watchdogged),
//   * the injected kill is detected through the heartbeat retry budget
//     (shard_deaths), triggers a consistent-hash rebalance
//     (rebalances), and the survivors keep answering.
//
// 8 seeds; DLS_SERVE_SOAK multiplies the request volume; the CI
// serve-federation job runs this under ASan/UBSan with
// DLS_CHAOS_TRACE_OUT streaming a Chrome trace of the run, and the
// serve-soak job runs it under TSan at DLS_SERVE_SOAK=10.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "dlt/linear.hpp"
#include "net/networks.hpp"
#include "obs/sink.hpp"
#include "obs/trace_export.hpp"
#include "serve/chaos.hpp"
#include "serve/client.hpp"
#include "serve/router.hpp"
#include "serve/service.hpp"

namespace {

using dls::serve::ChaosConfig;
using dls::serve::ChaosTransport;
using dls::serve::RouterConfig;
using dls::serve::RouterStats;
using dls::serve::ScheduleOptions;
using dls::serve::ScheduleResponse;
using dls::serve::ScheduleStatus;
using dls::serve::SchedulerClient;
using dls::serve::SchedulerService;
using dls::serve::ServiceConfig;
using dls::serve::ShardRouter;
using dls::serve::Transport;
using dls::serve::TransportError;

int soak_multiplier() {
  const char* raw = std::getenv("DLS_SERVE_SOAK");
  if (raw == nullptr) return 1;
  const int parsed = std::atoi(raw);
  return parsed >= 1 ? parsed : 1;
}

/// Aborts the whole process when the soak wedges (same contract as the
/// serve_chaos_soak watchdog): a hang is the failure mode this harness
/// exists to rule out.
class Watchdog {
 public:
  explicit Watchdog(double limit_s) {
    thread_ = std::thread([this, limit_s] {
      std::unique_lock<std::mutex> lock(mutex_);
      if (!cv_.wait_for(lock, std::chrono::duration<double>(limit_s),
                        [this] { return disarmed_; })) {
        std::fprintf(stderr,
                     "serve_quorum_soak watchdog: run exceeded %.0f s — "
                     "a request hung; aborting\n",
                     limit_s);
        std::abort();
      }
    });
  }
  ~Watchdog() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      disarmed_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool disarmed_ = false;
  std::thread thread_;
};

struct Topology {
  std::vector<double> w;
  std::vector<double> z;
};

std::vector<Topology> random_topologies(std::size_t count,
                                        std::uint64_t seed) {
  dls::common::Rng rng(seed);
  std::vector<Topology> out(count);
  for (Topology& topo : out) {
    const std::size_t n = static_cast<std::size_t>(rng.uniform_int(2, 8));
    topo.w.resize(n);
    topo.z.resize(n - 1);
    for (double& x : topo.w) x = rng.uniform(0.2, 3.0);
    for (double& x : topo.z) x = rng.uniform(0.01, 0.5);
  }
  return out;
}

std::vector<dls::dlt::LinearSolution> reference_solutions(
    const std::vector<Topology>& topos) {
  std::vector<dls::dlt::LinearSolution> out(topos.size());
  for (std::size_t t = 0; t < topos.size(); ++t) {
    const dls::net::LinearNetwork network(topos[t].w, topos[t].z);
    dls::dlt::solve_linear_boundary_into(network, out[t],
                                         /*want_steps=*/false);
  }
  return out;
}

bool bit_identical(const ScheduleResponse& response,
                   const dls::dlt::LinearSolution& expect) {
  if (response.alpha.size() != expect.alpha.size()) return false;
  for (std::size_t j = 0; j < expect.alpha.size(); ++j) {
    if (response.alpha[j] != expect.alpha[j]) return false;
  }
  return response.makespan == expect.makespan;
}

struct SoakTally {
  std::atomic<std::uint64_t> requests{0};
  std::atomic<std::uint64_t> answered_ok{0};
  std::atomic<std::uint64_t> answered_refused{0};
  std::atomic<std::uint64_t> bit_identical{0};
  std::atomic<std::uint64_t> divergent_accepted{0};
  // Router-side aggregates, summed over the per-seed federations.
  std::atomic<std::uint64_t> quorum_checked{0};
  std::atomic<std::uint64_t> quorum_agreed{0};
  std::atomic<std::uint64_t> quorum_divergence{0};
  std::atomic<std::uint64_t> shard_deaths{0};
  std::atomic<std::uint64_t> rebalances{0};
};

/// One seed's federation: 3 shards, R=2, chaotic forward links, one
/// shard killed a third of the way in; runs `per_client` requests on
/// each of two concurrent clients, then keeps nudging the router until
/// the kill is confirmed as a death through the retry budget.
void run_seed(std::uint64_t seed, const std::vector<Topology>& topos,
              const std::vector<dls::dlt::LinearSolution>& truth,
              int per_client, SoakTally& tally) {
  constexpr std::size_t kShards = 3;
  constexpr std::size_t kKilled = 1;

  std::vector<std::unique_ptr<SchedulerService>> shards;
  for (std::size_t s = 0; s < kShards; ++s) {
    ServiceConfig config;
    config.cache_capacity = 32;
    config.poison_budget = 64;  // chaos poisons frames all run long
    shards.push_back(std::make_unique<SchedulerService>(config));
  }
  std::atomic<bool> killed{false};

  ChaosConfig chaos;
  chaos.partial_write = 0.1;
  chaos.truncate = 0.05;
  chaos.corrupt = 0.05;
  chaos.delay = 0.1;
  chaos.disconnect = 0.08;
  chaos.duplicate = 0.1;
  chaos.read_corrupt = 0.04;
  chaos.max_delay_us = 100.0;

  std::atomic<std::uint64_t> dials{0};
  RouterConfig config;
  config.shard_count = kShards;
  config.replication = 2;
  // A corrupted request frame is swallowed by the shard as poison (no
  // response ever comes), so the forward deadline must be short.
  config.forward_timeout_s = 0.25;
  config.heartbeat.period = 0.005;
  config.heartbeat.retry_budget = 3;
  config.connect = [&](std::size_t shard) -> std::unique_ptr<Transport> {
    if (shard == kKilled && killed.load(std::memory_order_acquire)) {
      throw TransportError("injected kill: shard is down");
    }
    const std::uint64_t dial =
        dials.fetch_add(1, std::memory_order_relaxed);
    return std::make_unique<ChaosTransport>(
        shards[shard]->connect(), chaos,
        seed * 1000003ull + shard * 7919ull +
            dial * 0x9e3779b97f4a7c15ull);
  };
  ShardRouter router(config);

  const int kill_at = per_client * 2 / 3;  // a third of the total volume
  std::atomic<int> issued{0};
  std::uint64_t seed_requests = 0;

  const auto drive = [&](SchedulerClient& client, std::uint64_t salt,
                         int count) {
    for (int i = 0; i < count; ++i) {
      const int number = issued.fetch_add(1, std::memory_order_relaxed);
      if (number == kill_at) {
        // The injected fault: one shard drops dead mid-run. Future
        // dials refuse first so no probe resurrects it.
        killed.store(true, std::memory_order_release);
        shards[kKilled]->stop();
      }
      const std::size_t t =
          (salt + static_cast<std::size_t>(i)) % topos.size();
      tally.requests.fetch_add(1, std::memory_order_relaxed);
      const ScheduleResponse response =
          client.schedule(topos[t].w, topos[t].z, ScheduleOptions{});
      if (response.status != ScheduleStatus::kOk) {
        tally.answered_refused.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      tally.answered_ok.fetch_add(1, std::memory_order_relaxed);
      if (bit_identical(response, truth[t])) {
        tally.bit_identical.fetch_add(1, std::memory_order_relaxed);
      } else {
        tally.divergent_accepted.fetch_add(1, std::memory_order_relaxed);
        ADD_FAILURE() << "seed " << seed << " request " << number
                      << ": a divergent answer was ACCEPTED";
      }
    }
  };

  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < 2; ++c) {
    clients.emplace_back([&, c] {
      SchedulerClient client(router.connect());
      drive(client, c * 37ull, per_client);
      client.close();
    });
  }
  for (std::thread& thread : clients) thread.join();
  seed_requests += static_cast<std::uint64_t>(per_client) * 2;

  // The kill is only *confirmed* once retry_budget consecutive forwards
  // to the dead shard fail; keep routing until THAT shard is marked
  // dead (chaos can kill-and-revive healthy shards on its own, so the
  // global death counter is not the right exit condition). Bounded —
  // the watchdog still backstops a true wedge.
  {
    SchedulerClient client(router.connect());
    for (int extra = 0; extra < 200 && router.alive()[kKilled];
         ++extra) {
      const std::size_t t = static_cast<std::size_t>(extra) % topos.size();
      tally.requests.fetch_add(1, std::memory_order_relaxed);
      ++seed_requests;
      const ScheduleResponse response =
          client.schedule(topos[t].w, topos[t].z, ScheduleOptions{});
      if (response.status != ScheduleStatus::kOk) {
        tally.answered_refused.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      tally.answered_ok.fetch_add(1, std::memory_order_relaxed);
      if (bit_identical(response, truth[t])) {
        tally.bit_identical.fetch_add(1, std::memory_order_relaxed);
      } else {
        tally.divergent_accepted.fetch_add(1, std::memory_order_relaxed);
        ADD_FAILURE() << "seed " << seed << ": divergent answer accepted "
                      << "during the death window";
      }
    }
    client.close();
  }

  const RouterStats stats = router.stats();
  // Every well-formed request this seed sent was read by the router.
  EXPECT_EQ(stats.received, seed_requests) << "seed " << seed;
  // The injected kill was detected and the ring rebalanced.
  EXPECT_GE(stats.shard_deaths, 1u) << "seed " << seed;
  EXPECT_GE(stats.rebalances, 1u) << "seed " << seed;
  EXPECT_FALSE(router.alive()[kKilled]) << "seed " << seed;
  // Healthy replication was genuinely exercised before/around the kill.
  EXPECT_GT(stats.quorum_checked + stats.quorum_single, 0u)
      << "seed " << seed;

  tally.quorum_checked.fetch_add(stats.quorum_checked);
  tally.quorum_agreed.fetch_add(stats.quorum_agreed);
  tally.quorum_divergence.fetch_add(stats.quorum_divergence);
  tally.shard_deaths.fetch_add(stats.shard_deaths);
  tally.rebalances.fetch_add(stats.rebalances);

  router.stop();
  for (std::unique_ptr<SchedulerService>& shard : shards) shard->stop();
}

TEST(ServeQuorumSoakTest, KilledShardNeverYieldsDivergentAcceptedAnswers) {
  const int per_client = 24 * soak_multiplier();
  constexpr std::uint64_t kSeeds = 8;
  Watchdog watchdog(240.0 * soak_multiplier());

  const std::vector<Topology> topos = random_topologies(6, 20260809);
  const std::vector<dls::dlt::LinearSolution> truth =
      reference_solutions(topos);

  // Optional in-flight Chrome trace (CI archives it as an artifact).
  std::unique_ptr<std::ofstream> trace_file;
  std::unique_ptr<dls::obs::StreamingChromeTrace> trace;
  if (const char* path = std::getenv("DLS_CHAOS_TRACE_OUT")) {
    dls::obs::set_active(true);
    trace_file = std::make_unique<std::ofstream>(path);
    if (*trace_file) {
      trace =
          std::make_unique<dls::obs::StreamingChromeTrace>(*trace_file);
    }
  }

  SoakTally tally;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    run_seed(seed, topos, truth, per_client, tally);
    if (trace != nullptr) trace->drain_global();
  }

  if (trace != nullptr) {
    const dls::obs::MetricsSnapshot metrics =
        dls::obs::MetricsRegistry::global().snapshot();
    trace->finish(&metrics);
  }

  // Exact accounting: every request landed as kOk or a typed refusal.
  const std::uint64_t total = tally.requests.load();
  EXPECT_EQ(total,
            tally.answered_ok.load() + tally.answered_refused.load());
  // The headline invariant: zero divergent-but-accepted answers — every
  // accepted answer matched the fault-free solve bit for bit.
  EXPECT_EQ(tally.divergent_accepted.load(), 0u);
  EXPECT_EQ(tally.answered_ok.load(), tally.bit_identical.load());
  // The federation kept answering through chaos and a shard death.
  EXPECT_GT(tally.answered_ok.load(), total / 2);
  // Replication cross-checks actually ran and agreed when they did.
  EXPECT_GT(tally.quorum_checked.load(), 0u);
  EXPECT_EQ(tally.quorum_agreed.load(), tally.quorum_checked.load());
  // One injected kill per seed, each detected and rebalanced.
  EXPECT_GE(tally.shard_deaths.load(), kSeeds);
  EXPECT_GE(tally.rebalances.load(), kSeeds);
}

}  // namespace
