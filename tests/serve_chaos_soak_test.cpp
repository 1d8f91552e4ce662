// The chaos soak: N clients x M seeds x every fault kind against a live
// SchedulerService, with every connection wrapped in a fault-injecting
// ChaosTransport. The invariant under test is the serve layer's
// robustness contract — every request ends in exactly one of
//
//   * an answer whose allocation is bit-identical to a fault-free
//     solve of the same topology,
//   * a typed refusal (kShed/kDegraded/kExpired/kError), or
//   * an exhausted-budget report from schedule_robust,
//
// and never a hang (a global watchdog aborts the run) or UB (the CI
// serve-chaos job runs this under ASan/UBSan). DLS_SERVE_SOAK
// multiplies the request volume. DLS_CHAOS_TRACE_OUT streams a Chrome
// trace of the run in flight (the soak never buffers all spans).
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

#include "codec/bytes.hpp"
#include "common/rng.hpp"
#include "dlt/linear.hpp"
#include "net/networks.hpp"
#include "obs/sink.hpp"
#include "obs/trace_export.hpp"
#include "serve/chaos.hpp"
#include "serve/client.hpp"
#include "serve/service.hpp"

namespace {

using dls::serve::ChaosConfig;
using dls::serve::ChaosTransport;
using dls::serve::CircuitBreaker;
using dls::serve::FaultKind;
using dls::serve::RobustOptions;
using dls::serve::RobustOutcome;
using dls::serve::RobustResult;
using dls::serve::ScheduleOptions;
using dls::serve::ScheduleStatus;
using dls::serve::SchedulerClient;
using dls::serve::SchedulerService;
using dls::serve::ServiceConfig;

int soak_multiplier() {
  const char* raw = std::getenv("DLS_SERVE_SOAK");
  if (raw == nullptr) return 1;
  const int parsed = std::atoi(raw);
  return parsed >= 1 ? parsed : 1;
}

/// Aborts the whole process when the soak wedges: a hang is exactly the
/// failure mode this harness exists to rule out, so it must terminate
/// the run loudly instead of letting ctest time out silently.
class Watchdog {
 public:
  explicit Watchdog(double limit_s) {
    thread_ = std::thread([this, limit_s] {
      std::unique_lock<std::mutex> lock(mutex_);
      if (!cv_.wait_for(lock, std::chrono::duration<double>(limit_s),
                        [this] { return disarmed_; })) {
        std::fprintf(stderr,
                     "serve_chaos_soak watchdog: run exceeded %.0f s — "
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

/// Fault-free ground truth, solved directly (no service, no transport).
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

struct Scenario {
  std::string name;
  ChaosConfig config;
};

std::vector<Scenario> scenarios() {
  std::vector<Scenario> out;
  for (std::size_t k = 0; k < dls::serve::kFaultKindCount; ++k) {
    const auto kind = static_cast<FaultKind>(k);
    Scenario s;
    s.name = "fault kind " + std::to_string(k);
    s.config = ChaosConfig::only(kind, 0.3);
    s.config.max_delay_us = 100.0;
    out.push_back(std::move(s));
  }
  Scenario mixed;
  mixed.name = "mixed";
  mixed.config.partial_write = 0.15;
  mixed.config.truncate = 0.08;
  mixed.config.corrupt = 0.1;
  mixed.config.delay = 0.1;
  mixed.config.disconnect = 0.1;
  mixed.config.duplicate = 0.15;
  mixed.config.read_corrupt = 0.05;
  mixed.config.max_delay_us = 100.0;
  out.push_back(std::move(mixed));
  return out;
}

struct SoakTally {
  std::atomic<std::uint64_t> requests{0};
  std::atomic<std::uint64_t> answered_ok{0};
  std::atomic<std::uint64_t> answered_refused{0};
  std::atomic<std::uint64_t> budget_exhausted{0};
  std::atomic<std::uint64_t> bit_identical{0};
  std::atomic<std::uint64_t> reconnects{0};
  std::atomic<std::uint64_t> wire_errors{0};
};

void run_scenario(const Scenario& scenario, std::uint64_t seed,
                  const std::vector<Topology>& topos,
                  const std::vector<dls::dlt::LinearSolution>& truth,
                  int requests_per_client, SoakTally& tally) {
  ServiceConfig config;
  config.queue_capacity = 8;
  config.brownout_watermark = 4;  // brown-out genuinely fires under load
  config.cache_capacity = 16;
  config.poison_budget = 4;
  SchedulerService service(config);

  constexpr std::size_t kClients = 3;
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      const std::uint64_t client_seed =
          seed * 1000003ull + c * 7919ull + 17ull;
      // Per-connection breaker, shared across this client's reconnects.
      CircuitBreaker breaker(dls::serve::BreakerConfig{
          /*failure_threshold=*/3,
          /*open_cooldown_s=*/0.002,
          /*half_open_probes=*/1,
      });
      std::uint64_t connection = 0;
      const auto chaotic_connect = [&]() -> std::unique_ptr<
                                              dls::serve::Transport> {
        ++connection;
        return std::make_unique<ChaosTransport>(
            service.connect(), scenario.config,
            client_seed ^ (connection * 0x9e3779b97f4a7c15ull));
      };
      SchedulerClient client(chaotic_connect());

      RobustOptions robust;
      robust.policy.base_delay_s = 0.0002;
      robust.policy.max_delay_s = 0.005;
      robust.policy.max_attempts = 12;
      robust.policy.attempt_deadline_s = 0.25;
      robust.policy.total_deadline_s = 20.0;
      robust.breaker = &breaker;
      robust.reconnect = chaotic_connect;
      robust.seed = client_seed + 1;

      for (int i = 0; i < requests_per_client; ++i) {
        const std::size_t t =
            (c + static_cast<std::size_t>(i)) % topos.size();
        const Topology& topo = topos[t];
        tally.requests.fetch_add(1, std::memory_order_relaxed);
        const RobustResult result =
            client.schedule_robust(topo.w, topo.z, ScheduleOptions{},
                                   robust);
        tally.reconnects.fetch_add(result.stats.reconnects,
                                   std::memory_order_relaxed);
        tally.wire_errors.fetch_add(result.stats.wire_errors,
                                    std::memory_order_relaxed);
        if (result.outcome == RobustOutcome::kBudgetExhausted) {
          tally.budget_exhausted.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        if (result.response.status != ScheduleStatus::kOk) {
          // A typed refusal that outlived the retry loop (kError,
          // kExpired — kShed/kDegraded are retried inside).
          tally.answered_refused.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        tally.answered_ok.fetch_add(1, std::memory_order_relaxed);
        // The robustness contract's sharpest edge: an answer that
        // survived retries, reconnects and duplicated frames must be
        // bit-identical to the fault-free solve.
        const dls::dlt::LinearSolution& expect = truth[t];
        bool identical = result.response.alpha.size() ==
                         expect.alpha.size();
        if (identical) {
          for (std::size_t j = 0; j < expect.alpha.size(); ++j) {
            if (result.response.alpha[j] != expect.alpha[j]) {
              identical = false;
              break;
            }
          }
          if (result.response.makespan != expect.makespan) {
            identical = false;
          }
        }
        EXPECT_TRUE(identical)
            << scenario.name << " seed " << seed << " client " << c
            << " request " << i << ": answer diverged from the "
            << "fault-free solve";
        if (identical) {
          tally.bit_identical.fetch_add(1, std::memory_order_relaxed);
        }
      }
      client.close();
    });
  }
  for (std::thread& thread : clients) thread.join();
  service.stop();
}

TEST(ServeChaosSoakTest, EveryFaultKindEverySeedNeverHangsNeverDiverges) {
  const int requests_per_client = 6 * soak_multiplier();
  constexpr std::uint64_t kSeeds = 8;
  // 8 seeds x 7 scenarios x 3 clients x 6+ requests ≈ 1000+ requests
  // through every fault kind; the watchdog turns any hang into a loud
  // abort well before ctest's own timeout.
  Watchdog watchdog(240.0 * soak_multiplier());

  const std::vector<Topology> topos = random_topologies(5, 20260809);
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
  for (const Scenario& scenario : scenarios()) {
    for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
      run_scenario(scenario, seed, topos, truth, requests_per_client,
                   tally);
      // Stream spans scenario by scenario: the soak's trace leaves the
      // process as it runs instead of accumulating until drain().
      if (trace != nullptr) trace->drain_global();
    }
  }

  if (trace != nullptr) {
    const dls::obs::MetricsSnapshot metrics =
        dls::obs::MetricsRegistry::global().snapshot();
    trace->finish(&metrics);
  }

  // The invariant: every request is accounted for in exactly one bucket.
  const std::uint64_t total = tally.requests.load();
  EXPECT_EQ(total, tally.answered_ok.load() +
                       tally.answered_refused.load() +
                       tally.budget_exhausted.load());
  // Every OK answer matched the fault-free solve bit for bit.
  EXPECT_EQ(tally.answered_ok.load(), tally.bit_identical.load());
  // The soak must actually exercise recovery, not coast: with ~30%
  // fault rates the wire breaks constantly, yet most requests land.
  EXPECT_GT(tally.answered_ok.load(), total / 2);
  EXPECT_GT(tally.wire_errors.load(), 0u);
  EXPECT_GT(tally.reconnects.load(), 0u);
}

}  // namespace
