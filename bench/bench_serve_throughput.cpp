// Experiment SERVE — closed-loop load generator for the scheduling
// service (google-benchmark): C client threads hammer one
// SchedulerService over the framed in-memory transport, each issuing
// the next request the moment the previous response lands. Reports
// requests/sec (items_processed rate) and request latency two ways:
//  * p50_us / p99_us   — exact percentiles over every measured round
//    trip (common::percentile on the raw samples);
//  * hist_p50_us / hist_p99_us — the same quantiles read back from the
//    obs registry's serve.request.latency_us histogram, the figures a
//    production dashboard would see. check_perf_regression.py gates on
//    hist_* counters, so the perf gate and the dashboards agree.
// bm_serve_cache_speedup runs the same load warm (LRU sized to fit the
// topology set) and cold (cache disabled) and reports the ratio.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "obs/obs.hpp"
#include "obs/trace_export.hpp"
#include "serve/chaos.hpp"
#include "serve/client.hpp"
#include "serve/retry.hpp"
#include "serve/service.hpp"

namespace {

struct Topology {
  std::vector<double> w;
  std::vector<double> z;
};

std::vector<Topology> make_topologies(std::size_t count, std::size_t chain) {
  dls::common::Rng rng(7);
  std::vector<Topology> out(count);
  for (Topology& topo : out) {
    topo.w.resize(chain);
    topo.z.resize(chain - 1);
    for (double& x : topo.w) x = rng.uniform(0.5, 5.0);
    for (double& x : topo.z) x = rng.uniform(0.05, 0.5);
  }
  return out;
}

/// One closed-loop burst: `clients` threads, `requests` round trips
/// each, next request issued as soon as the response arrives. Appends
/// the per-request latencies (µs) of kOk responses to `latencies_us`.
void run_closed_loop(dls::serve::SchedulerService& service,
                     std::size_t clients, int requests,
                     const std::vector<Topology>& topos,
                     std::vector<double>& latencies_us) {
  std::vector<std::vector<double>> per_client(clients);
  std::vector<std::thread> crew;
  crew.reserve(clients);
  for (std::size_t c = 0; c < clients; ++c) {
    crew.emplace_back([&, c] {
      dls::serve::SchedulerClient client(service.connect());
      per_client[c].reserve(static_cast<std::size_t>(requests));
      using clock = std::chrono::steady_clock;
      for (int i = 0; i < requests; ++i) {
        const Topology& topo =
            topos[(c + static_cast<std::size_t>(i)) % topos.size()];
        const auto t0 = clock::now();
        const dls::serve::ScheduleResponse response =
            client.schedule(topo.w, topo.z);
        const auto t1 = clock::now();
        if (response.status == dls::serve::ScheduleStatus::kOk) {
          per_client[c].push_back(
              std::chrono::duration<double, std::micro>(t1 - t0).count());
        }
      }
      client.close();
    });
  }
  for (std::thread& t : crew) t.join();
  for (const std::vector<double>& chunk : per_client) {
    latencies_us.insert(latencies_us.end(), chunk.begin(), chunk.end());
  }
}

constexpr int kRequestsPerClient = 64;
constexpr std::size_t kTopologies = 8;
constexpr std::size_t kChain = 64;

// Closed-loop throughput at C concurrent clients, cache enabled and
// large enough to keep the whole working set resident after warmup.
void bm_serve_closed_loop(benchmark::State& state) {
  const auto clients = static_cast<std::size_t>(state.range(0));
  const std::vector<Topology> topos = make_topologies(kTopologies, kChain);

  dls::serve::ServiceConfig config;
  config.queue_capacity = std::max<std::size_t>(2 * clients, 8);
  config.cache_capacity = kTopologies;
  dls::serve::SchedulerService service(config);

  // Route the serve.request.latency_us histogram through the live obs
  // registry, exactly as a deployment would; reset so earlier runs in
  // this process don't bleed into the quantiles.
  dls::obs::MetricsRegistry::global().reset();
  dls::obs::set_active(true);

  std::vector<double> latencies_us;
  for (auto _ : state) {
    run_closed_loop(service, clients, kRequestsPerClient, topos,
                    latencies_us);
  }
  dls::obs::set_active(false);

  const auto total = static_cast<std::int64_t>(clients) *
                     static_cast<std::int64_t>(kRequestsPerClient) *
                     static_cast<std::int64_t>(state.iterations());
  state.SetItemsProcessed(total);  // items/sec == requests/sec
  state.counters["p50_us"] = dls::common::percentile(latencies_us, 50.0);
  state.counters["p99_us"] = dls::common::percentile(latencies_us, 99.0);

  const dls::obs::MetricsSnapshot snap =
      dls::obs::MetricsRegistry::global().snapshot();
  const auto hist = snap.histograms.find("serve.request.latency_us");
  if (hist != snap.histograms.end()) {
    state.counters["hist_p50_us"] =
        dls::obs::histogram_quantile(hist->second, 0.50);
    state.counters["hist_p99_us"] =
        dls::obs::histogram_quantile(hist->second, 0.99);
  }
  const auto hits = snap.counters.find("serve.cache.hits");
  const auto misses = snap.counters.find("serve.cache.misses");
  if (hits != snap.counters.end() && misses != snap.counters.end() &&
      hits->second + misses->second > 0) {
    state.counters["cache_hit_rate"] =
        static_cast<double>(hits->second) /
        static_cast<double>(hits->second + misses->second);
  }
  // Spans collected while active are bench exhaust, not a trace anyone
  // asked for; drop them so repeated runs don't accumulate memory.
  dls::obs::TraceSink::global().clear();
  service.stop();
}
// UseRealTime: clients spend most of their round trip blocked on the
// service, so wall-clock — not this thread's CPU time — is the rate
// that means "requests per second".
BENCHMARK(bm_serve_closed_loop)->Arg(1)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

// Warm vs cold: the identical closed loop against a cache sized for the
// topology set and against a disabled cache. The counter is the ratio
// of cold to warm wall time — the factor the memo buys under realistic
// repeated traffic.
void bm_serve_cache_speedup(benchmark::State& state) {
  constexpr std::size_t kClients = 1;
  // Chains long enough that the solve (~100 µs at 4096, see bm_solver)
  // dominates the transport cost, and enough requests per burst to
  // amortise the load generator's thread spawns — the regime the cache
  // exists for.
  constexpr std::size_t kSpeedupChain = 4096;
  constexpr int kSpeedupRequests = 256;
  const std::vector<Topology> topos =
      make_topologies(kTopologies, kSpeedupChain);

  dls::serve::ServiceConfig warm_config;
  warm_config.queue_capacity = 2 * kClients;
  warm_config.cache_capacity = kTopologies;
  dls::serve::SchedulerService warm(warm_config);

  dls::serve::ServiceConfig cold_config;
  cold_config.queue_capacity = 2 * kClients;
  cold_config.cache_capacity = 0;  // every request re-solves
  dls::serve::SchedulerService cold(cold_config);

  // Pre-warm the LRU so the warm side measures steady-state hits.
  std::vector<double> scratch;
  run_closed_loop(warm, 1, static_cast<int>(kTopologies), topos, scratch);

  using clock = std::chrono::steady_clock;
  double warm_seconds = 0.0;
  double cold_seconds = 0.0;
  for (auto _ : state) {
    scratch.clear();
    const auto t0 = clock::now();
    run_closed_loop(warm, kClients, kSpeedupRequests, topos, scratch);
    const auto t1 = clock::now();
    run_closed_loop(cold, kClients, kSpeedupRequests, topos, scratch);
    const auto t2 = clock::now();
    warm_seconds += std::chrono::duration<double>(t1 - t0).count();
    cold_seconds += std::chrono::duration<double>(t2 - t1).count();
  }
  state.counters["speedup"] =
      warm_seconds > 0.0 ? cold_seconds / warm_seconds : 0.0;
  warm.stop();
  cold.stop();
}
BENCHMARK(bm_serve_cache_speedup)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

// Chaos resilience: the robust client under 50% silent-disconnect
// chaos (every request frame has a coin-flip chance of vanishing with
// its connection). Arg(0) retries without a circuit breaker, Arg(1)
// with one. items/sec is landed answers; wire_attempts_per_s is the
// resend traffic actually put on the wire — the figure the breaker
// exists to cap during a failure storm (open windows pause sending
// instead of hammering a broken path).
void bm_serve_chaos(benchmark::State& state) {
  const bool use_breaker = state.range(0) == 1;
  const std::vector<Topology> topos = make_topologies(kTopologies, kChain);

  dls::serve::ServiceConfig config;
  config.queue_capacity = 8;
  config.cache_capacity = kTopologies;
  dls::serve::SchedulerService service(config);

  dls::serve::ChaosConfig chaos;
  chaos.disconnect = 0.5;

  constexpr std::size_t kClients = 2;
  constexpr int kChaosRequests = 32;
  std::uint64_t attempts = 0;
  std::uint64_t rejections = 0;
  std::uint64_t landed = 0;
  std::uint64_t reconnects = 0;
  std::uint64_t round = 0;
  std::mutex tally_mutex;
  for (auto _ : state) {
    ++round;
    std::vector<std::thread> crew;
    crew.reserve(kClients);
    for (std::size_t c = 0; c < kClients; ++c) {
      crew.emplace_back([&, c] {
        const std::uint64_t seed = round * 1000003ull + c * 7919ull;
        std::uint64_t connection = 0;
        const auto connect = [&]() -> std::unique_ptr<dls::serve::Transport> {
          ++connection;
          return std::make_unique<dls::serve::ChaosTransport>(
              service.connect(), chaos,
              seed ^ (connection * 0x9e3779b97f4a7c15ull));
        };
        dls::serve::CircuitBreaker breaker(dls::serve::BreakerConfig{
            /*failure_threshold=*/3,
            /*open_cooldown_s=*/0.001,
            /*half_open_probes=*/1,
        });
        dls::serve::SchedulerClient client(connect());
        dls::serve::RobustOptions options;
        options.policy.base_delay_s = 0.0001;
        options.policy.max_delay_s = 0.002;
        options.policy.max_attempts = 64;
        options.policy.attempt_deadline_s = 0.1;
        options.breaker = use_breaker ? &breaker : nullptr;
        options.reconnect = connect;
        options.seed = seed + 1;
        std::uint64_t my_attempts = 0, my_rejections = 0;
        std::uint64_t my_landed = 0, my_reconnects = 0;
        for (int i = 0; i < kChaosRequests; ++i) {
          const Topology& topo =
              topos[(c + static_cast<std::size_t>(i)) % topos.size()];
          const dls::serve::RobustResult result = client.schedule_robust(
              topo.w, topo.z, dls::serve::ScheduleOptions{}, options);
          my_attempts += result.stats.attempts;
          my_rejections += result.stats.breaker_rejections;
          my_reconnects += result.stats.reconnects;
          if (result.outcome == dls::serve::RobustOutcome::kAnswered &&
              result.response.status == dls::serve::ScheduleStatus::kOk) {
            ++my_landed;
          }
        }
        client.close();
        std::lock_guard<std::mutex> lock(tally_mutex);
        attempts += my_attempts;
        rejections += my_rejections;
        landed += my_landed;
        reconnects += my_reconnects;
      });
    }
    for (std::thread& t : crew) t.join();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(landed));
  state.counters["wire_attempts_per_s"] = benchmark::Counter(
      static_cast<double>(attempts), benchmark::Counter::kIsRate);
  state.counters["attempts_per_ok"] =
      landed > 0 ? static_cast<double>(attempts) /
                       static_cast<double>(landed)
                 : 0.0;
  state.counters["reconnects_per_ok"] =
      landed > 0 ? static_cast<double>(reconnects) /
                       static_cast<double>(landed)
                 : 0.0;
  state.counters["breaker_rejections"] = static_cast<double>(rejections);
  service.stop();
}
BENCHMARK(bm_serve_chaos)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace

// Same custom main as bench_perf_micro: honours --trace-out=FILE (or
// DLS_TRACE_OUT) and writes Chrome trace JSON on exit.
int main(int argc, char** argv) {
  std::string trace_out;
  if (const char* env = std::getenv("DLS_TRACE_OUT")) trace_out = env;
  std::vector<char*> args(argv, argv + argc);
  for (auto it = args.begin(); it != args.end();) {
    const std::string arg = *it;
    if (arg.rfind("--trace-out=", 0) == 0) {
      trace_out = arg.substr(sizeof("--trace-out=") - 1);
      it = args.erase(it);
    } else {
      ++it;
    }
  }
  int filtered_argc = static_cast<int>(args.size());
  benchmark::Initialize(&filtered_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(filtered_argc, args.data())) {
    return 1;
  }
  if (!trace_out.empty()) dls::obs::set_active(true);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (!trace_out.empty()) {
    dls::obs::set_active(false);
    if (!dls::obs::export_chrome_trace_file(trace_out)) {
      std::cerr << "error: cannot write trace to " << trace_out << '\n';
      return 1;
    }
  }
  return 0;
}
