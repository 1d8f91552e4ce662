// Experiment SHARD — closed-loop load against the sharded federation
// (google-benchmark): the same warm request mix is driven twice by the
// same load generator, first at a single SchedulerService over the
// framed in-memory transport, then at a ShardRouter fronting 3
// colocated shards at R=1.
//
// The load generator is thin on purpose, like a fixed-body wrk run:
// requests are pre-encoded frames resent with stable request ids, and
// responses are drained by framing reads alone. That keeps client-side
// CPU out of the server figures. Every request after the warm-up is a
// payment-free cache hit, so the comparison prices the two ways such a
// hit is answered: a single service's in-place rule on its session
// reader, against the router's hop (decode, ring lookup, the primary
// shard's try_serve_inline, encode) in front of the same rule.
//
// Two throughput figures come out of each closed loop:
//  * wall req/s — requests over wall time. On a host with fewer cores
//    than threads the load generator and the server share CPUs, so
//    this mixes their costs.
//  * capacity req/s — requests over SERVER cpu-seconds (process CPU
//    minus the load generator threads' CPU): the rate the tier
//    sustains when clients run elsewhere.
//
// floor_speedup_vs_single carries the capacity ratio, and
// check_perf_regression.py gates floor_* counters as MINIMA: a router
// hop that grows much dearer than the single service's in-place answer
// fails the perf gate instead of fading quietly from a report.
#include <benchmark/benchmark.h>

#include <sys/resource.h>
#include <time.h>

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
#include "obs/obs.hpp"
#include "obs/trace_export.hpp"
#include "serve/client.hpp"
#include "serve/frame.hpp"
#include "serve/router.hpp"
#include "serve/service.hpp"
#include "serve/service_wire.hpp"

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

/// The request mix, encoded once: frame i asks for topology i under the
/// stable request id i+1, so every replay of the mix is byte-identical.
std::vector<dls::codec::Bytes> encode_mix(
    const std::vector<Topology>& topos) {
  std::vector<dls::codec::Bytes> frames;
  frames.reserve(topos.size());
  for (std::size_t i = 0; i < topos.size(); ++i) {
    dls::serve::ScheduleRequest request;
    request.request_id = i + 1;
    request.w = topos[i].w;
    request.z = topos[i].z;
    dls::serve::Frame frame;
    frame.type = dls::serve::FrameType::kScheduleRequest;
    frame.payload = dls::serve::encode_schedule_request(request);
    frames.push_back(dls::serve::encode_frame(frame));
  }
  return frames;
}

double process_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec) * 1e-6 +
         static_cast<double>(usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_stime.tv_usec) * 1e-6;
}

double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// One closed-loop measurement: wall seconds, server cpu-seconds, and
/// completed responses.
struct LoopCost {
  double wall_s = 0.0;
  double server_cpu_s = 0.0;
  std::uint64_t completed = 0;
};

/// Drives `clients` load-generator threads, `requests` round trips
/// each, next frame written the moment the previous response drains.
/// Server CPU is everything this process burned beyond the generator
/// threads themselves.
template <typename Connect>
LoopCost run_closed_loop(Connect&& connect, std::size_t clients,
                         int requests,
                         const std::vector<dls::codec::Bytes>& frames) {
  std::mutex tally_mutex;
  double client_cpu_s = 0.0;
  std::uint64_t completed = 0;
  std::vector<std::thread> crew;
  crew.reserve(clients);
  const double cpu0 = process_cpu_seconds();
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t c = 0; c < clients; ++c) {
    crew.emplace_back([&, c] {
      auto end = connect();
      std::vector<std::uint8_t> header(dls::serve::kFrameHeaderSize);
      std::vector<std::uint8_t> body;
      std::uint64_t ok = 0;
      for (int i = 0; i < requests; ++i) {
        end->write(frames[(c + static_cast<std::size_t>(i)) %
                          frames.size()]);
        if (!end->read_exact(header)) break;
        const std::uint32_t length =
            static_cast<std::uint32_t>(header[6]) |
            static_cast<std::uint32_t>(header[7]) << 8 |
            static_cast<std::uint32_t>(header[8]) << 16 |
            static_cast<std::uint32_t>(header[9]) << 24;
        body.resize(length);
        if (!end->read_exact(body)) break;
        ++ok;
      }
      end->close();
      const double cpu = thread_cpu_seconds();
      std::lock_guard<std::mutex> lock(tally_mutex);
      client_cpu_s += cpu;
      completed += ok;
    });
  }
  for (std::thread& t : crew) t.join();
  const auto t1 = std::chrono::steady_clock::now();
  const double cpu1 = process_cpu_seconds();
  LoopCost cost;
  cost.wall_s = std::chrono::duration<double>(t1 - t0).count();
  cost.server_cpu_s = (cpu1 - cpu0) - client_cpu_s;
  cost.completed = completed;
  return cost;
}

constexpr std::size_t kShards = 3;
constexpr std::size_t kClients = 1;
constexpr std::size_t kChain = 64;
constexpr int kRequestsPerClient = 512;
constexpr std::size_t kTopologies = 8;

// Single service vs 3-shard federation under the identical warm closed
// loop. items/sec is the federation's wall-clock request rate;
// single_rps / sharded_rps break the wall figures out,
// *_capacity_rps are the server-CPU figures, and
// floor_speedup_vs_single gates the capacity ratio.
void bm_serve_sharded(benchmark::State& state) {
  const std::vector<Topology> topos = make_topologies(kTopologies, kChain);
  const std::vector<dls::codec::Bytes> frames = encode_mix(topos);

  // Baseline: one service, cache sized to keep the set resident.
  dls::serve::ServiceConfig single_config;
  single_config.queue_capacity = 2 * kClients;
  single_config.cache_capacity = kTopologies;
  dls::serve::SchedulerService single(single_config);

  // Federation: 3 colocated shards behind a router at R=1 — the
  // topology the router's inline path exists for.
  std::vector<std::unique_ptr<dls::serve::SchedulerService>> shards;
  for (std::size_t s = 0; s < kShards; ++s) {
    dls::serve::ServiceConfig config;
    config.queue_capacity = 2 * kClients;
    config.cache_capacity = kTopologies;
    shards.push_back(
        std::make_unique<dls::serve::SchedulerService>(config));
  }
  dls::serve::RouterConfig router_config;
  router_config.shard_count = kShards;
  router_config.replication = 1;
  router_config.connect =
      [&](std::size_t shard) -> std::unique_ptr<dls::serve::Transport> {
    return std::make_unique<dls::serve::PipeEnd>(shards[shard]->connect());
  };
  for (const auto& shard : shards) {
    router_config.local.push_back(shard.get());
  }
  dls::serve::ShardRouter router(router_config);

  const auto connect_single = [&] {
    return std::make_unique<dls::serve::PipeEnd>(single.connect());
  };
  const auto connect_sharded = [&] {
    return std::make_unique<dls::serve::PipeEnd>(router.connect());
  };

  // Warm-up: three passes over the mix land every topology in the
  // service caches, so the measured loops answer nothing but hits.
  run_closed_loop(connect_single, 1, 3 * static_cast<int>(kTopologies),
                  frames);
  run_closed_loop(connect_sharded, 1, 3 * static_cast<int>(kTopologies),
                  frames);

  LoopCost single_cost;
  LoopCost sharded_cost;
  for (auto _ : state) {
    const LoopCost a = run_closed_loop(connect_single, kClients,
                                       kRequestsPerClient, frames);
    const LoopCost b = run_closed_loop(connect_sharded, kClients,
                                       kRequestsPerClient, frames);
    single_cost.wall_s += a.wall_s;
    single_cost.server_cpu_s += a.server_cpu_s;
    single_cost.completed += a.completed;
    sharded_cost.wall_s += b.wall_s;
    sharded_cost.server_cpu_s += b.server_cpu_s;
    sharded_cost.completed += b.completed;
  }

  const auto rate = [](std::uint64_t n, double seconds) {
    return seconds > 0.0 ? static_cast<double>(n) / seconds : 0.0;
  };
  state.SetItemsProcessed(
      static_cast<std::int64_t>(sharded_cost.completed));
  const double single_capacity =
      rate(single_cost.completed, single_cost.server_cpu_s);
  const double sharded_capacity =
      rate(sharded_cost.completed, sharded_cost.server_cpu_s);
  state.counters["single_rps"] =
      rate(single_cost.completed, single_cost.wall_s);
  state.counters["sharded_rps"] =
      rate(sharded_cost.completed, sharded_cost.wall_s);
  state.counters["single_capacity_rps"] = single_capacity;
  state.counters["sharded_capacity_rps"] = sharded_capacity;
  state.counters["floor_speedup_vs_single"] =
      single_capacity > 0.0 ? sharded_capacity / single_capacity : 0.0;

  router.stop();
  for (auto& shard : shards) shard->stop();
  single.stop();
}
BENCHMARK(bm_serve_sharded)->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace

// Same custom main as bench_serve_throughput: honours --trace-out=FILE
// (or DLS_TRACE_OUT) and writes Chrome trace JSON on exit.
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
