// Experiment PERF — engineering microbenchmarks (google-benchmark):
// solver scaling, event-engine throughput, signature costs, full
// protocol rounds, and the sweep-engine hot paths (workspace solves,
// incremental counterfactual re-solves, pool dispatch). These quantify
// that the library is usable at scale: Algorithm 1 is O(m), a
// utility-vs-bid sweep point costs O(j) with zero allocations through
// the incremental engine, and a full four-phase protocol round on a
// 64-node chain costs well under a millisecond of real work plus crypto.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "agents/agent.hpp"
#include "analysis/multiround.hpp"
#include "analysis/sweep.hpp"
#include "common/rng.hpp"
#include "core/dls_lbl.hpp"
#include "crypto/pki.hpp"
#include "crypto/signed_claim.hpp"
#include "dlt/affine.hpp"
#include "dlt/batch.hpp"
#include "dlt/counterfactual.hpp"
#include "dlt/linear.hpp"
#include "dlt/tree.hpp"
#include "exec/thread_pool.hpp"
#include "net/networks.hpp"
#include "net/tree.hpp"
#include "obs/obs.hpp"
#include "obs/trace_export.hpp"
#include "protocol/runner.hpp"
#include "sim/linear_execution.hpp"
#include "sim/simulator.hpp"

// --------------------------------------------------------------------
// Heap-allocation instrumentation: the global new/delete pair counts
// allocations per thread so the hot-path benches can assert/report
// "zero allocations per solve" as a number, not a claim.
namespace {
thread_local std::uint64_t t_alloc_count = 0;
std::uint64_t alloc_count() noexcept { return t_alloc_count; }
}  // namespace

void* operator new(std::size_t size) {
  ++t_alloc_count;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  ++t_alloc_count;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
// GCC pairs these frees with its builtin operator new and warns; the
// replacement new above really does use malloc, so the pair matches.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace {

dls::net::LinearNetwork network_of(std::size_t n) {
  dls::common::Rng rng(7);
  return dls::net::LinearNetwork::random(n, rng, 0.5, 5.0, 0.05, 0.5);
}

void bm_solver(benchmark::State& state) {
  const auto net = network_of(static_cast<std::size_t>(state.range(0)));
  std::uint64_t allocs = 0;
  for (auto _ : state) {
    const std::uint64_t before = alloc_count();
    benchmark::DoNotOptimize(dls::dlt::solve_linear_boundary(net).makespan);
    allocs += alloc_count() - before;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["allocs_per_solve"] =
      static_cast<double>(allocs) /
      static_cast<double>(std::max<std::int64_t>(state.iterations(), 1));
}
BENCHMARK(bm_solver)->RangeMultiplier(16)->Range(16, 1 << 20);

// The workspace flavour of Algorithm 1: identical arithmetic, zero heap
// allocations per solve once the buffers have warmed (the counter proves
// it), and the reduction trace skipped.
void bm_solver_workspace(benchmark::State& state) {
  const auto net = network_of(static_cast<std::size_t>(state.range(0)));
  dls::dlt::LinearSolverWorkspace ws;
  dls::dlt::solve_linear_boundary(net, ws);  // warm the buffers
  std::uint64_t allocs = 0;
  for (auto _ : state) {
    const std::uint64_t before = alloc_count();
    benchmark::DoNotOptimize(dls::dlt::solve_linear_boundary(net, ws).makespan);
    allocs += alloc_count() - before;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["allocs_per_solve"] =
      static_cast<double>(allocs) /
      static_cast<double>(std::max<std::int64_t>(state.iterations(), 1));
}
BENCHMARK(bm_solver_workspace)->RangeMultiplier(16)->Range(16, 1 << 20);

// ---------------------------------------------------------------------
// The batched SoA engine: K instances of one chain length solved in
// lockstep so the per-step recurrence runs across lanes (the compiler's
// AVX2 clone of the lane loops where the CPU has it, the baseline vector
// body otherwise — bit-identical either way). Zero heap allocations per
// batched solve once the arena has warmed; that is asserted
// (SkipWithError), not just reported.
constexpr std::size_t kBatchChain = 64;

std::vector<dls::net::LinearNetwork> batch_instances(std::size_t lanes) {
  dls::common::Rng rng(11);
  std::vector<dls::net::LinearNetwork> nets;
  nets.reserve(lanes);
  for (std::size_t k = 0; k < lanes; ++k) {
    nets.push_back(
        dls::net::LinearNetwork::random(kBatchChain, rng, 0.5, 5.0, 0.05, 0.5));
  }
  return nets;
}

void bm_solver_batch(benchmark::State& state) {
  const auto lanes = static_cast<std::size_t>(state.range(0));
  const auto nets = batch_instances(lanes);
  dls::dlt::BatchLinearSolver solver;
  solver.reserve(kBatchChain, lanes);
  const auto solve_once = [&] {
    solver.begin(kBatchChain, lanes);
    for (std::size_t k = 0; k < lanes; ++k) solver.set_instance(k, nets[k]);
    solver.solve();
  };
  solve_once();  // warm the arena
  std::uint64_t allocs = 0;
  for (auto _ : state) {
    const std::uint64_t before = alloc_count();
    solve_once();
    benchmark::DoNotOptimize(solver.makespan(lanes - 1));
    allocs += alloc_count() - before;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(lanes) *
                          static_cast<std::int64_t>(state.iterations()));
  state.counters["allocs_per_solve"] =
      static_cast<double>(allocs) /
      static_cast<double>(std::max<std::int64_t>(state.iterations(), 1));
  state.counters["simd"] = dls::dlt::batch_simd_available() ? 1.0 : 0.0;
  if (allocs != 0) state.SkipWithError("batched solve allocated after warm-up");
}
BENCHMARK(bm_solver_batch)->Arg(1)->Arg(4)->Arg(16)->Arg(64)->Arg(256);

// Back-to-back comparison: one K=256 batched solve versus 256 sequential
// workspace solves of the same instances. The counter is the measured
// throughput ratio; its floor_ prefix makes check_perf_regression.py
// treat it as a minimum (dropping below baseline/threshold fails CI),
// pinning the ">= 3x" acceptance bar as a gated number.
void bm_solver_batch_speedup(benchmark::State& state) {
  constexpr std::size_t kLanes = 256;
  const auto nets = batch_instances(kLanes);
  dls::dlt::BatchLinearSolver solver;
  solver.reserve(kBatchChain, kLanes);
  dls::dlt::LinearSolverWorkspace ws;
  dls::dlt::solve_linear_boundary(nets[0], ws);  // warm both paths
  using clock = std::chrono::steady_clock;
  double batch_seconds = 0.0;
  double scalar_seconds = 0.0;
  for (auto _ : state) {
    const auto t0 = clock::now();
    solver.begin(kBatchChain, kLanes);
    for (std::size_t k = 0; k < kLanes; ++k) solver.set_instance(k, nets[k]);
    solver.solve();
    const auto t1 = clock::now();
    double acc = solver.makespan(0);
    for (std::size_t k = 0; k < kLanes; ++k) {
      acc += dls::dlt::solve_linear_boundary(nets[k], ws).makespan;
    }
    const auto t2 = clock::now();
    batch_seconds += std::chrono::duration<double>(t1 - t0).count();
    scalar_seconds += std::chrono::duration<double>(t2 - t1).count();
    benchmark::DoNotOptimize(acc);
  }
  state.counters["floor_speedup_vs_scalar"] =
      batch_seconds > 0.0 ? scalar_seconds / batch_seconds : 0.0;
}
BENCHMARK(bm_solver_batch_speedup)->Unit(benchmark::kMicrosecond);

// Batched mechanism assessment: one SoA solve for K bid networks, then
// a per-lane compliant assessment taking its allocation straight from
// the lane (no second Algorithm 1 run per instance).
void bm_assess_batch(benchmark::State& state) {
  const auto lanes = static_cast<std::size_t>(state.range(0));
  const auto nets = batch_instances(lanes);
  const dls::core::MechanismConfig config;
  dls::dlt::BatchLinearSolver solver;
  solver.reserve(kBatchChain, lanes);
  dls::core::AssessWorkspace ws;
  for (auto _ : state) {
    solver.begin(kBatchChain, lanes);
    for (std::size_t k = 0; k < lanes; ++k) solver.set_instance(k, nets[k]);
    solver.solve();
    double acc = 0.0;
    for (std::size_t k = 0; k < lanes; ++k) {
      acc += dls::core::assess_compliant_from_batch(
                 nets[k], solver, k, nets[k].processing_times(), config, ws)
                 .total_payment;
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(lanes) *
                          static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(bm_assess_batch)->Arg(16)->Arg(256);

void bm_mechanism_assessment(benchmark::State& state) {
  const auto net = network_of(static_cast<std::size_t>(state.range(0)));
  std::vector<double> actual(net.processing_times().begin(),
                             net.processing_times().end());
  const dls::core::MechanismConfig config;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        dls::core::assess_compliant(net, actual, config).total_payment);
  }
}
BENCHMARK(bm_mechanism_assessment)->RangeMultiplier(16)->Range(16, 1 << 16);

void bm_mechanism_assessment_workspace(benchmark::State& state) {
  const auto net = network_of(static_cast<std::size_t>(state.range(0)));
  std::vector<double> actual(net.processing_times().begin(),
                             net.processing_times().end());
  const dls::core::MechanismConfig config;
  dls::core::AssessWorkspace ws;
  dls::core::assess_compliant(net, actual, config, ws);  // warm the buffers
  std::uint64_t allocs = 0;
  for (auto _ : state) {
    const std::uint64_t before = alloc_count();
    benchmark::DoNotOptimize(
        dls::core::assess_compliant(net, actual, config, ws).total_payment);
    allocs += alloc_count() - before;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["allocs_per_assess"] =
      static_cast<double>(allocs) /
      static_cast<double>(std::max<std::int64_t>(state.iterations(), 1));
}
BENCHMARK(bm_mechanism_assessment_workspace)
    ->RangeMultiplier(16)
    ->Range(16, 1 << 16);

// ---------------------------------------------------------------------
// The Theorem 5.3 hot path: utility vs bid for every strategic processor
// of a 64-node chain, 256 bid points each. The "full" flavour rebuilds
// the bid network and runs a complete n-processor assessment per point
// (two Algorithm 1 passes plus n payment evaluations); the "incremental"
// flavour answers each point through CounterfactualMechanism — an O(j)
// prefix re-reduction and a single payment evaluation, allocation-free.
constexpr std::size_t kSweepChain = 64;
constexpr std::size_t kSweepBids = 256;

void bm_utility_sweep_full(benchmark::State& state) {
  const auto net = network_of(kSweepChain);
  const std::vector<double> actual(net.processing_times().begin(),
                                   net.processing_times().end());
  const dls::core::MechanismConfig config;
  const auto multipliers = dls::analysis::logspace(0.25, 4.0, kSweepBids);
  for (auto _ : state) {
    double acc = 0.0;
    for (std::size_t j = 1; j < net.size(); ++j) {
      for (const double mult : multipliers) {
        const auto bid_net = net.with_processing_time(j, net.w(j) * mult);
        acc += dls::core::assess_compliant(bid_net, actual, config)
                   .processors[j]
                   .money.utility;
      }
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>((kSweepChain - 1) * kSweepBids) *
      static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(bm_utility_sweep_full)->Unit(benchmark::kMillisecond);

void bm_utility_sweep_incremental(benchmark::State& state) {
  const auto net = network_of(kSweepChain);
  const std::vector<double> actual(net.processing_times().begin(),
                                   net.processing_times().end());
  const dls::core::MechanismConfig config;
  const auto multipliers = dls::analysis::logspace(0.25, 4.0, kSweepBids);
  std::vector<double> bids(kSweepBids);
  std::vector<double> utilities(kSweepBids);
  dls::core::CounterfactualMechanism mech(net, actual, config);
  for (std::size_t k = 0; k < kSweepBids; ++k) {
    bids[k] = net.w(1) * multipliers[k];
  }
  mech.utility_curve(1, bids, utilities);  // warm the rebid scratch
  std::uint64_t allocs = 0;
  for (auto _ : state) {
    double acc = 0.0;
    const std::uint64_t before = alloc_count();
    for (std::size_t j = 1; j < net.size(); ++j) {
      for (std::size_t k = 0; k < kSweepBids; ++k) {
        bids[k] = net.w(j) * multipliers[k];
      }
      mech.utility_curve(j, bids, utilities);
      for (const double u : utilities) acc += u;
    }
    allocs += alloc_count() - before;
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>((kSweepChain - 1) * kSweepBids) *
      static_cast<std::int64_t>(state.iterations()));
  state.counters["allocs_per_sweep"] =
      static_cast<double>(allocs) /
      static_cast<double>(std::max<std::int64_t>(state.iterations(), 1));
}
BENCHMARK(bm_utility_sweep_incremental)->Unit(benchmark::kMillisecond);

// Runs both flavours back to back and reports the measured ratio as a
// counter, so the ">= 5x" claim is a number in the benchmark output
// rather than arithmetic the reader does across two rows.
void bm_utility_sweep_speedup(benchmark::State& state) {
  const auto net = network_of(kSweepChain);
  const std::vector<double> actual(net.processing_times().begin(),
                                   net.processing_times().end());
  const dls::core::MechanismConfig config;
  const auto multipliers = dls::analysis::logspace(0.25, 4.0, kSweepBids);
  std::vector<double> bids(kSweepBids);
  std::vector<double> utilities(kSweepBids);
  dls::core::CounterfactualMechanism mech(net, actual, config);
  using clock = std::chrono::steady_clock;
  double full_seconds = 0.0;
  double incremental_seconds = 0.0;
  for (auto _ : state) {
    double acc = 0.0;
    const auto t0 = clock::now();
    for (std::size_t j = 1; j < net.size(); ++j) {
      for (const double mult : multipliers) {
        const auto bid_net = net.with_processing_time(j, net.w(j) * mult);
        acc += dls::core::assess_compliant(bid_net, actual, config)
                   .processors[j]
                   .money.utility;
      }
    }
    const auto t1 = clock::now();
    for (std::size_t j = 1; j < net.size(); ++j) {
      for (std::size_t k = 0; k < kSweepBids; ++k) {
        bids[k] = net.w(j) * multipliers[k];
      }
      mech.utility_curve(j, bids, utilities);
      for (const double u : utilities) acc += u;
    }
    const auto t2 = clock::now();
    full_seconds += std::chrono::duration<double>(t1 - t0).count();
    incremental_seconds += std::chrono::duration<double>(t2 - t1).count();
    benchmark::DoNotOptimize(acc);
  }
  state.counters["speedup"] =
      incremental_seconds > 0.0 ? full_seconds / incremental_seconds : 0.0;
}
BENCHMARK(bm_utility_sweep_speedup)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------
// Pool dispatch latency: the fixed cost of fanning a trivial job out to
// the persistent pool and waiting for completion. Compare
// with bm_spawn_join_dispatch, the spawn-per-call pattern the pool
// replaced in the old analysis-layer sweep driver.
void bm_pool_dispatch(benchmark::State& state) {
  auto& pool = dls::exec::ThreadPool::global();
  const std::size_t chunks = std::max<std::size_t>(pool.worker_count(), 1);
  for (auto _ : state) {
    pool.parallel_for_chunks(
        chunks, [](std::size_t begin, std::size_t end) {
          benchmark::DoNotOptimize(begin + end);
        },
        {.grain = 1});
  }
  state.counters["workers"] = static_cast<double>(pool.worker_count());
}
BENCHMARK(bm_pool_dispatch);

void bm_spawn_join_dispatch(benchmark::State& state) {
  const std::size_t threads =
      std::max<std::size_t>(dls::exec::ThreadPool::global().worker_count(), 1);
  for (auto _ : state) {
    std::vector<std::thread> crew;
    crew.reserve(threads);
    for (std::size_t i = 0; i < threads; ++i) {
      crew.emplace_back([i] { benchmark::DoNotOptimize(i); });
    }
    for (auto& t : crew) t.join();
  }
  state.counters["workers"] = static_cast<double>(threads);
}
BENCHMARK(bm_spawn_join_dispatch);

void bm_event_engine(benchmark::State& state) {
  const auto events = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    dls::sim::Simulator sim;
    for (std::size_t i = 0; i < events; ++i) {
      sim.schedule_at(static_cast<double>(i % 97), [](dls::sim::Simulator&) {});
    }
    sim.run();
    benchmark::DoNotOptimize(sim.executed());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events) *
                          static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(bm_event_engine)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 17);

void bm_chain_simulation(benchmark::State& state) {
  const auto net = network_of(static_cast<std::size_t>(state.range(0)));
  const auto sol = dls::dlt::solve_linear_boundary(net);
  const auto plan = dls::sim::ExecutionPlan::compliant(net, sol);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dls::sim::execute_linear(net, plan).makespan);
  }
}
BENCHMARK(bm_chain_simulation)->RangeMultiplier(8)->Range(8, 1 << 12);

void bm_sign_claim(benchmark::State& state) {
  dls::common::Rng rng(3);
  dls::crypto::KeyRegistry registry;
  const auto signer = registry.enroll(1, rng);
  const dls::crypto::Claim claim{dls::crypto::ClaimKind::kEquivalentBid, 1,
                                 1, 1.25};
  for (auto _ : state) {
    benchmark::DoNotOptimize(dls::crypto::make_signed(signer, claim).sig);
  }
}
BENCHMARK(bm_sign_claim);

void bm_verify_claim(benchmark::State& state) {
  dls::common::Rng rng(3);
  dls::crypto::KeyRegistry registry;
  const auto signer = registry.enroll(1, rng);
  const auto sc = dls::crypto::make_signed(
      signer,
      dls::crypto::Claim{dls::crypto::ClaimKind::kEquivalentBid, 1, 1, 1.25});
  for (auto _ : state) {
    benchmark::DoNotOptimize(dls::crypto::verify(registry, sc));
  }
}
BENCHMARK(bm_verify_claim);

void bm_tree_solver(benchmark::State& state) {
  dls::common::Rng rng(7);
  const dls::net::TreeNetwork tree = dls::net::TreeNetwork::random(
      static_cast<std::size_t>(state.range(0)), rng, 0.5, 5.0, 0.05, 0.5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dls::dlt::solve_tree(tree).makespan);
  }
}
BENCHMARK(bm_tree_solver)->RangeMultiplier(16)->Range(16, 1 << 16);

void bm_affine_solver(benchmark::State& state) {
  dls::common::Rng rng(7);
  const auto net = network_of(static_cast<std::size_t>(state.range(0)));
  std::vector<double> startup(net.size());
  for (auto& s : startup) s = rng.uniform(0.0, 0.3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        dls::dlt::solve_linear_boundary_affine(net, startup).makespan);
  }
}
BENCHMARK(bm_affine_solver)->Arg(8)->Arg(64)->Arg(512);

void bm_multiround_optimizer(benchmark::State& state) {
  dls::common::Rng rng(7);
  const dls::net::StarNetwork star = dls::net::StarNetwork::random(
      static_cast<std::size_t>(state.range(0)), rng, 0.5, 5.0, 0.05, 0.5,
      true);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        dls::analysis::solve_multiround_star(star, 4).makespan);
  }
}
BENCHMARK(bm_multiround_optimizer)->Arg(4)->Arg(16);

void bm_full_protocol_round(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto net = network_of(m + 1);
  std::vector<dls::agents::StrategicAgent> agents;
  for (std::size_t i = 1; i <= m; ++i) {
    agents.push_back(dls::agents::StrategicAgent{
        i, net.w(i), dls::agents::Behavior::truthful()});
  }
  const dls::agents::Population population(std::move(agents));
  dls::protocol::ProtocolOptions options;
  options.blocks_per_unit = 1024;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        dls::protocol::run_protocol(net, population, options).makespan);
  }
}
BENCHMARK(bm_full_protocol_round)->Arg(4)->Arg(16)->Arg(64);

}  // namespace

// Custom main instead of BENCHMARK_MAIN(): honours --trace-out=FILE (or
// the DLS_TRACE_OUT environment variable) by collecting an execution
// trace across the whole run and writing Chrome trace JSON on exit.
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
