// sweep: offline Thm 5.3 strategyproofness sweeps, no serve involved.
// For every strategic processor of seeded 64- and 1024-processor
// chains, analysis::utility_vs_bid over a 256-point logspace(0.25, 4)
// bid grid (multiples of the true rate), fanned out over
// exec::ThreadPool::global().parallel_for by (chain, processor) index.
// A "request" here is one processor's curve; a pass is every curve of
// every chain.
#include <algorithm>
#include <array>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/experiments.hpp"
#include "analysis/sweep.hpp"
#include "common/rng.hpp"
#include "core/dls_lbl.hpp"
#include "exec/thread_pool.hpp"
#include "layers.hpp"
#include "net/networks.hpp"
#include "obs/obs.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace obs = dls::obs;

constexpr int kSetupTrials = 35;
/// The strategyproofness tolerance of core_strategyproof_test.
constexpr double kGapTolerance = 1e-9;
/// One task in this many has three of its points re-derived through
/// core::utility_under_bid.
constexpr std::size_t kCheckEvery = 16;
constexpr std::array<std::size_t, 3> kCheckedPoints = {0, kBidPoints / 2,
                                                       kBidPoints - 1};

struct Task {
  std::size_t chain = 0;
  std::size_t index = 0;
};

struct TaskOut {
  double seconds = 0.0;
  double gap = 0.0;
  std::array<double, 3> bids{};
  std::array<double, 3> utilities{};
};

struct SweepInputs {
  std::vector<dls::net::LinearNetwork> chains;
  std::vector<Task> tasks;
};

SweepInputs make_inputs(const Options& options) {
  SweepInputs in;
  dls::common::Rng rng(derive_seed(options.seed, 7));
  const std::size_t small = options.tiny ? 4 : 32;
  const std::size_t large = options.tiny ? 1 : 4;
  for (std::size_t c = 0; c < small + large; ++c) {
    const std::size_t length = c < small ? 64 : 1024;
    in.chains.push_back(dls::net::LinearNetwork::random(
        length, rng, dls::analysis::kWLo, dls::analysis::kWHi,
        dls::analysis::kZLo, dls::analysis::kZHi));
    for (std::size_t j = 1; j < length; ++j) in.tasks.push_back({c, j});
  }
  return in;
}

std::vector<double> bid_grid(double truth) {
  return dls::analysis::logspace(0.25 * truth, 4.0 * truth, kBidPoints);
}

/// Constructs a pool and one CounterfactualMechanism per chain and
/// returns once every chain's first curve (its middle processor) is in.
double setup_trial(const SweepInputs& in) {
  const dls::core::MechanismConfig config;
  std::vector<double> first(in.chains.size() * kBidPoints);
  const double t0 = now_s();
  auto pool = std::make_unique<dls::exec::ThreadPool>();
  pool->parallel_for(in.chains.size(), [&](std::size_t c) {
    const dls::net::LinearNetwork& chain = in.chains[c];
    dls::core::CounterfactualMechanism mechanism(chain, chain.processing_times(),
                                                 config);
    const std::size_t index = chain.size() / 2;
    mechanism.utility_curve(index, bid_grid(chain.w(index)),
                            std::span<double>(first).subspan(c * kBidPoints,
                                                             kBidPoints));
  });
  const double seconds = now_s() - t0;
  pool.reset();
  return seconds;
}

struct PassOut {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::uint64_t allocs = 0;
};

PassOut run_pass(const SweepInputs& in, std::vector<TaskOut>& outs,
                 std::uint64_t check_offset) {
  const dls::core::MechanismConfig config;
  dls::exec::ThreadPool& pool = dls::exec::ThreadPool::global();
  PassOut pass;
  const std::uint64_t allocs0 = process_allocs();
  const double cpu0 = process_cpu_s();
  const double t0 = now_s();
  pool.parallel_for(in.tasks.size(), [&](std::size_t i) {
    const double start = now_s();
    const Task& task = in.tasks[i];
    const dls::net::LinearNetwork& chain = in.chains[task.chain];
    const dls::analysis::UtilityCurve curve = dls::analysis::utility_vs_bid(
        chain, task.index, bid_grid(chain.w(task.index)), config);
    TaskOut& out = outs[i];
    out.gap = dls::analysis::max_truth_advantage_gap(curve);
    if (i % kCheckEvery == check_offset) {
      for (std::size_t k = 0; k < kCheckedPoints.size(); ++k) {
        out.bids[k] = curve.bids[kCheckedPoints[k]];
        out.utilities[k] = curve.utilities[kCheckedPoints[k]];
      }
    }
    out.seconds = now_s() - start;
  });
  pass.wall_s = now_s() - t0;
  pass.cpu_s = process_cpu_s() - cpu0;
  pass.allocs = process_allocs() - allocs0;
  return pass;
}

/// Every curve must certify strategyproofness on its grid, and sampled
/// points must equal the full-assessment utility bit for bit.
void verify_pass(const SweepInputs& in, const std::vector<TaskOut>& outs,
                 std::uint64_t check_offset, Result& result) {
  const dls::core::MechanismConfig config;
  for (std::size_t i = 0; i < outs.size(); ++i) {
    ++result.attempted;
    const Task& task = in.tasks[i];
    const TaskOut& out = outs[i];
    if (!(out.gap <= kGapTolerance)) {
      result.note_failure("truth-advantage gap " + std::to_string(out.gap) +
                              " on chain " + std::to_string(task.chain) +
                              " processor " + std::to_string(task.index),
                          true);
      continue;
    }
    if (i % kCheckEvery != check_offset) continue;
    const dls::net::LinearNetwork& chain = in.chains[task.chain];
    for (std::size_t k = 0; k < kCheckedPoints.size(); ++k) {
      const double expected = dls::core::utility_under_bid(
          chain, task.index, out.bids[k], chain.w(task.index), config);
      if (!same_bits(expected, out.utilities[k])) {
        result.note_failure("utility_vs_bid differs from utility_under_bid on chain " +
                                std::to_string(task.chain) + " processor " +
                                std::to_string(task.index),
                            true);
        break;
      }
    }
  }
}

struct LoopOut {
  std::vector<double> throughput;      ///< curves per second, per pass
  std::vector<double> cpu_us_per_req;  ///< per curve, per pass
  std::vector<double> allocs_per_req;
  std::vector<double> efficiency;      ///< Σ body time / (wall × workers)
  std::vector<double> p50_us;          ///< curve latency, per pass
  std::vector<double> p99_us;
  std::uint64_t latency_samples = 0;
  double threads = 0.0;
};

/// Passes until `seconds` of measured passes have run (at least three);
/// the first pass of a loop warms up and is not measured. Every figure is
/// taken per pass (6108 curves, so p99 has 61 beyond it) and reported as
/// the median pass.
LoopOut run_loop(const SweepInputs& in, double seconds, std::uint64_t seed,
                 TraceFile* trace, Result& result) {
  LoopOut loop;
  std::vector<TaskOut> outs(in.tasks.size());
  std::vector<double> latency_us;
  const auto workers =
      static_cast<double>(dls::exec::ThreadPool::global().worker_count());
  const auto tasks = static_cast<double>(in.tasks.size());
  dls::common::Rng rng(derive_seed(seed, 11));
  double measured = 0.0;
  for (int pass = 0; pass < 4 || measured < seconds; ++pass) {
    const auto offset = static_cast<std::uint64_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(kCheckEvery) - 1));
    const PassOut out = run_pass(in, outs, offset);
    if (pass == 1) loop.threads = proc_threads();
    verify_pass(in, outs, offset, result);
    if (trace != nullptr) trace->pump();
    if (pass == 0) continue;
    measured += out.wall_s;
    loop.throughput.push_back(tasks / out.wall_s);
    loop.cpu_us_per_req.push_back(out.cpu_s * 1e6 / tasks);
    loop.allocs_per_req.push_back(static_cast<double>(out.allocs) / tasks);
    double busy = 0.0;
    latency_us.clear();
    for (const TaskOut& t : outs) {
      busy += t.seconds;
      latency_us.push_back(t.seconds * 1e6);
    }
    loop.efficiency.push_back(busy / (out.wall_s * workers));
    loop.p50_us.push_back(quantile(latency_us, 0.50));
    loop.p99_us.push_back(quantile(latency_us, 0.99));
    loop.latency_samples += latency_us.size();
  }
  return loop;
}

void report_end_to_end(const LoopOut& loop, Result& result) {
  const double curves_per_s = median(loop.throughput);
  result.add("throughput_rps", curves_per_s, "req/s", loop.throughput.size());
  result.add("sweep_points_per_s", curves_per_s * static_cast<double>(kBidPoints),
             "points/s", loop.throughput.size());
  result.add("latency_p50_us", median(loop.p50_us), "us", loop.latency_samples);
  result.add("latency_p99_us", median(loop.p99_us), "us", loop.latency_samples);
  result.add("server_cpu_us_per_req", median(loop.cpu_us_per_req), "us",
             loop.cpu_us_per_req.size());
}

/// (b) for the sweep: the chain layers, the counterfactual kernels and
/// core::CounterfactualMechanism::utility_curve, on the sweep's chains.
void probe_layers(const SweepInputs& in, const Options& options, double budget_s,
                  Result& result) {
  const double deadline = now_s() + 0.5 * budget_s;
  ChainLayers layers(1024);
  std::vector<ChainView> views;
  for (std::size_t c = 0; c < in.chains.size(); ++c) {
    const dls::net::LinearNetwork& chain = in.chains[c];
    views.push_back({chain.processing_times(), chain.link_times()});
    layers.run(chain.processing_times(), chain.link_times(), span_args(c, 0));
  }
  layers.report(result);

  const dls::core::MechanismConfig config;
  dls::common::Rng rng(derive_seed(options.seed, 13));
  std::vector<double> utilities(kBidPoints);
  Samples curve_ns;
  for (std::size_t c = 0; c < in.chains.size(); ++c) {
    if (c > 0 && now_s() >= deadline) break;
    const dls::net::LinearNetwork& chain = in.chains[c];
    dls::core::CounterfactualMechanism mechanism(chain, chain.processing_times(),
                                                 config);
    for (int s = 0; s < 8; ++s) {
      const auto index = static_cast<std::size_t>(
          rng.uniform_int(1, static_cast<std::int64_t>(chain.size()) - 1));
      const std::vector<double> bids = bid_grid(chain.w(index));
      mechanism.utility_curve(index, bids, utilities);  // warms the scratch
      DLS_SPAN_ARGS("perfbench.core.utility_curve", span_args(index, c));
      const std::uint64_t t0 = now_ns();
      mechanism.utility_curve(index, bids, utilities);
      curve_ns.add(static_cast<double>(now_ns() - t0) /
                   static_cast<double>(kBidPoints));
    }
  }
  result.add("core.utility_curve_ns_per_point", curve_ns.p50(), "ns",
             curve_ns.count());
  probe_kernels(views, options.clients, options.seed,
                std::max(0.0, deadline + 0.5 * budget_s - now_s()), result);
}

}  // namespace

Result run_sweep(const Options& options) {
  const SweepInputs inputs = make_inputs(options);
  Result result;
  result.info["curves_per_pass"] = std::to_string(inputs.tasks.size());
  result.info["bid_points"] = std::to_string(kBidPoints);
  result.info["workers"] =
      std::to_string(dls::exec::ThreadPool::global().worker_count());

  std::vector<double> setup_s;
  for (int trial = 0; trial < kSetupTrials; ++trial) {
    setup_s.push_back(setup_trial(inputs));
  }
  result.add("setup_s", median(setup_s), "s", setup_s.size());

  if (!options.trace) {
    LoopOut loop = run_loop(inputs, options.seconds, options.seed, nullptr, result);
    report_end_to_end(loop, result);
  } else {
    const double part = options.seconds / 3.0;
    LoopOut plain = run_loop(inputs, part, options.seed, nullptr, result);
    report_end_to_end(plain, result);
    obs::MetricsRegistry::global().reset();
    obs::TraceSink::global().clear();
    obs::set_active(true);
    TraceFile trace(options.trace_out);
    LoopOut traced = run_loop(inputs, part, options.seed, &trace, result);
    result.add("exec.parallel_efficiency", median(traced.efficiency), "ratio",
               traced.efficiency.size());
    result.add("proc.allocs_per_req", median(plain.allocs_per_req), "count",
               plain.allocs_per_req.size());
    result.add("proc.threads", plain.threads, "count", 1);
    result.add("obs.traced_slowdown",
               median(plain.throughput) / median(traced.throughput) - 1.0,
               "ratio", traced.throughput.size());
    probe_layers(inputs, options, part, result);
    if (!trace.finish()) throw std::runtime_error("cannot write " + options.trace_out);
    obs::set_active(false);
  }
  result.add("peak_rss_mb", peak_rss_mb(), "MB", 1);
  return result;
}

}  // namespace perfbench
