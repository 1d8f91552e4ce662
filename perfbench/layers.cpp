#include "layers.hpp"

#include <algorithm>
#include <functional>
#include <optional>

#include "analysis/sweep.hpp"
#include "common/rng.hpp"
#include "dlt/batch.hpp"
#include "dlt/counterfactual.hpp"
#include "exec/thread_pool.hpp"
#include "net/networks.hpp"
#include "obs/obs.hpp"

namespace perfbench {
namespace {

namespace dlt = dls::dlt;

/// Chrome-trace events kept per traced run.
constexpr std::size_t kTraceEventCap = 50000;

double elapsed_ns(std::uint64_t t0) {
  return static_cast<double>(now_ns() - t0);
}

dls::net::LinearNetwork network_of(const ChainView& chain) {
  return dls::net::LinearNetwork(
      std::vector<double>(chain.w.begin(), chain.w.end()),
      std::vector<double>(chain.z.begin(), chain.z.end()));
}

}  // namespace

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t state = seed ^ (salt * 0x9E3779B97F4A7C15ull);
  return dls::common::splitmix64_next(state);
}

std::string span_args(std::uint64_t id, std::size_t client) {
  return "{\"request_id\":" + std::to_string(id) +
         ",\"client\":" + std::to_string(client) + "}";
}

ChainLayers::ChainLayers(std::size_t max_chain) {
  const auto warm = dls::net::LinearNetwork::uniform(max_chain, 1.0, 0.1);
  dlt::solve_linear_boundary(warm, solve_ws_);
  dls::core::assess_compliant(warm, warm.processing_times(), config_,
                              assess_ws_);
}

ChainLayers::Cost ChainLayers::run(std::span<const double> w,
                                   std::span<const double> z,
                                   const std::string& args) {
  Cost cost;
  std::optional<dls::net::LinearNetwork> network;
  {
    DLS_SPAN_ARGS("perfbench.net.build", args);
    const std::uint64_t t0 = now_ns();
    network.emplace(std::vector<double>(w.begin(), w.end()),
                    std::vector<double>(z.begin(), z.end()));
    cost.build_ns = elapsed_ns(t0);
  }
  {
    DLS_SPAN_ARGS("perfbench.dlt.solve", args);
    const std::uint64_t t0 = now_ns();
    dlt::solve_linear_boundary(*network, solve_ws_);
    cost.solve_ns = elapsed_ns(t0);
  }
  {
    DLS_SPAN_ARGS("perfbench.core.assess", args);
    const std::uint64_t t0 = now_ns();
    dls::core::assess_compliant(*network, network->processing_times(),
                                config_, assess_ws_);
    cost.assess_ns = elapsed_ns(t0);
  }
  const auto n = static_cast<double>(w.size());
  build_per_proc_.add(cost.build_ns / n);
  solve_per_proc_[w.size()].add(cost.solve_ns / n);
  assess_per_proc_.add(cost.assess_ns / n);
  return cost;
}

void ChainLayers::report(Result& out) {
  out.add("net.build_ns_per_proc", build_per_proc_.p50(), "ns",
          build_per_proc_.count());
  for (auto& [length, samples] : solve_per_proc_) {
    out.add("dlt.solve_ns_per_proc." + std::to_string(length), samples.p50(),
            "ns", samples.count());
  }
  out.add("core.assess_ns_per_proc", assess_per_proc_.p50(), "ns",
          assess_per_proc_.count());
}

void probe_kernels(const std::vector<ChainView>& chains, std::size_t lanes,
                   std::uint64_t seed, double budget_s, Result& out) {
  const double deadline = now_s() + budget_s;
  const std::string args = span_args(0, 0);

  // Allocations of warmed workspace solves, counted with tracing off so
  // the trace sink's own buffers do not count against the solver.
  const bool tracing = dls::obs::active();
  dls::obs::set_active(false);
  std::size_t longest = 1;
  for (const ChainView& chain : chains) longest = std::max(longest, chain.w.size());
  dlt::LinearSolverWorkspace workspace;
  dlt::solve_linear_boundary(dls::net::LinearNetwork::uniform(longest, 1.0, 0.1),
                             workspace);
  std::uint64_t solve_allocs = 0;
  for (const ChainView& chain : chains) {
    const dls::net::LinearNetwork network = network_of(chain);
    const std::uint64_t before = thread_allocs();
    dlt::solve_linear_boundary(network, workspace);
    solve_allocs += thread_allocs() - before;
  }
  dls::obs::set_active(tracing);
  out.add("dlt.allocs_per_solve",
          static_cast<double>(solve_allocs) /
              static_cast<double>(std::max<std::size_t>(1, chains.size())),
          "count", chains.size());

  // Batch lanes: each chain length in turn, `lanes` chains per solve
  // (cycling through the length's chains when it has fewer).
  std::map<std::size_t, std::vector<std::size_t>> by_length;
  for (std::size_t i = 0; i < chains.size(); ++i) {
    by_length[chains[i].w.size()].push_back(i);
  }
  dlt::BatchLinearSolver batch;
  Samples batch_ns;
  for (const auto& [length, members] : by_length) {
    for (std::size_t start = 0; start == 0 || (start < members.size() &&
                                               now_s() < deadline);
         start += lanes) {
      batch.begin(length, lanes);
      for (std::size_t k = 0; k < lanes; ++k) {
        const ChainView& chain = chains[members[(start + k) % members.size()]];
        batch.set_instance(k, chain.w, chain.z);
      }
      batch.solve();  // first solve of a shape may grow the buffers
      for (int rep = 0; rep < 3; ++rep) {
        DLS_SPAN_ARGS("perfbench.dlt.batch_solve", args);
        const std::uint64_t t0 = now_ns();
        batch.solve();
        batch_ns.add(elapsed_ns(t0) /
                     static_cast<double>(lanes * length));
      }
    }
  }
  out.add("dlt.batch_ns_per_lane_proc", batch_ns.p50(), "ns",
          batch_ns.count());

  // Prefix re-solves over a bid grid at sampled processors.
  dls::common::Rng rng(derive_seed(seed, 0x7265626964ull));
  std::vector<dlt::CounterfactualSolver::Rebid> rebids(kBidPoints);
  Samples rebid_ns;
  for (std::size_t c = 0; c < chains.size(); ++c) {
    if (c > 0 && now_s() >= deadline) break;
    const ChainView& chain = chains[c];
    if (chain.w.size() < 2) continue;
    dlt::CounterfactualSolver solver(network_of(chain));
    for (int s = 0; s < 4; ++s) {
      const auto index = static_cast<std::size_t>(
          rng.uniform_int(1, static_cast<std::int64_t>(chain.w.size()) - 1));
      const double truth = chain.w[index];
      const std::vector<double> bids =
          dls::analysis::logspace(0.25 * truth, 4.0 * truth, kBidPoints);
      solver.rebid_batch(index, bids, rebids);  // warms the lane scratch
      DLS_SPAN_ARGS("perfbench.dlt.rebid_batch", args);
      const std::uint64_t t0 = now_ns();
      solver.rebid_batch(index, bids, rebids);
      rebid_ns.add(elapsed_ns(t0) / static_cast<double>(kBidPoints));
    }
  }
  out.add("dlt.rebid_ns_per_point", rebid_ns.p50(), "ns", rebid_ns.count());

  // Pool hand-off: one empty index per participant.
  dls::exec::ThreadPool& pool = dls::exec::ThreadPool::global();
  const std::function<void(std::size_t)> empty = [](std::size_t) {};
  for (int i = 0; i < 10; ++i) pool.parallel_for(pool.worker_count(), empty);
  Samples dispatch_us;
  const double dispatch_deadline = now_s() + 0.25 * budget_s;
  for (int i = 0; i < 2000; ++i) {
    if (i >= 100 && now_s() >= dispatch_deadline) break;
    DLS_SPAN_ARGS("perfbench.exec.dispatch", args);
    const std::uint64_t t0 = now_ns();
    pool.parallel_for(pool.worker_count(), empty);
    dispatch_us.add(elapsed_ns(t0) * 1e-3);
  }
  out.add("exec.dispatch_us", dispatch_us.p50(), "us", dispatch_us.count());
}

TraceFile::TraceFile(const std::string& path) {
  if (path.empty()) return;
  out_.open(path, std::ios::out | std::ios::trunc);
  if (out_) writer_ = std::make_unique<dls::obs::StreamingChromeTrace>(out_);
}

TraceFile::~TraceFile() = default;

void TraceFile::pump() {
  std::vector<dls::obs::SpanEvent> events =
      dls::obs::TraceSink::global().drain();
  if (writer_ && written_ < kTraceEventCap) {
    writer_->append(events);
    written_ += events.size();
  }
}

bool TraceFile::finish() {
  pump();
  if (!writer_) return !out_.is_open() || out_.good();
  const dls::obs::MetricsSnapshot snapshot =
      dls::obs::MetricsRegistry::global().snapshot();
  writer_->finish(&snapshot);
  writer_.reset();
  out_.flush();
  return out_.good();
}

}  // namespace perfbench
