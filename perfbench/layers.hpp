// Per-layer probes: calls into one layer's public functions, timed one
// call at a time from outside the program, each inside a DLS_SPAN_ARGS
// span that carries the request (or task) id. Shared by the served and
// sweep workloads' traced runs.
#pragma once

#include <cstdint>
#include <fstream>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/dls_lbl.hpp"
#include "dlt/linear.hpp"
#include "harness.hpp"
#include "obs/trace_export.hpp"

namespace perfbench {

/// Points on every bid grid: the sweep's curves and the rebid probes.
inline constexpr std::size_t kBidPoints = 256;

/// An independent stream seed for `salt` under the run's `seed`.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt);

/// Span args naming one replayed request or task.
std::string span_args(std::uint64_t id, std::size_t client);

/// Times the three calls every solve path makes on a chain:
/// LinearNetwork(w, z) with its validation, solve_linear_boundary on a
/// reused workspace, and assess_compliant on a reused AssessWorkspace.
class ChainLayers {
 public:
  struct Cost {
    double build_ns = 0.0;
    double solve_ns = 0.0;
    double assess_ns = 0.0;
  };

  /// Warms both workspaces to `max_chain` processors.
  explicit ChainLayers(std::size_t max_chain);

  Cost run(std::span<const double> w, std::span<const double> z,
           const std::string& args);

  const dls::dlt::LinearSolution& solution() const { return solve_ws_.solution; }
  const dls::core::DlsLblResult& assessment() const { return assess_ws_.result; }

  /// net.build_ns_per_proc, dlt.solve_ns_per_proc.<n> per chain length
  /// and core.assess_ns_per_proc.
  void report(Result& out);

 private:
  dls::dlt::LinearSolverWorkspace solve_ws_;
  dls::core::AssessWorkspace assess_ws_;
  dls::core::MechanismConfig config_;
  Samples build_per_proc_;
  Samples assess_per_proc_;
  std::map<std::size_t, Samples> solve_per_proc_;
};

/// A chain as the probes see it.
struct ChainView {
  std::span<const double> w;
  std::span<const double> z;
};

/// dlt.allocs_per_solve (warmed workspace solves, tracing off),
/// dlt.batch_ns_per_lane_proc (BatchLinearSolver::solve on `lanes`
/// same-length chains), dlt.rebid_ns_per_point
/// (CounterfactualSolver::rebid_batch over a 256-point bid grid) and
/// exec.dispatch_us (an empty-body parallel_for on the global pool).
void probe_kernels(const std::vector<ChainView>& chains, std::size_t lanes,
                   std::uint64_t seed, double budget_s, Result& out);

/// The traced run's Chrome trace: sink drains are appended until the
/// event cap (so a long traced loop cannot fill the disk), later drains
/// are discarded. An empty path discards everything.
class TraceFile {
 public:
  explicit TraceFile(const std::string& path);
  ~TraceFile();
  TraceFile(const TraceFile&) = delete;
  TraceFile& operator=(const TraceFile&) = delete;

  void pump();
  /// Final drain plus the metric snapshot; returns false on a write
  /// failure.
  bool finish();

 private:
  std::ofstream out_;
  std::unique_ptr<dls::obs::StreamingChromeTrace> writer_;
  std::size_t written_ = 0;
};

}  // namespace perfbench
