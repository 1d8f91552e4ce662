// The four perfbench workloads (see README.md for why each exists).
#pragma once

#include <string>

#include "harness.hpp"

namespace perfbench {

/// hot_pipe, cold_mixed and federation_tcp: closed loops against the
/// scheduling service.
bool is_served_workload(const std::string& name);
Result run_served(const Options& options);

/// sweep: offline Thm 5.3 utility-vs-bid sweeps on the global pool.
Result run_sweep(const Options& options);

}  // namespace perfbench
