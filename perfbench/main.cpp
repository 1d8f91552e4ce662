// dlsbench: runs one perfbench workload and prints its result as one
// JSON line prefixed "PERFBENCH_RESULT ". perfbench/run.py builds this
// binary, runs it and turns the line into the benchmark's report.
//
//   dlsbench --workload hot_pipe|cold_mixed|federation_tcp|sweep
//            --seed N --seconds S --trace 0|1
//            [--trace-out FILE] [--tiny]
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>
#include <thread>

#include "check/contracts.hpp"
#include "dlt/batch.hpp"
#include "harness.hpp"
#include "obs/level.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Options;
using perfbench::Result;

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// All digits of the measurement; null for a value that is not a number.
std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string loadavg_json() {
  double load[3] = {0.0, 0.0, 0.0};
  if (getloadavg(load, 3) != 3) return "null";
  return "[" + json_number(load[0]) + "," + json_number(load[1]) + "," +
         json_number(load[2]) + "]";
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

int usage(const std::string& why) {
  std::cerr << "dlsbench: " << why << "\n"
            << "usage: dlsbench --workload hot_pipe|cold_mixed|federation_tcp|"
               "sweep --seed N --seconds S --trace 0|1 [--trace-out FILE] "
               "[--tiny]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  const unsigned hw = std::thread::hardware_concurrency();
  const unsigned nproc = hw == 0 ? 1 : hw;
  // At most nproc client threads and at most 4, but never one: single-
  // client closed loops were bimodal run to run on this code.
  options.clients = nproc < 2 ? 2 : (nproc > 4 ? 4 : nproc);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) return {};
      return argv[++i];
    };
    if (arg == "--workload") {
      options.workload = value();
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::atof(value().c_str());
    } else if (arg == "--trace") {
      options.trace = value() == "1";
    } else if (arg == "--trace-out") {
      options.trace_out = value();
    } else if (arg == "--tiny") {
      options.tiny = true;
    } else {
      return usage("unknown argument " + arg);
    }
  }
  const bool served = perfbench::is_served_workload(options.workload);
  if (!served && options.workload != "sweep") {
    return usage("unknown workload '" + options.workload + "'");
  }
  if (!(options.seconds > 0.0)) return usage("--seconds must be positive");

  const std::string load_start = loadavg_json();
  Result result;
  try {
    result = served ? perfbench::run_served(options)
                    : perfbench::run_sweep(options);
  } catch (const std::exception& e) {
    std::cerr << "dlsbench: " << options.workload << " failed: " << e.what()
              << "\n";
    return 1;
  }

  std::string metrics;
  for (const auto& [name, m] : result.metrics) {
    if (!metrics.empty()) metrics += ",";
    metrics += json_string(name) + ":{\"value\":" + json_number(m.value) +
               ",\"unit\":" + json_string(m.unit) +
               ",\"samples\":" + std::to_string(m.samples) + "}";
  }
  std::string info;
  for (const auto& [key, value] : result.info) {
    if (!info.empty()) info += ",";
    info += json_string(key) + ":" + value;
  }
  const std::string provenance =
      std::string("{\"build_type\":") + json_string(PERFBENCH_BUILD_TYPE) +
      ",\"check_level\":" + std::to_string(DLS_CHECK_LEVEL) +
      ",\"obs_level\":" + std::to_string(DLS_OBS_LEVEL) +
      ",\"simd_compiled\":" +
      (dls::dlt::batch_simd_compiled() ? "true" : "false") +
      ",\"simd_available\":" +
      (dls::dlt::batch_simd_available() ? "true" : "false") +
      ",\"compiler\":" + json_string(compiler()) +
      ",\"nproc\":" + std::to_string(nproc) +
      ",\"clients\":" + std::to_string(options.clients) +
      ",\"loadavg_start\":" + load_start +
      ",\"loadavg_end\":" + loadavg_json() + "}";
  const bool correct = result.wrong == 0;
  std::cout << "PERFBENCH_RESULT {\"workload\":" << json_string(options.workload)
            << ",\"seed\":" << options.seed
            << ",\"seconds\":" << json_number(options.seconds)
            << ",\"trace\":" << (options.trace ? "true" : "false")
            << ",\"tiny\":" << (options.tiny ? "true" : "false")
            << ",\"correct\":" << (correct ? "true" : "false")
            << ",\"attempted\":" << result.attempted
            << ",\"failed\":" << result.failed << ",\"wrong\":" << result.wrong
            << ",\"first_error\":" << json_string(result.first_error)
            << ",\"metrics\":{" << metrics << "},\"info\":{" << info
            << "},\"provenance\":" << provenance << "}" << std::endl;
  return correct ? 0 : 1;
}
