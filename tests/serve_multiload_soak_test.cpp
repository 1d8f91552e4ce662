// Multi-client multi-load soak: several concurrent clients pump
// randomized multi-load batches (mixed with single-load traffic)
// through one service, and every kOk answer must be bit-identical to a
// reference MultiLoadSolver / assess_loads run computed client-side.
// Designed for the TSan CI job (multiload-soak): the single shared
// admission bound, the lane tasks on the pool and the per-session writers
// all race here by construction, so any ordering bug or data race has
// a deterministic oracle to trip over. DLS_SERVE_SOAK multiplies the
// request volume.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "dlt/linear.hpp"
#include "multiload/payments.hpp"
#include "multiload/solver.hpp"
#include "net/networks.hpp"
#include "serve/client.hpp"
#include "serve/multiload_wire.hpp"
#include "serve/service.hpp"

namespace {

using dls::common::Rng;
using dls::serve::MultiLoadItem;
using dls::serve::MultiScheduleRequest;
using dls::serve::MultiScheduleResponse;
using dls::serve::ScheduleResponse;
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

/// Aborts the whole process when the soak wedges; a hang is the failure
/// mode this harness exists to rule out.
class Watchdog {
 public:
  explicit Watchdog(double limit_s) {
    thread_ = std::thread([this, limit_s] {
      std::unique_lock<std::mutex> lock(mutex_);
      if (!cv_.wait_for(lock, std::chrono::duration<double>(limit_s),
                        [this] { return disarmed_; })) {
        std::fprintf(stderr,
                     "serve_multiload_soak watchdog: run exceeded %.0f s — "
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

MultiScheduleRequest random_request(Rng& rng) {
  MultiScheduleRequest request;
  const int m = static_cast<int>(rng.uniform_int(1, 5));
  for (int i = 0; i <= m; ++i) request.w.push_back(rng.uniform(0.5, 2.0));
  for (int i = 0; i < m; ++i) request.z.push_back(rng.uniform(0.05, 0.4));
  const int loads = static_cast<int>(rng.uniform_int(1, 4));
  for (int i = 0; i < loads; ++i) {
    MultiLoadItem item;
    item.load_id = static_cast<std::uint64_t>(i + 1);
    item.size = rng.uniform(0.5, 2.5);
    item.release = rng.uniform(0.0, 1.5);
    item.deadline = rng.uniform_int(0, 1) == 1 ? rng.uniform(1.0, 30.0) : 0.0;
    request.loads.push_back(item);
  }
  request.policy = static_cast<std::uint8_t>(rng.uniform_int(0, 1));
  request.installments = static_cast<std::uint32_t>(rng.uniform_int(1, 3));
  request.ingress_z = rng.uniform_int(0, 1) == 1 ? rng.uniform(0.0, 0.2) : 0.0;
  request.want_payments = rng.uniform_int(0, 3) == 0;
  return request;
}

/// The client-side oracle: re-solves the request locally and demands
/// bit-identical numbers in the service's answer.
void check_against_reference(const MultiScheduleRequest& request,
                             const MultiScheduleResponse& response) {
  ASSERT_EQ(response.status, ScheduleStatus::kOk) << response.error;
  const dls::net::LinearNetwork network(request.w, request.z);
  std::vector<dls::multiload::LoadSpec> specs;
  for (const MultiLoadItem& item : request.loads) {
    specs.push_back(dls::multiload::LoadSpec{item.load_id, item.size,
                                             item.release, item.deadline});
  }
  dls::multiload::MultiLoadConfig config;
  config.policy = static_cast<dls::multiload::DispatchPolicy>(request.policy);
  config.installments_per_load = request.installments;
  config.ingress_z = request.ingress_z;
  dls::multiload::MultiLoadSolver solver(network);
  const dls::multiload::MultiLoadSchedule reference =
      solver.solve(specs, config);

  ASSERT_EQ(response.loads.size(), reference.loads.size());
  EXPECT_EQ(response.makespan, reference.makespan);  // bit-exact
  EXPECT_EQ(response.serialized_makespan, reference.serialized_makespan);
  for (std::size_t i = 0; i < reference.loads.size(); ++i) {
    EXPECT_EQ(response.loads[i].load_id, reference.loads[i].spec.id);
    EXPECT_EQ(response.loads[i].start, reference.loads[i].start);
    EXPECT_EQ(response.loads[i].completion, reference.loads[i].completion);
    EXPECT_EQ(response.loads[i].deadline_met,
              reference.loads[i].deadline_met);
  }
  if (request.want_payments) {
    const dls::multiload::MultiLoadAssessment assessment =
        dls::multiload::assess_loads(network, network.processing_times(),
                                     specs, dls::core::MechanismConfig{});
    for (std::size_t i = 0; i < assessment.loads.size(); ++i) {
      EXPECT_EQ(response.loads[i].total_payment,
                assessment.loads[i].total_payment);
    }
    EXPECT_EQ(response.total_payment, assessment.total_payment);
  }
}

TEST(ServeMultiLoadSoak, ConcurrentClientsAlwaysGetReferenceAnswers) {
  const int clients = 4;
  const int per_client = 8 * soak_multiplier();
  Watchdog watchdog(120.0 * soak_multiplier());

  ServiceConfig config;
  config.queue_capacity = 256;  // admission pressure is not under test
  SchedulerService service(config);

  std::atomic<std::uint64_t> multi_ok{0};
  std::atomic<std::uint64_t> single_ok{0};
  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    workers.emplace_back([&, c] {
      SchedulerClient client(service.connect());
      Rng rng(0x50A4 + static_cast<std::uint64_t>(c) * 7919);
      for (int iter = 0; iter < per_client; ++iter) {
        const MultiScheduleRequest request = random_request(rng);
        const MultiScheduleResponse response = client.schedule_multi(request);
        check_against_reference(request, response);
        multi_ok.fetch_add(1, std::memory_order_relaxed);
        // Interleave single-load traffic on the same connection so the
        // two request kinds share every lane.
        const ScheduleResponse single =
            client.schedule(request.w, request.z);
        ASSERT_EQ(single.status, ScheduleStatus::kOk);
        const dls::net::LinearNetwork network(request.w, request.z);
        dls::dlt::LinearSolution direct;
        dls::dlt::solve_linear_boundary_into(network, direct,
                                             /*want_steps=*/false);
        EXPECT_EQ(single.alpha, direct.alpha);
        EXPECT_EQ(single.makespan, direct.makespan);
        single_ok.fetch_add(1, std::memory_order_relaxed);
      }
      client.close();
    });
  }
  for (std::thread& worker : workers) worker.join();
  service.stop();

  const std::uint64_t expected =
      static_cast<std::uint64_t>(clients) *
      static_cast<std::uint64_t>(per_client);
  EXPECT_EQ(multi_ok.load(), expected);
  EXPECT_EQ(single_ok.load(), expected);
  EXPECT_EQ(service.stats().multi_received, expected);
  EXPECT_GE(service.stats().ok, 2 * expected);
}

}  // namespace
