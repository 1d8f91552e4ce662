// End-to-end tests for multi-load scheduling through the service: kOk
// answers match MultiLoadSolver bit-for-bit, per-load payments match
// assess_loads, mixed single-/multi-load traffic shares one FIFO
// admission queue (responses per connection arrive in admission order,
// and single-load responses stay byte-identical with multi traffic
// interleaved), deadline-expired multi requests take no installment,
// a full queue sheds, brown-out degrades with a retry hint, and stop()
// answers every queued multi-load request.
#include <gtest/gtest.h>

#include <chrono>
#include <limits>
#include <optional>
#include <thread>
#include <vector>

#include "dlt/linear.hpp"
#include "multiload/payments.hpp"
#include "multiload/solver.hpp"
#include "net/networks.hpp"
#include "serve/client.hpp"
#include "serve/frame.hpp"
#include "serve/multiload_wire.hpp"
#include "serve/service.hpp"
#include "serve/service_wire.hpp"

namespace {

using dls::serve::Frame;
using dls::serve::FrameType;
using dls::serve::MultiLoadItem;
using dls::serve::MultiScheduleRequest;
using dls::serve::MultiScheduleResponse;
using dls::serve::PipeEnd;
using dls::serve::ScheduleRequest;
using dls::serve::ScheduleResponse;
using dls::serve::ScheduleStatus;
using dls::serve::SchedulerClient;
using dls::serve::SchedulerService;
using dls::serve::ServiceConfig;
using dls::serve::ServiceStats;

const std::vector<double> kW = {1.0, 1.2, 0.9, 1.1};
const std::vector<double> kZ = {0.15, 0.1, 0.2};

MultiScheduleRequest make_multi(std::uint64_t request_id = 0) {
  MultiScheduleRequest request;
  request.request_id = request_id;
  request.w = kW;
  request.z = kZ;
  request.loads = {MultiLoadItem{1, 1.0, 0.0, 0.0},
                   MultiLoadItem{2, 2.0, 0.5, 0.0},
                   MultiLoadItem{3, 0.5, 1.0, 0.0}};
  request.installments = 2;
  request.ingress_z = 0.1;
  return request;
}

std::vector<dls::multiload::LoadSpec> specs_of(
    const MultiScheduleRequest& request) {
  std::vector<dls::multiload::LoadSpec> specs;
  for (const MultiLoadItem& item : request.loads) {
    specs.push_back(dls::multiload::LoadSpec{item.load_id, item.size,
                                             item.release, item.deadline});
  }
  return specs;
}

dls::multiload::MultiLoadConfig config_of(const MultiScheduleRequest& request) {
  dls::multiload::MultiLoadConfig config;
  config.policy =
      static_cast<dls::multiload::DispatchPolicy>(request.policy);
  config.installments_per_load = request.installments;
  config.ingress_z = request.ingress_z;
  return config;
}

void send_multi(PipeEnd& end, const MultiScheduleRequest& request) {
  dls::serve::write_frame(end,
                          Frame{FrameType::kMultiScheduleRequest,
                                encode_multi_schedule_request(request)});
}

MultiScheduleResponse read_multi(PipeEnd& end) {
  const std::optional<Frame> frame = dls::serve::read_frame(end);
  EXPECT_TRUE(frame.has_value()) << "connection closed without a response";
  EXPECT_EQ(frame->type, FrameType::kMultiScheduleResponse);
  return dls::serve::decode_multi_schedule_response(frame->payload);
}

TEST(ServeMultiLoadTest, OkResponseMatchesDirectSolverExactly) {
  SchedulerService service(ServiceConfig{});
  SchedulerClient client(service.connect());
  const MultiScheduleRequest request = make_multi();
  const MultiScheduleResponse response = client.schedule_multi(request);
  ASSERT_EQ(response.status, ScheduleStatus::kOk);

  const dls::net::LinearNetwork network(kW, kZ);
  dls::multiload::MultiLoadSolver solver(network);
  const dls::multiload::MultiLoadSchedule direct =
      solver.solve(specs_of(request), config_of(request));
  EXPECT_EQ(response.makespan, direct.makespan);  // bit-exact doubles
  EXPECT_EQ(response.serialized_makespan, direct.serialized_makespan);
  ASSERT_EQ(response.loads.size(), direct.loads.size());
  for (std::size_t i = 0; i < direct.loads.size(); ++i) {
    EXPECT_EQ(response.loads[i].load_id, direct.loads[i].spec.id);
    EXPECT_EQ(response.loads[i].start, direct.loads[i].start);
    EXPECT_EQ(response.loads[i].completion, direct.loads[i].completion);
    EXPECT_EQ(response.loads[i].deadline_met, direct.loads[i].deadline_met);
  }
}

TEST(ServeMultiLoadTest, PaymentsMatchAssessLoads) {
  SchedulerService service(ServiceConfig{});
  SchedulerClient client(service.connect());
  MultiScheduleRequest request = make_multi();
  request.want_payments = true;
  const MultiScheduleResponse response = client.schedule_multi(request);
  ASSERT_EQ(response.status, ScheduleStatus::kOk);

  const dls::net::LinearNetwork network(kW, kZ);
  const dls::multiload::MultiLoadAssessment direct =
      dls::multiload::assess_loads(network, network.processing_times(),
                                   specs_of(request),
                                   dls::core::MechanismConfig{});
  ASSERT_EQ(response.loads.size(), direct.loads.size());
  for (std::size_t i = 0; i < direct.loads.size(); ++i) {
    EXPECT_EQ(response.loads[i].total_payment, direct.loads[i].total_payment);
  }
  EXPECT_EQ(response.total_payment, direct.total_payment);
}

TEST(ServeMultiLoadTest, MixedTrafficAnsweredInAdmissionOrder) {
  ServiceConfig config;
  config.start_paused = true;
  SchedulerService service(config);
  PipeEnd end = service.connect();

  // single, multi, single — one connection, admitted FIFO while the
  // lanes are held, answered in exactly that order on resume.
  ScheduleRequest first;
  first.request_id = 1;
  first.w = kW;
  first.z = kZ;
  dls::serve::write_frame(
      end, Frame{FrameType::kScheduleRequest, encode_schedule_request(first)});
  send_multi(end, make_multi(2));
  ScheduleRequest third = first;
  third.request_id = 3;
  dls::serve::write_frame(
      end, Frame{FrameType::kScheduleRequest, encode_schedule_request(third)});

  // Wait for all three to be admitted before releasing the lanes, so
  // they are queued together deterministically.
  while (service.stats().admitted < 3) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  service.resume();

  const std::optional<Frame> f1 = dls::serve::read_frame(end);
  ASSERT_TRUE(f1.has_value());
  EXPECT_EQ(f1->type, FrameType::kScheduleResponse);
  const ScheduleResponse r1 = dls::serve::decode_schedule_response(f1->payload);
  EXPECT_EQ(r1.request_id, 1u);
  EXPECT_EQ(r1.status, ScheduleStatus::kOk);

  const std::optional<Frame> f2 = dls::serve::read_frame(end);
  ASSERT_TRUE(f2.has_value());
  EXPECT_EQ(f2->type, FrameType::kMultiScheduleResponse);
  const MultiScheduleResponse r2 =
      dls::serve::decode_multi_schedule_response(f2->payload);
  EXPECT_EQ(r2.request_id, 2u);
  EXPECT_EQ(r2.status, ScheduleStatus::kOk);

  const std::optional<Frame> f3 = dls::serve::read_frame(end);
  ASSERT_TRUE(f3.has_value());
  EXPECT_EQ(f3->type, FrameType::kScheduleResponse);
  const ScheduleResponse r3 = dls::serve::decode_schedule_response(f3->payload);
  EXPECT_EQ(r3.request_id, 3u);
  EXPECT_EQ(r3.status, ScheduleStatus::kOk);

  // The single-load answers are byte-identical to a service that never
  // saw multi traffic: reconstruct the expected response from a direct
  // solve and compare encodings.
  const dls::net::LinearNetwork network(kW, kZ);
  dls::dlt::LinearSolution direct;
  dls::dlt::solve_linear_boundary_into(network, direct, /*want_steps=*/false);
  ScheduleResponse expected;
  expected.request_id = 1;
  expected.status = ScheduleStatus::kOk;
  expected.cache_hit = false;
  expected.alpha = direct.alpha;
  expected.makespan = direct.makespan;
  EXPECT_EQ(f1->payload, dls::serve::encode_schedule_response(expected));
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.multi_received, 1u);
  EXPECT_EQ(stats.multi_loads, 3u);
  EXPECT_EQ(stats.ok, 3u);
}

TEST(ServeMultiLoadTest, QueuedMultiPastDeadlineExpiresWithNoInstallment) {
  ServiceConfig config;
  config.start_paused = true;
  SchedulerService service(config);
  PipeEnd end = service.connect();

  MultiScheduleRequest request = make_multi(7);
  request.deadline_us = 1000.0;  // 1 ms
  send_multi(end, request);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  service.resume();

  const MultiScheduleResponse response = read_multi(end);
  EXPECT_EQ(response.request_id, 7u);
  EXPECT_EQ(response.status, ScheduleStatus::kExpired);
  EXPECT_TRUE(response.loads.empty());  // not a single installment placed
  EXPECT_EQ(response.makespan, 0.0);
  EXPECT_EQ(service.stats().expired, 1u);
  EXPECT_EQ(service.stats().multi_loads, 0u);
}

TEST(ServeMultiLoadTest, FullQueueShedsMultiImmediately) {
  ServiceConfig config;
  config.start_paused = true;
  config.queue_capacity = 1;
  SchedulerService service(config);
  PipeEnd end = service.connect();

  send_multi(end, make_multi(1));  // occupies the whole queue
  while (service.stats().admitted < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  send_multi(end, make_multi(2));

  const MultiScheduleResponse shed = read_multi(end);
  EXPECT_EQ(shed.request_id, 2u);
  EXPECT_EQ(shed.status, ScheduleStatus::kShed);
  service.resume();
  EXPECT_EQ(read_multi(end).status, ScheduleStatus::kOk);
}

TEST(ServeMultiLoadTest, BrownoutDegradesMultiWithRetryHint) {
  ServiceConfig config;
  config.start_paused = true;
  config.brownout_watermark = 1;
  config.degraded_retry_after_us = 2500.0;
  SchedulerService service(config);
  PipeEnd end = service.connect();

  send_multi(end, make_multi(1));  // fills the queue to the watermark
  while (service.stats().admitted < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  send_multi(end, make_multi(2));

  const MultiScheduleResponse degraded = read_multi(end);
  EXPECT_EQ(degraded.request_id, 2u);
  EXPECT_EQ(degraded.status, ScheduleStatus::kDegraded);
  EXPECT_EQ(degraded.retry_after_us, 2500.0);
  service.resume();
  EXPECT_EQ(read_multi(end).status, ScheduleStatus::kOk);
}

TEST(ServeMultiLoadTest, StopAnswersEveryQueuedMulti) {
  ServiceConfig config;
  config.start_paused = true;
  SchedulerService service(config);
  PipeEnd end = service.connect();

  for (std::uint64_t id = 1; id <= 3; ++id) send_multi(end, make_multi(id));
  while (service.stats().admitted < 3) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  service.stop();

  for (std::uint64_t id = 1; id <= 3; ++id) {
    const MultiScheduleResponse response = read_multi(end);
    EXPECT_EQ(response.request_id, id);
    EXPECT_EQ(response.status, ScheduleStatus::kError);
  }
  EXPECT_EQ(service.stats().errors, 3u);
}

TEST(ServeMultiLoadTest, PauseResumeStaysDeterministic) {
  ServiceConfig config;
  config.start_paused = true;
  SchedulerService service(config);
  PipeEnd end = service.connect();

  // Two pause/resume rounds of interleaved traffic: order within each
  // round is admission order.
  for (int round = 0; round < 2; ++round) {
    const std::uint64_t base = static_cast<std::uint64_t>(round) * 10;
    send_multi(end, make_multi(base + 1));
    ScheduleRequest single;
    single.request_id = base + 2;
    single.w = kW;
    single.z = kZ;
    dls::serve::write_frame(end, Frame{FrameType::kScheduleRequest,
                                       encode_schedule_request(single)});
    while (service.stats().admitted < static_cast<std::uint64_t>(
                                          (round + 1) * 2)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    service.resume();

    const MultiScheduleResponse first = read_multi(end);
    EXPECT_EQ(first.request_id, base + 1);
    EXPECT_EQ(first.status, ScheduleStatus::kOk);
    const std::optional<Frame> frame = dls::serve::read_frame(end);
    ASSERT_TRUE(frame.has_value());
    ASSERT_EQ(frame->type, FrameType::kScheduleResponse);
    const ScheduleResponse second =
        dls::serve::decode_schedule_response(frame->payload);
    EXPECT_EQ(second.request_id, base + 2);
    EXPECT_EQ(second.status, ScheduleStatus::kOk);
    service.pause();
  }
}

TEST(ServeMultiLoadTest, MalformedMultiRequestGetsTypedError) {
  SchedulerService service(ServiceConfig{});
  PipeEnd end = service.connect();
  // A frame whose type promises a multi request but whose payload is a
  // single-load request: the payload magic check refuses it.
  ScheduleRequest single;
  single.request_id = 9;
  single.w = kW;
  single.z = kZ;
  dls::serve::write_frame(end, Frame{FrameType::kMultiScheduleRequest,
                                     encode_schedule_request(single)});
  const MultiScheduleResponse response = read_multi(end);
  EXPECT_EQ(response.status, ScheduleStatus::kError);
  EXPECT_FALSE(response.error.empty());
}

TEST(ServeMultiLoadTest, HostileFramesAreRefusedAndTheServiceSurvives) {
  SchedulerService service(ServiceConfig{});
  PipeEnd end = service.connect();

  // installments=2^32-1 would demand ~10^10 installment objects from
  // the solver; the decoder's cap refuses it before any allocation.
  MultiScheduleRequest hostile = make_multi(77);
  hostile.installments = 0xFFFFFFFFu;
  send_multi(end, hostile);
  const MultiScheduleResponse capped = read_multi(end);
  EXPECT_EQ(capped.status, ScheduleStatus::kError);
  EXPECT_FALSE(capped.error.empty());

  // Non-finite load fields are refused at decode too, never reaching
  // the solver as garbage timestamps.
  MultiScheduleRequest poisoned = make_multi(78);
  poisoned.loads[0].size = std::numeric_limits<double>::quiet_NaN();
  send_multi(end, poisoned);
  const MultiScheduleResponse refused = read_multi(end);
  EXPECT_EQ(refused.status, ScheduleStatus::kError);
  EXPECT_FALSE(refused.error.empty());

  // The session and its lane are both still alive: a well-formed
  // request on the same connection is answered normally.
  send_multi(end, make_multi(79));
  const MultiScheduleResponse ok = read_multi(end);
  EXPECT_EQ(ok.request_id, 79u);
  EXPECT_EQ(ok.status, ScheduleStatus::kOk);
}

TEST(ServeMultiLoadTest, InfeasibleLoadIsATypedError) {
  SchedulerService service(ServiceConfig{});
  SchedulerClient client(service.connect());
  MultiScheduleRequest request = make_multi();
  request.loads[1].size = -1.0;  // decodes fine, fails in the solver
  const MultiScheduleResponse response = client.schedule_multi(request);
  EXPECT_EQ(response.status, ScheduleStatus::kError);
  EXPECT_FALSE(response.error.empty());
}

}  // namespace
