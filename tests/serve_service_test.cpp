// End-to-end tests for the SchedulerService over the framed transport:
// solved responses match the direct solver bit-for-bit, payments match
// the mechanism's assessment, deadlines expire queued work, a full
// admission queue sheds explicitly, malformed traffic gets typed error
// responses, and stop() answers everything still queued.
#include <gtest/gtest.h>

#include <bit>
#include <chrono>
#include <cstdint>
#include <limits>
#include <optional>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "core/dls_lbl.hpp"
#include "dlt/linear.hpp"
#include "net/networks.hpp"
#include "serve/client.hpp"
#include "serve/frame.hpp"
#include "serve/service.hpp"
#include "serve/service_wire.hpp"

namespace {

using dls::serve::Frame;
using dls::serve::FrameType;
using dls::serve::PipeEnd;
using dls::serve::ScheduleOptions;
using dls::serve::ScheduleRequest;
using dls::serve::ScheduleResponse;
using dls::serve::ScheduleStatus;
using dls::serve::SchedulerClient;
using dls::serve::SchedulerService;
using dls::serve::ServiceConfig;

const std::vector<double> kW = {1.0, 1.2, 0.9, 1.1};
const std::vector<double> kZ = {0.15, 0.1, 0.2};

/// Raw-frame helpers for tests that bypass the typed client.
void send_request(PipeEnd& end, const ScheduleRequest& request) {
  dls::serve::write_frame(end, Frame{FrameType::kScheduleRequest,
                                     encode_schedule_request(request)});
}

ScheduleResponse read_response(PipeEnd& end) {
  const std::optional<Frame> frame = dls::serve::read_frame(end);
  EXPECT_TRUE(frame.has_value()) << "connection closed without a response";
  EXPECT_EQ(frame->type, FrameType::kScheduleResponse);
  return dls::serve::decode_schedule_response(frame->payload);
}

TEST(ServeServiceTest, OkResponseMatchesDirectSolverExactly) {
  SchedulerService service(ServiceConfig{});
  SchedulerClient client(service.connect());
  const ScheduleResponse response = client.schedule(kW, kZ);
  ASSERT_EQ(response.status, ScheduleStatus::kOk);

  const dls::net::LinearNetwork network(kW, kZ);
  dls::dlt::LinearSolution direct;
  dls::dlt::solve_linear_boundary_into(network, direct,
                                       /*want_steps=*/false);
  EXPECT_EQ(response.alpha, direct.alpha);  // bit-exact doubles
  EXPECT_EQ(response.makespan, direct.makespan);
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Payments in a served answer must equal core::assess_compliant on the
/// same chain bit for bit (compared as IEEE-754 bit patterns).
void expect_payments_match(const ScheduleResponse& response,
                           const std::vector<double>& w,
                           const std::vector<double>& z) {
  ASSERT_EQ(response.status, ScheduleStatus::kOk) << response.error;
  const dls::net::LinearNetwork network(w, z);
  const dls::core::DlsLblResult direct = dls::core::assess_compliant(
      network, network.processing_times(), dls::core::MechanismConfig{});
  ASSERT_EQ(response.payments.size(), direct.processors.size());
  for (std::size_t i = 0; i < direct.processors.size(); ++i) {
    EXPECT_EQ(bits(response.payments[i]),
              bits(direct.processors[i].money.payment))
        << "Q_" << i << " of an m=" << network.workers() << " chain";
  }
  EXPECT_EQ(bits(response.total_payment), bits(direct.total_payment));
}

struct Chain {
  std::vector<double> w;
  std::vector<double> z;
};

std::vector<Chain> random_chains(std::uint64_t seed, std::size_t count,
                                 std::size_t fixed_workers = 0) {
  dls::common::Rng rng(seed);
  std::vector<Chain> chains(count);
  for (Chain& chain : chains) {
    std::size_t m = fixed_workers;
    if (m == 0) m = static_cast<std::size_t>(rng.uniform_int(1, 48));
    chain.w.resize(m + 1);
    chain.z.resize(m);
    for (auto& v : chain.w) v = rng.log_uniform(0.3, 3.0);
    for (auto& v : chain.z) v = rng.log_uniform(0.02, 0.5);
  }
  return chains;
}

TEST(ServeServiceTest, PaymentsMatchComplianceAssessment) {
  using Clock = std::chrono::steady_clock;
  ScheduleOptions options;
  options.want_payments = true;

  // The single path, one request at a time: a cold miss is solved and
  // assessed fresh, the warm repeat is assessed from the cached solution.
  {
    SchedulerService service(ServiceConfig{});
    SchedulerClient client(service.connect());
    expect_payments_match(client.schedule(kW, kZ, options), kW, kZ);
    const std::vector<Chain> chains = random_chains(11, 24);
    for (const bool warm : {false, true}) {
      for (const Chain& chain : chains) {
        const auto response = client.schedule(chain.w, chain.z, options);
        EXPECT_EQ(response.cache_hit, warm);
        expect_payments_match(response, chain.w, chain.z);
      }
    }
    EXPECT_EQ(service.stats().batched, 0u);
  }

  // The batched path: same-length misses admitted while the dispatcher
  // is held coalesce into one window and are assessed from their
  // extracted lanes; the warm window then hits the cache.
  {
    ServiceConfig config;
    config.start_paused = true;
    config.max_batch = 16;
    config.queue_capacity = 64;
    SchedulerService service(config);
    PipeEnd end = service.connect();
    const std::vector<Chain> chains = random_chains(12, 12, 20);
    std::uint64_t next_id = 1;
    for (const bool warm : {false, true}) {
      service.pause();
      for (const Chain& chain : chains) {
        ScheduleRequest request;
        request.request_id = next_id++;
        request.w = chain.w;
        request.z = chain.z;
        request.options = options;
        send_request(end, request);
      }
      // Resume only once the reader has admitted the whole window.
      const std::uint64_t want = next_id - 1;
      const auto give_up = Clock::now() + std::chrono::seconds(10);
      while (service.stats().admitted < want && Clock::now() < give_up) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      ASSERT_EQ(service.stats().admitted, want);
      service.resume();
      for (const Chain& chain : chains) {
        const ScheduleResponse response = read_response(end);
        EXPECT_EQ(response.cache_hit, warm);
        expect_payments_match(response, chain.w, chain.z);
      }
    }
    EXPECT_EQ(service.stats().batched, chains.size());
    end.close();
  }
}

TEST(ServeServiceTest, InfiniteBidIsTypedError) {
  // +inf passed `!(v > 0)`: the solver then returned a NaN makespan. It
  // is now refused at the network boundary, payments or not.
  SchedulerService service(ServiceConfig{});
  SchedulerClient client(service.connect());
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<double> w = {1.0, 1.0};
  const std::vector<double> z = {0.1};
  const std::vector<double> w_inf = {1.0, inf};
  const std::vector<double> z_inf = {inf};
  ScheduleOptions options;
  for (const bool payments : {false, true}) {
    options.want_payments = payments;
    const ScheduleResponse bid = client.schedule(w_inf, z, options);
    EXPECT_EQ(bid.status, ScheduleStatus::kError);
    EXPECT_NE(bid.error.find("finite"), std::string::npos) << bid.error;
    const ScheduleResponse link = client.schedule(w, z_inf, options);
    EXPECT_EQ(link.status, ScheduleStatus::kError);
  }
  EXPECT_EQ(service.stats().errors, 4u);
  EXPECT_EQ(service.stats().ok, 0u);
}

TEST(ServeServiceTest, QueuedRequestPastDeadlineExpires) {
  ServiceConfig config;
  config.start_paused = true;
  SchedulerService service(config);
  PipeEnd end = service.connect();

  ScheduleRequest request;
  request.request_id = 7;
  request.w = kW;
  request.z = kZ;
  request.options.deadline_us = 1000.0;  // 1 ms
  send_request(end, request);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  service.resume();

  const ScheduleResponse response = read_response(end);
  EXPECT_EQ(response.request_id, 7u);
  EXPECT_EQ(response.status, ScheduleStatus::kExpired);
  EXPECT_EQ(service.stats().expired, 1u);
}

TEST(ServeServiceTest, ServiceDefaultDeadlineApplies) {
  ServiceConfig config;
  config.start_paused = true;
  config.default_deadline_us = 1000.0;  // requests carry no deadline
  SchedulerService service(config);
  PipeEnd end = service.connect();

  ScheduleRequest request;
  request.request_id = 8;
  request.w = kW;
  request.z = kZ;
  send_request(end, request);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  service.resume();
  EXPECT_EQ(read_response(end).status, ScheduleStatus::kExpired);
}

TEST(ServeServiceTest, FullQueueShedsImmediately) {
  ServiceConfig config;
  config.start_paused = true;
  config.queue_capacity = 1;
  SchedulerService service(config);
  PipeEnd end = service.connect();

  ScheduleRequest request;
  request.w = kW;
  request.z = kZ;
  request.request_id = 1;
  send_request(end, request);  // fills the single queue slot
  request.request_id = 2;
  send_request(end, request);  // over capacity: shed at admission

  // The shed answer arrives while the dispatcher is still paused.
  const ScheduleResponse shed = read_response(end);
  EXPECT_EQ(shed.request_id, 2u);
  EXPECT_EQ(shed.status, ScheduleStatus::kShed);

  service.resume();
  const ScheduleResponse ok = read_response(end);
  EXPECT_EQ(ok.request_id, 1u);
  EXPECT_EQ(ok.status, ScheduleStatus::kOk);
  EXPECT_EQ(service.stats().shed, 1u);
}

TEST(ServeServiceTest, ClientRetriesThroughShed) {
  ServiceConfig config;
  config.start_paused = true;
  config.queue_capacity = 1;
  SchedulerService service(config);
  PipeEnd raw = service.connect();
  SchedulerClient client(service.connect());

  ScheduleRequest filler;
  filler.request_id = 1;
  filler.w = kW;
  filler.z = kZ;
  send_request(raw, filler);  // occupies the queue while paused

  std::thread resumer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    service.resume();
  });
  dls::protocol::HeartbeatConfig policy;
  policy.period = 0.01;
  policy.retry_budget = 20;
  const ScheduleResponse response =
      client.schedule_with_retry(kW, kZ, {}, policy);
  resumer.join();
  EXPECT_EQ(response.status, ScheduleStatus::kOk);
  EXPECT_GE(service.stats().shed, 1u);
}

TEST(ServeServiceTest, InfeasibleTopologyIsTypedError) {
  SchedulerService service(ServiceConfig{});
  SchedulerClient client(service.connect());
  const std::vector<double> bad_w = {1.0, -2.0};
  const std::vector<double> z = {0.1};
  const ScheduleResponse response = client.schedule(bad_w, z);
  EXPECT_EQ(response.status, ScheduleStatus::kError);
  EXPECT_FALSE(response.error.empty());
  EXPECT_EQ(service.stats().errors, 1u);
}

TEST(ServeServiceTest, WrongFrameTypeGetsErrorResponse) {
  SchedulerService service(ServiceConfig{});
  PipeEnd end = service.connect();
  dls::serve::write_frame(end, Frame{FrameType::kBid, {0x01, 0x02}});
  const ScheduleResponse response = read_response(end);
  EXPECT_EQ(response.status, ScheduleStatus::kError);
  EXPECT_NE(response.error.find("unexpected frame type"), std::string::npos);
}

TEST(ServeServiceTest, MalformedRequestPayloadGetsErrorResponse) {
  SchedulerService service(ServiceConfig{});
  PipeEnd end = service.connect();
  dls::serve::write_frame(
      end, Frame{FrameType::kScheduleRequest, {0xDE, 0xAD, 0xBE, 0xEF}});
  const ScheduleResponse response = read_response(end);
  EXPECT_EQ(response.request_id, 0u);  // id unknown: decode failed
  EXPECT_EQ(response.status, ScheduleStatus::kError);
}

TEST(ServeServiceTest, StopAnswersQueuedRequests) {
  ServiceConfig config;
  config.start_paused = true;
  SchedulerService service(config);
  PipeEnd end = service.connect();

  ScheduleRequest request;
  request.request_id = 11;
  request.w = kW;
  request.z = kZ;
  send_request(end, request);
  // Wait until admission happened so stop() finds it queued.
  while (service.stats().admitted < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  service.stop();
  const ScheduleResponse response = read_response(end);
  EXPECT_EQ(response.request_id, 11u);
  EXPECT_EQ(response.status, ScheduleStatus::kError);
  EXPECT_NE(response.error.find("stopped"), std::string::npos);
  // After the drain the connection is closed: clean EOF.
  EXPECT_FALSE(dls::serve::read_frame(end).has_value());
}

TEST(ServeServiceTest, ConnectAfterStopThrows) {
  SchedulerService service(ServiceConfig{});
  service.stop();
  EXPECT_THROW(service.connect(), dls::Error);
}

TEST(ServeServiceTest, StatsTallyResponses) {
  SchedulerService service(ServiceConfig{});
  SchedulerClient client(service.connect());
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(client.schedule(kW, kZ).status, ScheduleStatus::kOk);
  }
  const dls::serve::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.received, 3u);
  EXPECT_EQ(stats.admitted, 3u);
  EXPECT_EQ(stats.ok, 3u);
  EXPECT_EQ(stats.shed + stats.expired + stats.errors, 0u);
  // Two of the three identical requests were cache hits.
  EXPECT_EQ(service.cache().hits(), 2u);
  EXPECT_EQ(service.cache().misses(), 1u);
}

}  // namespace
