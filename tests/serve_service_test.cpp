// End-to-end tests for the SchedulerService over the framed transport:
// solved responses match the direct solver bit-for-bit, payments match
// the mechanism's assessment, deadlines expire queued work without
// blocking the rest, a full admission queue sheds explicitly and a
// brown-out degrades, malformed traffic gets typed error responses,
// stop() answers everything still queued, a warm hit answered in place
// never overtakes its connection's queued requests, answers on one
// connection keep their order, and a slow request holds up only its own
// connection.
#include <gtest/gtest.h>

#include <bit>
#include <chrono>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "core/dls_lbl.hpp"
#include "dlt/linear.hpp"
#include "exec/thread_pool.hpp"
#include "net/networks.hpp"
#include "serve/client.hpp"
#include "serve/frame.hpp"
#include "serve/service.hpp"
#include "serve/service_wire.hpp"

namespace {

using dls::serve::Frame;
using dls::serve::FrameType;
using dls::serve::PipeEnd;
using dls::serve::RobustOptions;
using dls::serve::RobustOutcome;
using dls::serve::RobustResult;
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

/// Reads one response; a positive `timeout_s` bounds the wait (throwing
/// TransportTimeout) so a failing test ends instead of hanging.
ScheduleResponse read_response(PipeEnd& end, double timeout_s = 0.0) {
  const std::optional<Frame> frame = dls::serve::read_frame(end, timeout_s);
  EXPECT_TRUE(frame.has_value()) << "connection closed without a response";
  EXPECT_EQ(frame->type, FrameType::kScheduleResponse);
  return dls::serve::decode_schedule_response(frame->payload);
}

/// A `chain`-processor request whose rates scale with `scale`, so
/// distinct scales are distinct cache keys.
ScheduleRequest make_request(std::uint64_t id, double scale,
                             std::size_t chain = 4) {
  ScheduleRequest request;
  request.request_id = id;
  for (std::size_t i = 0; i < chain; ++i) {
    request.w.push_back(scale * (1.0 + 0.1 * static_cast<double>(i % 8)));
  }
  for (std::size_t j = 0; j + 1 < chain; ++j) {
    request.z.push_back(0.1 + 0.01 * static_cast<double>(j % 8));
  }
  return request;
}

void expect_matches_direct_solve(const ScheduleResponse& response,
                                 const ScheduleRequest& request) {
  ASSERT_EQ(response.status, ScheduleStatus::kOk) << response.error;
  const dls::net::LinearNetwork network(request.w, request.z);
  dls::dlt::LinearSolution direct;
  dls::dlt::solve_linear_boundary_into(network, direct, /*want_steps=*/false);
  EXPECT_EQ(response.alpha, direct.alpha);  // bit-exact doubles
  EXPECT_EQ(response.makespan, direct.makespan);
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

  // The queued path: same-length misses admitted while the lanes are
  // held are assessed from their fresh solves once resumed; the warm
  // block then hits the cache.
  {
    ServiceConfig config;
    config.start_paused = true;
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

TEST(ServeServiceTest, ExpiredRequestDoesNotBlockOthers) {
  ServiceConfig config;
  config.start_paused = true;
  SchedulerService service(config);
  PipeEnd end = service.connect();
  std::vector<ScheduleRequest> requests;
  requests.push_back(make_request(1, 1.0));
  requests[0].options.deadline_us = 1000.0;  // expires while paused
  for (std::uint64_t id = 2; id <= 4; ++id) {
    requests.push_back(make_request(id, static_cast<double>(id)));
  }
  for (const ScheduleRequest& request : requests) send_request(end, request);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  service.resume();

  const ScheduleResponse expired = read_response(end);
  EXPECT_EQ(expired.request_id, 1u);
  EXPECT_EQ(expired.status, ScheduleStatus::kExpired);
  for (std::size_t i = 1; i < requests.size(); ++i) {
    const ScheduleResponse response = read_response(end);
    EXPECT_EQ(response.request_id, requests[i].request_id);
    expect_matches_direct_solve(response, requests[i]);
  }
  EXPECT_EQ(service.stats().expired, 1u);
  EXPECT_EQ(service.stats().ok, 3u);
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

  // The shed answer arrives while the lanes are still paused.
  const ScheduleResponse shed = read_response(end);
  EXPECT_EQ(shed.request_id, 2u);
  EXPECT_EQ(shed.status, ScheduleStatus::kShed);

  service.resume();
  const ScheduleResponse ok = read_response(end);
  EXPECT_EQ(ok.request_id, 1u);
  EXPECT_EQ(ok.status, ScheduleStatus::kOk);
  EXPECT_EQ(service.stats().shed, 1u);
}

TEST(ServeServiceTest, BrownoutDegradesAMissAboveTheWatermark) {
  ServiceConfig config;
  config.start_paused = true;
  config.brownout_watermark = 1;
  SchedulerService service(config);
  PipeEnd end = service.connect();
  send_request(end, make_request(1, 1.0));
  // The queue now holds one request, the watermark: the second (cache
  // miss) request is answered kDegraded on the reader thread.
  send_request(end, make_request(2, 2.0));
  const ScheduleResponse degraded = read_response(end);
  EXPECT_EQ(degraded.request_id, 2u);
  EXPECT_EQ(degraded.status, ScheduleStatus::kDegraded);
  EXPECT_GT(degraded.retry_after_us, 0.0);
  service.resume();
  EXPECT_EQ(read_response(end).status, ScheduleStatus::kOk);
  EXPECT_EQ(service.stats().degraded, 1u);
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
  RobustOptions robust;
  robust.policy.base_delay_s = 0.01;
  robust.policy.max_delay_s = 0.5;
  robust.policy.max_attempts = 21;
  const ScheduleResponse response =
      client.schedule_robust(kW, kZ, {}, robust).response;
  resumer.join();
  EXPECT_EQ(response.status, ScheduleStatus::kOk);
  EXPECT_GE(service.stats().shed, 1u);
}

// schedule_robust against a paused service whose one queue slot is
// taken: every attempt is shed, and each shed asks for a 0.5 s backoff.
// Returns the call's wall time.
double robust_call_against_full_queue(std::size_t max_attempts,
                                       double total_deadline_s) {
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
  send_request(raw, filler);
  while (service.stats().admitted < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  RobustOptions robust;
  robust.policy.base_delay_s = 0.5;
  robust.policy.max_delay_s = 0.5;
  robust.policy.max_attempts = max_attempts;
  robust.policy.total_deadline_s = total_deadline_s;
  const auto start = std::chrono::steady_clock::now();
  const RobustResult result = client.schedule_robust(kW, kZ, {}, robust);
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  EXPECT_EQ(result.outcome, RobustOutcome::kBudgetExhausted);
  EXPECT_EQ(result.response.status, ScheduleStatus::kShed);
  service.resume();
  return elapsed.count();
}

TEST(ServeServiceTest, RobustCallDoesNotSleepAfterItsLastAttempt) {
  EXPECT_LT(robust_call_against_full_queue(1, 0.0), 0.15);
}

TEST(ServeServiceTest, RobustCallDoesNotSleepPastItsTotalDeadline) {
  EXPECT_LT(robust_call_against_full_queue(8, 0.1), 0.15);
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

/// Requests the reader has decided on: queued, answered or refused. A
/// paused service decides nothing, so each new request moves this by
/// at least one once its reader is done with it.
std::uint64_t decided(const dls::serve::ServiceStats& stats) {
  return stats.admitted + stats.ok + stats.shed + stats.degraded +
         stats.errors + stats.expired;
}

void wait_for_decisions(const SchedulerService& service, std::uint64_t want) {
  using Clock = std::chrono::steady_clock;
  const auto give_up = Clock::now() + std::chrono::seconds(10);
  while (decided(service.stats()) < want && Clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GE(decided(service.stats()), want);
}

TEST(ServeServiceTest, PipelinedAnswersKeepWriteOrder) {
  // A pipelining client writes a miss A and then a hit B before reading:
  // B's kOk must not overtake A's, with or without brown-out. (Brown-out
  // may refuse B with kDegraded instead.)
  const std::vector<double> miss_w = {2.0, 1.5, 1.1, 0.7};
  for (const std::size_t watermark : {std::size_t{0}, std::size_t{1}}) {
    SCOPED_TRACE("brownout_watermark " + std::to_string(watermark));
    ServiceConfig config;
    config.brownout_watermark = watermark;
    SchedulerService service(config);
    SchedulerClient warm(service.connect());
    ASSERT_EQ(warm.schedule(kW, kZ).status, ScheduleStatus::kOk);
    service.pause();

    PipeEnd end = service.connect();
    ScheduleRequest a;
    a.request_id = 1;
    a.w = miss_w;
    a.z = kZ;
    ScheduleRequest b;
    b.request_id = 2;
    b.w = kW;
    b.z = kZ;
    const std::uint64_t before = decided(service.stats());
    send_request(end, a);
    wait_for_decisions(service, before + 1);
    ASSERT_EQ(service.stats().admitted, 2u);  // the warm-up and A
    send_request(end, b);
    wait_for_decisions(service, before + 2);
    service.resume();

    std::vector<std::uint64_t> ok_order;
    for (int i = 0; i < 2; ++i) {
      const ScheduleResponse response = read_response(end);
      if (response.status == ScheduleStatus::kOk) {
        ok_order.push_back(response.request_id);
      } else {
        EXPECT_EQ(response.request_id, 2u);
        EXPECT_EQ(response.status, ScheduleStatus::kDegraded);
        EXPECT_EQ(watermark, 1u);
      }
    }
    ASSERT_FALSE(ok_order.empty());
    EXPECT_EQ(ok_order.front(), 1u) << "B's kOk overtook A's";
    if (watermark == 0) {
      EXPECT_EQ(ok_order, (std::vector<std::uint64_t>{1, 2}));
    }
    end.close();
  }
}

TEST(ServeServiceTest, SlowRequestAnsweredBeforeTheFastMissBehindIt) {
  // One connection pipelines a slow request (4096 processors, payments)
  // and then a fast miss: the answers leave in the order it wrote them.
  SchedulerService service(ServiceConfig{});
  PipeEnd end = service.connect();
  ScheduleRequest slow = make_request(1, 1.0, 4096);
  slow.options.want_payments = true;
  const ScheduleRequest fast = make_request(2, 2.0);
  send_request(end, slow);
  send_request(end, fast);
  const ScheduleResponse first = read_response(end, 60.0);
  EXPECT_EQ(first.request_id, 1u);
  EXPECT_EQ(first.status, ScheduleStatus::kOk) << first.error;
  const ScheduleResponse second = read_response(end, 60.0);
  EXPECT_EQ(second.request_id, 2u);
  expect_matches_direct_solve(second, fast);
  end.close();
}

TEST(ServeServiceTest, SlowRequestHoldsUpOnlyItsOwnConnection) {
  // Posted lane tasks run only on pool workers: two lanes at once need
  // two of them.
  if (dls::exec::ThreadPool::global().worker_count() < 3) {
    GTEST_SKIP() << "needs at least two pool worker threads";
  }
  using Clock = std::chrono::steady_clock;
  ServiceConfig config;
  config.start_paused = true;
  SchedulerService service(config);
  PipeEnd slow_end = service.connect();
  PipeEnd fast_end = service.connect();
  ScheduleRequest slow = make_request(1, 1.0, std::size_t{1} << 16);
  slow.options.want_payments = true;
  const ScheduleRequest fast = make_request(2, 1.0);
  // The slow request is admitted first, so a service that answers in
  // admission order writes it before the fast one.
  const auto admit = [&](PipeEnd& end, const ScheduleRequest& request,
                         std::uint64_t want) {
    send_request(end, request);
    const auto give_up = Clock::now() + std::chrono::seconds(30);
    while (service.stats().admitted < want && Clock::now() < give_up) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_EQ(service.stats().admitted, want);
  };
  admit(slow_end, slow, 1);
  admit(fast_end, fast, 2);
  service.resume();

  expect_matches_direct_solve(read_response(fast_end, 30.0), fast);
  // A 1 ms read on the slow connection must still find nothing.
  std::optional<Frame> early;
  bool in_flight = false;
  try {
    early = dls::serve::read_frame(slow_end, 0.001);
  } catch (const dls::serve::TransportTimeout&) {
    in_flight = true;
  }
  EXPECT_TRUE(in_flight) << "the slow answer arrived with the fast one";
  const ScheduleResponse answer =
      in_flight ? read_response(slow_end, 60.0)
                : dls::serve::decode_schedule_response(early.value().payload);
  EXPECT_EQ(answer.request_id, 1u);
  EXPECT_EQ(answer.status, ScheduleStatus::kOk) << answer.error;
  slow_end.close();
  fast_end.close();
}

TEST(ServeServiceTest, WarmHitWithDeadlineWaitsForItsLane) {
  // A deadline is admission-relative and owned by the lane task, so a
  // warm hit carrying one (its own or the service default) is queued,
  // not answered in place, and expires like any other request.
  for (const bool own_deadline : {true, false}) {
    SCOPED_TRACE(own_deadline ? "own deadline" : "default deadline");
    ServiceConfig config;
    if (!own_deadline) config.default_deadline_us = 50000.0;
    SchedulerService service(config);
    SchedulerClient warm(service.connect());
    ASSERT_EQ(warm.schedule(kW, kZ).status, ScheduleStatus::kOk);
    service.pause();

    PipeEnd end = service.connect();
    ScheduleRequest request;
    request.request_id = 5;
    request.w = kW;
    request.z = kZ;
    if (own_deadline) request.options.deadline_us = 50000.0;
    send_request(end, request);
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    service.resume();
    EXPECT_EQ(read_response(end).status, ScheduleStatus::kExpired);
    EXPECT_EQ(service.stats().inline_hits, 0u);
    end.close();
  }
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
