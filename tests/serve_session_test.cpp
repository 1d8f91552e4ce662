// The per-connection discipline both serve front-ends share, checked
// against each owner in turn — a SchedulerService, and a ShardRouter
// over one shard: a poison budget of B tolerates B checksum-corrupted
// or resync-forcing frames and quarantines the connection on the next,
// finished sessions are reaped so connection churn leaves no threads or
// descriptors behind, a wrong frame type gets a typed kError while the
// connection stays up, and stop() with an idle client connected returns
// and hangs the client up.
#include <gtest/gtest.h>
#include <sys/socket.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "codec/bytes.hpp"
#include "serve/client.hpp"
#include "serve/frame.hpp"
#include "serve/pipe.hpp"
#include "serve/router.hpp"
#include "serve/service.hpp"
#include "serve/service_wire.hpp"
#include "serve/socket.hpp"

namespace {

using dls::codec::Bytes;
using dls::serve::Frame;
using dls::serve::FrameType;
using dls::serve::PipeEnd;
using dls::serve::RouterConfig;
using dls::serve::ScheduleRequest;
using dls::serve::ScheduleResponse;
using dls::serve::ScheduleStatus;
using dls::serve::SchedulerClient;
using dls::serve::SchedulerService;
using dls::serve::ServiceConfig;
using dls::serve::ShardRouter;
using dls::serve::SocketTransport;
using dls::serve::Transport;

constexpr std::size_t kPoisonBudget = 3;
constexpr double kReadTimeoutS = 10.0;

const std::vector<double> kW = {1.0, 1.2, 0.9};
const std::vector<double> kZ = {0.1, 0.2};

enum class Owner { kService, kRouter };

std::string owner_name(const testing::TestParamInfo<Owner>& info) {
  return info.param == Owner::kService ? "Service" : "Router";
}

/// The front-end under test: a service with the test's poison budget,
/// or a one-shard router with that budget in front of a default shard.
struct Front {
  std::unique_ptr<SchedulerService> service;
  std::unique_ptr<ShardRouter> router;

  explicit Front(Owner owner) {
    ServiceConfig service_config;
    if (owner == Owner::kService) service_config.poison_budget = kPoisonBudget;
    service = std::make_unique<SchedulerService>(service_config);
    if (owner == Owner::kService) return;
    RouterConfig config;
    config.shard_count = 1;
    config.poison_budget = kPoisonBudget;
    config.probe_dead_shards = false;
    SchedulerService* shard = service.get();
    config.connect = [shard](std::size_t) {
      return std::make_unique<PipeEnd>(shard->connect());
    };
    config.local = {shard};
    router = std::make_unique<ShardRouter>(config);
  }
  ~Front() {
    if (router) router->stop();
    service->stop();
  }

  PipeEnd connect() { return router ? router->connect() : service->connect(); }
  void adopt(std::unique_ptr<Transport> transport) {
    router ? router->adopt(std::move(transport))
           : service->adopt(std::move(transport));
  }
  void stop() { router ? router->stop() : service->stop(); }
};

class SessionTest : public testing::TestWithParam<Owner> {};

Bytes request_frame(std::uint64_t id) {
  ScheduleRequest request;
  request.request_id = id;
  request.w = kW;
  request.z = kZ;
  return dls::serve::encode_frame(
      Frame{FrameType::kScheduleRequest,
            dls::serve::encode_schedule_request(request)});
}

/// A request frame whose payload no longer matches its checksum: the
/// stream stays frame-aligned, the frame itself is poison.
Bytes corrupted_frame(std::uint64_t id) {
  Bytes wire = request_frame(id);
  wire[dls::serve::kFrameHeaderSize + 9] ^= 0x10;
  return wire;
}

/// Garbage ahead of a well-formed request frame: the reader must
/// resynchronise past it to find the frame.
Bytes garbled_frame(std::uint64_t id) {
  Bytes wire(9, 0);
  const Bytes frame = request_frame(id);
  wire.insert(wire.end(), frame.begin(), frame.end());
  return wire;
}

ScheduleResponse read_response(PipeEnd& end) {
  const std::optional<Frame> frame = dls::serve::read_frame(end, kReadTimeoutS);
  EXPECT_TRUE(frame.has_value()) << "connection closed without a response";
  if (!frame) return {};
  EXPECT_EQ(frame->type, FrameType::kScheduleResponse);
  return dls::serve::decode_schedule_response(frame->payload);
}

void expect_eof(PipeEnd& end) {
  EXPECT_FALSE(dls::serve::read_frame(end, kReadTimeoutS).has_value());
}

TEST_P(SessionTest, ChecksumPoisonIsToleratedUpToTheBudget) {
  Front front(GetParam());
  PipeEnd end = front.connect();
  for (std::uint64_t id = 1; id <= kPoisonBudget; ++id) {
    end.write(corrupted_frame(id));
  }
  end.write(request_frame(10));
  const ScheduleResponse answer = read_response(end);
  EXPECT_EQ(answer.status, ScheduleStatus::kOk) << answer.error;
  EXPECT_EQ(answer.request_id, 10u);

  end.write(corrupted_frame(11));  // one past the budget
  expect_eof(end);
  if (GetParam() == Owner::kService) {
    const auto stats = front.service->stats();
    EXPECT_EQ(stats.poison_frames, kPoisonBudget + 1);
    EXPECT_EQ(stats.quarantined, 1u);
  }
}

TEST_P(SessionTest, ResyncPoisonIsToleratedUpToTheBudget) {
  Front front(GetParam());
  PipeEnd end = front.connect();
  // Each tolerated resync still delivers the frame it found.
  for (std::uint64_t id = 1; id <= kPoisonBudget; ++id) {
    end.write(garbled_frame(id));
    const ScheduleResponse answer = read_response(end);
    EXPECT_EQ(answer.status, ScheduleStatus::kOk) << answer.error;
    EXPECT_EQ(answer.request_id, id);
  }
  end.write(request_frame(10));
  EXPECT_EQ(read_response(end).status, ScheduleStatus::kOk);

  end.write(garbled_frame(11));  // one past the budget
  expect_eof(end);
  if (GetParam() == Owner::kService) {
    const auto stats = front.service->stats();
    EXPECT_EQ(stats.poison_frames, kPoisonBudget + 1);
    EXPECT_EQ(stats.quarantined, 1u);
  }
}

std::size_t entries(const char* dir) {
  std::size_t count = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator(dir)) {
    ++count;
  }
  return count;
}

TEST_P(SessionTest, FinishedSessionsAreReaped) {
  Front front(GetParam());
  // Each cycle serves one connection over a socketpair. A reader thread
  // exits when its client hangs up, reaped or not; the server end's
  // descriptor is released only when its session is reaped.
  const auto cycle = [&front] {
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    front.adopt(std::make_unique<SocketTransport>(fds[0]));
    SchedulerClient client(std::make_unique<SocketTransport>(fds[1]));
    EXPECT_EQ(client.schedule(kW, kZ).status, ScheduleStatus::kOk);
    client.close();
  };
  cycle();  // warm-up: lazily started pools are not sessions
  const std::size_t threads = entries("/proc/self/task");
  const std::size_t descriptors = entries("/proc/self/fd");
  for (int i = 0; i < 64; ++i) cycle();
  EXPECT_LE(entries("/proc/self/task"), threads + 4);
  EXPECT_LE(entries("/proc/self/fd"), descriptors + 4);
}

TEST_P(SessionTest, WrongFrameTypeGetsTypedErrorAndConnectionStaysUp) {
  Front front(GetParam());
  PipeEnd end = front.connect();
  dls::serve::write_frame(end, Frame{FrameType::kBid, Bytes{1, 2, 3}});
  const ScheduleResponse refusal = read_response(end);
  EXPECT_EQ(refusal.status, ScheduleStatus::kError);
  EXPECT_NE(refusal.error.find("unexpected frame type"), std::string::npos)
      << refusal.error;

  end.write(request_frame(5));
  const ScheduleResponse answer = read_response(end);
  EXPECT_EQ(answer.status, ScheduleStatus::kOk) << answer.error;
  EXPECT_EQ(answer.request_id, 5u);
}

TEST_P(SessionTest, StopWithAnIdleClientReturnsAndHangsUp) {
  Front front(GetParam());
  PipeEnd end = front.connect();
  end.write(request_frame(1));
  EXPECT_EQ(read_response(end).status, ScheduleStatus::kOk);
  front.stop();
  expect_eof(end);
}

INSTANTIATE_TEST_SUITE_P(BothOwners, SessionTest,
                         testing::Values(Owner::kService, Owner::kRouter),
                         owner_name);

}  // namespace
