// ShardMap + ShardRouter unit coverage: consistent-hash stability (a
// death moves only the dead shard's arc), replication owner walks,
// routed solves with warm inline hits, quorum divergence surfacing as
// a typed incident, backpressure merging, and heartbeat-budget death
// detection with monitor-probe revival.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "codec/bytes.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "serve/client.hpp"
#include "serve/frame.hpp"
#include "serve/pipe.hpp"
#include "serve/router.hpp"
#include "serve/service.hpp"
#include "serve/service_wire.hpp"
#include "serve/shard.hpp"

namespace {

using dls::codec::Bytes;
using dls::serve::Frame;
using dls::serve::FrameType;
using dls::serve::PipeEnd;
using dls::serve::RouterConfig;
using dls::serve::RouterStats;
using dls::serve::ScheduleOptions;
using dls::serve::ScheduleRequest;
using dls::serve::ScheduleResponse;
using dls::serve::ScheduleStatus;
using dls::serve::SchedulerClient;
using dls::serve::SchedulerService;
using dls::serve::ServiceConfig;
using dls::serve::ShardMap;
using dls::serve::ShardRouter;
using dls::serve::Transport;
using dls::serve::TransportError;

Bytes key_of(std::uint64_t i) {
  Bytes key(8);
  for (int b = 0; b < 8; ++b) {
    key[static_cast<std::size_t>(b)] =
        static_cast<std::uint8_t>(i >> (8 * b));
  }
  return key;
}

TEST(ShardMapTest, HashIsTheDocumentedFnv1a64) {
  EXPECT_EQ(dls::serve::shard_hash({}), 14695981039346656037ull);
  const Bytes a = {0x61};  // "a"
  EXPECT_EQ(dls::serve::shard_hash(a), 0xaf63dc4c8601ec8cull);
}

TEST(ShardMapTest, HashIsWordWiseFromEightBytes) {
  // 14 bytes: one little-endian word folded in by a single FNV step,
  // then six bytewise tail steps.
  const std::string text = "dls.serve.ring";
  const Bytes data(text.begin(), text.end());
  std::uint64_t word = 0;
  for (std::size_t b = 0; b < 8; ++b) {
    word |= static_cast<std::uint64_t>(data[b]) << (8 * b);
  }
  std::uint64_t expected = (14695981039346656037ull ^ word) * 1099511628211ull;
  for (std::size_t b = 8; b < data.size(); ++b) {
    expected = (expected ^ data[b]) * 1099511628211ull;
  }
  EXPECT_EQ(expected, 0x4f0dcf11b337033eull);
  EXPECT_EQ(dls::serve::shard_hash(data), expected);
}

TEST(ShardMapTest, OwnersAreDistinctAliveAndDeterministic) {
  ShardMap map(5);
  for (std::uint64_t i = 0; i < 200; ++i) {
    const Bytes key = key_of(i);
    const auto owners = map.owners(key, 3);
    ASSERT_EQ(owners.size(), 3u);
    EXPECT_NE(owners[0], owners[1]);
    EXPECT_NE(owners[1], owners[2]);
    EXPECT_NE(owners[0], owners[2]);
    EXPECT_EQ(owners, map.owners(key, 3));  // deterministic
    EXPECT_EQ(owners[0], map.primary(key));
  }
  // Replication clamps to the alive population.
  EXPECT_EQ(map.owners(key_of(1), 99).size(), 5u);
}

TEST(ShardMapTest, DeathMovesOnlyTheDeadShardsArc) {
  ShardMap map(4);
  constexpr std::uint64_t kKeys = 2000;
  std::vector<std::size_t> before(kKeys);
  for (std::uint64_t i = 0; i < kKeys; ++i) {
    before[i] = map.primary(key_of(i));
  }
  EXPECT_TRUE(map.set_alive(2, false));
  EXPECT_FALSE(map.set_alive(2, false));  // no edge: already dead
  std::size_t moved = 0;
  for (std::uint64_t i = 0; i < kKeys; ++i) {
    const std::size_t now = map.primary(key_of(i));
    EXPECT_NE(now, 2u);
    if (before[i] == 2) {
      ++moved;
    } else {
      // The consistent-hash guarantee: keys not owned by the dead
      // shard keep their primary exactly.
      EXPECT_EQ(now, before[i]) << "key " << i;
    }
  }
  EXPECT_GT(moved, 0u);
  // Revival restores the original assignment bit for bit.
  EXPECT_TRUE(map.set_alive(2, true));
  for (std::uint64_t i = 0; i < kKeys; ++i) {
    EXPECT_EQ(map.primary(key_of(i)), before[i]);
  }
}

TEST(ShardMapTest, AllDeadMeansNoOwners) {
  ShardMap map(2);
  map.set_alive(0, false);
  map.set_alive(1, false);
  EXPECT_TRUE(map.owners(key_of(7), 2).empty());
  EXPECT_EQ(map.primary(key_of(7)), map.shard_count());
}

/// An in-process federation: N real shard services behind one router.
struct Federation {
  std::vector<std::unique_ptr<SchedulerService>> shards;
  std::unique_ptr<ShardRouter> router;

  explicit Federation(std::size_t n, RouterConfig config = RouterConfig{},
                      ServiceConfig shard_config = ServiceConfig{}) {
    for (std::size_t i = 0; i < n; ++i) {
      shards.push_back(std::make_unique<SchedulerService>(shard_config));
    }
    config.shard_count = n;
    auto* backing = &shards;
    config.connect = [backing](std::size_t shard) {
      return std::make_unique<PipeEnd>((*backing)[shard]->connect());
    };
    if (config.local.empty()) {
      for (auto& shard : shards) config.local.push_back(shard.get());
    }
    router = std::make_unique<ShardRouter>(config);
  }
  ~Federation() {
    router->stop();
    for (auto& shard : shards) shard->stop();
  }
};

TEST(ShardRouterTest, RoutesSolvesAndServesWarmHitsInline) {
  Federation fed(3);
  SchedulerClient client(fed.router->connect());
  const std::vector<double> w = {1.0, 1.2, 0.9, 1.1};
  const std::vector<double> z = {0.15, 0.1, 0.2};

  const auto cold = client.schedule(w, z);
  ASSERT_EQ(cold.status, ScheduleStatus::kOk);
  const auto warm = client.schedule(w, z);
  ASSERT_EQ(warm.status, ScheduleStatus::kOk);
  EXPECT_TRUE(warm.cache_hit);
  EXPECT_EQ(cold.alpha, warm.alpha);
  EXPECT_EQ(cold.makespan, warm.makespan);

  ScheduleOptions pay;
  pay.want_payments = true;
  const auto paid = client.schedule(w, z, pay);
  ASSERT_EQ(paid.status, ScheduleStatus::kOk);
  EXPECT_FALSE(paid.payments.empty());

  const RouterStats stats = fed.router->stats();
  EXPECT_EQ(stats.received, 3u);
  EXPECT_EQ(stats.answered_ok, 3u);
  EXPECT_EQ(stats.inline_hits, 1u);  // the warm payment-free hit
  // Exactly one shard saw the key; the others stayed cold.
  std::uint64_t shard_received = 0;
  for (const auto& shard : fed.shards) {
    shard_received += shard->stats().received;
  }
  EXPECT_EQ(shard_received, 2u);  // cold solve + payments; warm was inline
  client.close();
}

TEST(ShardRouterTest, ReplicationCrossChecksAndAgrees) {
  RouterConfig config;
  config.replication = 2;
  Federation fed(3, config);
  SchedulerClient client(fed.router->connect());
  const std::vector<double> w = {1.0, 0.8, 1.3};
  const std::vector<double> z = {0.2, 0.1};
  const auto answer = client.schedule(w, z);
  ASSERT_EQ(answer.status, ScheduleStatus::kOk);
  const RouterStats stats = fed.router->stats();
  EXPECT_EQ(stats.quorum_checked, 1u);
  EXPECT_EQ(stats.quorum_agreed, 1u);
  EXPECT_EQ(stats.quorum_divergence, 0u);
  EXPECT_EQ(stats.forwarded, 2u);
  client.close();
}

/// A scripted shard: answers every schedule request with a fixed kOk
/// solution (or any response the mutator builds), over a Pipe.
class FakeShard {
 public:
  using Responder = std::function<ScheduleResponse(const ScheduleRequest&)>;

  explicit FakeShard(Responder responder)
      : responder_(std::move(responder)) {}
  ~FakeShard() {
    for (auto& end : ends_) end->close();
    for (auto& thread : threads_) thread.join();
  }

  std::unique_ptr<Transport> connect() {
    dls::serve::Pipe pipe = dls::serve::make_pipe();
    auto server = std::make_unique<PipeEnd>(std::move(pipe.a));
    PipeEnd* raw = server.get();
    ends_.push_back(std::move(server));
    threads_.emplace_back([this, raw] { serve(raw); });
    return std::make_unique<PipeEnd>(std::move(pipe.b));
  }

 private:
  void serve(PipeEnd* end) {
    try {
      for (;;) {
        const auto frame = dls::serve::read_frame(*end);
        if (!frame) return;
        const ScheduleRequest request =
            dls::serve::decode_schedule_request(frame->payload);
        ScheduleResponse response = responder_(request);
        response.request_id = request.request_id;
        Frame reply;
        reply.type = FrameType::kScheduleResponse;
        reply.payload = dls::serve::encode_schedule_response(response);
        dls::serve::write_frame(*end, reply);
      }
    } catch (const dls::Error&) {
      // Torn down mid-read at destruction; nothing to do.
    }
  }

  Responder responder_;
  std::vector<std::unique_ptr<PipeEnd>> ends_;
  std::vector<std::thread> threads_;
};

ScheduleResponse ok_response(double makespan) {
  ScheduleResponse response;
  response.status = ScheduleStatus::kOk;
  response.alpha = {0.6, 0.4};
  response.makespan = makespan;
  return response;
}

TEST(ShardRouterTest, WirePatchesTouchOnlyThePerHopFields) {
  ScheduleRequest request;
  request.request_id = 5;
  request.w = {1.0, 1.5, 0.75};
  request.z = {0.1, 0.2};
  request.options.want_payments = true;
  Bytes payload = dls::serve::encode_schedule_request(request);
  dls::serve::patch_schedule_request_id(payload, 9);
  request.request_id = 9;
  EXPECT_EQ(payload, dls::serve::encode_schedule_request(request));

  ScheduleResponse response = ok_response(1.25);
  response.request_id = 7;
  response.cache_hit = true;
  response.payments = {0.5, 0.25, 0.125};
  Bytes encoded = dls::serve::encode_schedule_response(response);
  dls::serve::normalize_schedule_response(encoded);
  response.request_id = 0;
  response.cache_hit = false;
  EXPECT_EQ(encoded, dls::serve::encode_schedule_response(response));

  Bytes stub(4, 0);
  EXPECT_THROW(dls::serve::patch_schedule_request_id(stub, 1),
               dls::codec::DecodeError);
  EXPECT_THROW(dls::serve::normalize_schedule_response(stub),
               dls::codec::DecodeError);
}

/// Routes one request through an R=2 router over two scripted shards
/// and returns the merged answer plus the router's stats.
std::pair<ScheduleResponse, RouterStats> quorum_of(
    std::function<ScheduleResponse(const ScheduleRequest&)> first,
    std::function<ScheduleResponse(const ScheduleRequest&)> second) {
  std::vector<std::unique_ptr<FakeShard>> fakes;
  fakes.push_back(std::make_unique<FakeShard>(std::move(first)));
  fakes.push_back(std::make_unique<FakeShard>(std::move(second)));

  RouterConfig config;
  config.shard_count = 2;
  config.replication = 2;
  config.probe_dead_shards = false;
  auto* backing = &fakes;
  config.connect = [backing](std::size_t shard) {
    return (*backing)[shard]->connect();
  };
  ShardRouter router(config);
  SchedulerClient client(router.connect());

  const std::vector<double> w = {1.0, 1.0};
  const std::vector<double> z = {0.1};
  const ScheduleResponse answer = client.schedule(w, z);
  const RouterStats stats = router.stats();
  client.close();
  router.stop();
  return {answer, stats};
}

TEST(ShardRouterTest, QuorumDivergenceIsATypedIncidentNeverAnAnswer) {
  // Two scripted shards disagree on the makespan — by 1e-9, and by a
  // single ulp: the router must refuse with a typed kError, count the
  // divergence, and never pick one of the conflicting answers.
  for (const double other : {1.0 + 1e-9, std::nextafter(1.0, 2.0)}) {
    const auto [answer, stats] = quorum_of(
        [](const ScheduleRequest&) { return ok_response(1.0); },
        [other](const ScheduleRequest&) { return ok_response(other); });
    EXPECT_EQ(answer.status, ScheduleStatus::kError) << other;
    EXPECT_NE(answer.error.find("divergence"), std::string::npos);
    EXPECT_EQ(stats.quorum_divergence, 1u);
    EXPECT_EQ(stats.answered_ok, 0u);
  }
}

TEST(ShardRouterTest, QuorumIgnoresOnlyThePerHopFields) {
  // Replicas answering under different ids and cache states agree: the
  // echoed request id and the cache-hit flag are zeroed before the
  // byte compare, and nothing else is.
  const auto [answer, stats] = quorum_of(
      [](const ScheduleRequest&) {
        ScheduleResponse response = ok_response(1.0);
        response.cache_hit = true;
        return response;
      },
      [](const ScheduleRequest&) { return ok_response(1.0); });
  EXPECT_EQ(answer.status, ScheduleStatus::kOk);
  EXPECT_EQ(answer.makespan, 1.0);
  EXPECT_EQ(stats.quorum_agreed, 1u);
  EXPECT_EQ(stats.quorum_divergence, 0u);
}

TEST(ShardRouterTest, BackpressureMergeTakesTheLargestRetryAfter) {
  std::vector<std::unique_ptr<FakeShard>> fakes;
  for (const double hint : {500.0, 9000.0}) {
    fakes.push_back(
        std::make_unique<FakeShard>([hint](const ScheduleRequest&) {
          ScheduleResponse response;
          response.status = ScheduleStatus::kDegraded;
          response.retry_after_us = hint;
          return response;
        }));
  }
  RouterConfig config;
  config.shard_count = 2;
  config.replication = 2;
  config.probe_dead_shards = false;
  auto* backing = &fakes;
  config.connect = [backing](std::size_t shard) {
    return (*backing)[shard]->connect();
  };
  ShardRouter router(config);

  // Drive the frame exchange by hand: schedule() would retry nothing,
  // but we want the raw merged refusal.
  PipeEnd end = router.connect();
  ScheduleRequest request;
  request.request_id = 77;
  request.w = {1.0, 1.0};
  request.z = {0.1};
  Frame frame;
  frame.type = FrameType::kScheduleRequest;
  frame.payload = dls::serve::encode_schedule_request(request);
  dls::serve::write_frame(end, frame);
  const auto reply = dls::serve::read_frame(end);
  ASSERT_TRUE(reply.has_value());
  const ScheduleResponse merged =
      dls::serve::decode_schedule_response(reply->payload);
  EXPECT_EQ(merged.status, ScheduleStatus::kDegraded);
  EXPECT_EQ(merged.retry_after_us, 9000.0);
  EXPECT_EQ(merged.request_id, 77u);
  end.close();
  router.stop();
}

TEST(ShardRouterTest, HeartbeatBudgetDeathThenMonitorRevival) {
  auto service = std::make_unique<SchedulerService>(ServiceConfig{});
  std::atomic<bool> reachable{true};

  RouterConfig config;
  config.shard_count = 1;
  config.heartbeat.retry_budget = 2;
  config.heartbeat.period = 0.005;  // fast probes for the test
  config.heartbeat.max_backoff = 0.02;
  config.forward_timeout_s = 0.5;
  config.connect = [&](std::size_t) -> std::unique_ptr<Transport> {
    if (!reachable.load()) throw TransportError("shard unreachable");
    return std::make_unique<PipeEnd>(service->connect());
  };
  ShardRouter router(config);
  SchedulerClient client(router.connect());

  const std::vector<double> w = {1.0, 1.1};
  const std::vector<double> z = {0.1};
  ASSERT_EQ(client.schedule(w, z).status, ScheduleStatus::kOk);

  // Cut the shard off. The live backend link dies with the service;
  // the next requests burn the retry budget and confirm death.
  reachable.store(false);
  service->stop();
  ScheduleResponse refusal;
  for (int i = 0; i < 4; ++i) {
    refusal = client.schedule(w, z);
    if (router.stats().shard_deaths > 0) break;
  }
  EXPECT_NE(refusal.status, ScheduleStatus::kOk);
  RouterStats stats = router.stats();
  EXPECT_GE(stats.shard_deaths, 1u);
  EXPECT_GE(stats.rebalances, 1u);
  EXPECT_FALSE(router.alive()[0]);

  // Bring the shard back; the monitor's backoff probes must revive it.
  service = std::make_unique<SchedulerService>(ServiceConfig{});
  reachable.store(true);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!router.alive()[0] &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_TRUE(router.alive()[0]);
  stats = router.stats();
  EXPECT_GE(stats.shard_revivals, 1u);
  EXPECT_GE(stats.rebalances, 2u);
  EXPECT_EQ(client.schedule(w, z).status, ScheduleStatus::kOk);

  client.close();
  router.stop();
  service->stop();
}

}  // namespace
