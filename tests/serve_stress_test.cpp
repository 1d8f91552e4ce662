// Concurrency stress for the scheduling service, designed to run under
// TSan: many clients hammer one service through the framed transport
// while the admission queue sheds, deadlines expire and the cache
// churns. Every request must get exactly one well-typed response and
// solved answers must stay bit-identical per topology. DLS_SERVE_SOAK
// scales the request volume up for the CI soak job.
#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "codec/bytes.hpp"
#include "common/rng.hpp"
#include "serve/client.hpp"
#include "serve/service.hpp"

namespace {

using dls::serve::ScheduleOptions;
using dls::serve::ScheduleResponse;
using dls::serve::ScheduleStatus;
using dls::serve::SchedulerClient;
using dls::serve::SchedulerService;
using dls::serve::ServiceConfig;

/// Requests per client: `plain` when DLS_SERVE_SOAK is unset, else
/// `per_level` times its value. Each case sizes `per_level` so that the
/// serve-soak job (DLS_SERVE_SOAK=10, TSan) keeps it under load for
/// several seconds, while a plain run stays well under one.
int soak_volume(int plain, int per_level) {
  const char* raw = std::getenv("DLS_SERVE_SOAK");
  const int level = raw == nullptr ? 0 : std::atoi(raw);
  return level >= 1 ? per_level * level : plain;
}

struct Topology {
  std::vector<double> w;
  std::vector<double> z;
};

std::vector<Topology> random_topologies(std::size_t count,
                                        std::uint64_t seed) {
  dls::common::Rng rng(seed);
  std::vector<Topology> out(count);
  for (Topology& topo : out) {
    const std::size_t n = static_cast<std::size_t>(rng.uniform_int(2, 10));
    topo.w.resize(n);
    topo.z.resize(n - 1);
    for (double& x : topo.w) x = rng.uniform(0.2, 3.0);
    for (double& x : topo.z) x = rng.uniform(0.01, 0.5);
  }
  return out;
}

TEST(ServeStressTest, ConcurrentClientsConvergeBitIdentically) {
  const int requests_per_client = soak_volume(20, 800);
  constexpr std::size_t kClients = 8;
  const std::vector<Topology> topos = random_topologies(5, 20260806);

  ServiceConfig config;
  config.queue_capacity = 4;  // small enough that shedding really happens
  config.cache_capacity = 3;  // smaller than the topology set: eviction
  SchedulerService service(config);

  dls::serve::RetryPolicy policy;
  policy.base_delay_s = 0.001;
  policy.backoff_factor = 1.5;
  policy.max_delay_s = 0.02;
  policy.max_attempts = 401;

  // One answer vector per topology per client; merged and cross-checked
  // after the fact. A slot left empty means a lost response.
  std::vector<std::map<std::size_t, dls::codec::Bytes>> seen(kClients);
  std::vector<std::uint64_t> ok_count(kClients, 0);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      SchedulerClient client(service.connect());
      dls::serve::RobustOptions robust;
      robust.policy = policy;
      robust.seed = c + 1;
      for (int i = 0; i < requests_per_client; ++i) {
        const Topology& topo = topos[(c + static_cast<std::size_t>(i)) %
                                     topos.size()];
        ScheduleResponse response =
            client.schedule_robust(topo.w, topo.z, ScheduleOptions{}, robust)
                .response;
        if (response.status != ScheduleStatus::kOk) continue;
        ++ok_count[c];
        response.request_id = 0;
        response.cache_hit = false;
        const std::size_t t = (c + static_cast<std::size_t>(i)) %
                              topos.size();
        seen[c].emplace(t, encode_schedule_response(response));
      }
      client.close();
    });
  }
  for (std::thread& t : clients) t.join();

  // Every client solved every topology at least once, and all agree on
  // the bytes — cache hits, evictions and re-solves included.
  std::map<std::size_t, dls::codec::Bytes> truth;
  std::uint64_t total_ok = 0;
  for (std::size_t c = 0; c < kClients; ++c) {
    total_ok += ok_count[c];
    EXPECT_EQ(seen[c].size(), topos.size()) << "client " << c;
    for (const auto& [t, body] : seen[c]) {
      const auto [it, inserted] = truth.emplace(t, body);
      if (!inserted) {
        EXPECT_EQ(body, it->second)
            << "client " << c << " topology " << t << " diverged";
      }
    }
  }
  // The retry budget is generous; virtually everything lands. The shed
  // path still fires (observable in stats) without costing answers.
  EXPECT_EQ(total_ok, kClients * static_cast<std::uint64_t>(
                                     requests_per_client));
  EXPECT_EQ(service.stats().ok, total_ok);
  service.stop();
}

TEST(ServeStressTest, MixedDeadlinesNeverWedgeTheService) {
  const int requests_per_client = soak_volume(15, 1600);
  constexpr std::size_t kClients = 6;
  const std::vector<Topology> topos = random_topologies(4, 7);

  ServiceConfig config;
  config.queue_capacity = 3;
  config.cache_capacity = 8;
  SchedulerService service(config);

  std::vector<std::uint64_t> answered(kClients, 0);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      SchedulerClient client(service.connect());
      for (int i = 0; i < requests_per_client; ++i) {
        const Topology& topo = topos[static_cast<std::size_t>(i) %
                                     topos.size()];
        ScheduleOptions options;
        // A third of the traffic carries a 1 µs deadline — dead on
        // arrival almost always; the rest is unconstrained.
        if (i % 3 == 0) options.deadline_us = 1.0;
        const ScheduleResponse response =
            client.schedule(topo.w, topo.z, options);
        // Every status is acceptable; what matters is that exactly one
        // response arrives per request, with a sane shape.
        ++answered[c];
        if (response.status == ScheduleStatus::kOk) {
          EXPECT_EQ(response.alpha.size(), topo.w.size());
        }
      }
      client.close();
    });
  }
  for (std::thread& t : clients) t.join();

  std::uint64_t total = 0;
  for (const std::uint64_t a : answered) total += a;
  EXPECT_EQ(total, kClients * static_cast<std::uint64_t>(
                                  requests_per_client));
  const dls::serve::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.ok + stats.shed + stats.expired + stats.errors, total);
  service.stop();
}

}  // namespace
