// Scheduler daemon walkthrough: an in-process SchedulerService serving
// three clients over the framed transport. The demo exercises the whole
// service surface — a plain solve, a payments solve, a warm cache hit
// (bit-identical to the cold response), queue-full shedding with the
// client's backoff retry, and an already-expired deadline — then
// prints the service-side counters.
#include <cinttypes>
#include <cstdio>
#include <thread>
#include <vector>

#include "serve/client.hpp"
#include "serve/service.hpp"

namespace {

void print_response(const char* label,
                    const dls::serve::ScheduleResponse& response) {
  std::printf("%-22s status=%-7s cache_hit=%d", label,
              dls::serve::to_string(response.status).c_str(),
              response.cache_hit ? 1 : 0);
  if (response.status == dls::serve::ScheduleStatus::kOk) {
    std::printf(" makespan=%.6f alpha=[", response.makespan);
    for (std::size_t i = 0; i < response.alpha.size(); ++i) {
      std::printf("%s%.4f", i ? ", " : "", response.alpha[i]);
    }
    std::printf("]");
    if (!response.payments.empty()) {
      std::printf(" total_payment=%.4f", response.total_payment);
    }
  }
  if (!response.error.empty()) {
    std::printf(" error=\"%s\"", response.error.c_str());
  }
  std::printf("\n");
}

}  // namespace

int main() {
  dls::serve::ServiceConfig config;
  config.queue_capacity = 2;  // small, so the shed demo triggers easily
  config.cache_capacity = 16;
  dls::serve::SchedulerService service(config);

  const std::vector<double> w = {1.0, 1.2, 0.9, 1.1};
  const std::vector<double> z = {0.15, 0.1, 0.2};

  std::printf("=== scheduler_daemon: framed transport demo ===\n\n");

  // One client per "site", all multiplexed onto the same service.
  dls::serve::SchedulerClient alice(service.connect());
  dls::serve::SchedulerClient bob(service.connect());
  dls::serve::SchedulerClient carol(service.connect());

  // Cold solve, then the identical instance again: the second response
  // is served from the LRU cache and is bit-identical to the first.
  const auto cold = alice.schedule(w, z);
  print_response("alice cold solve:", cold);
  const auto warm = bob.schedule(w, z);
  print_response("bob warm (cached):", warm);
  std::printf("bit-identical: %s\n\n",
              cold.alpha == warm.alpha && cold.makespan == warm.makespan
                  ? "yes"
                  : "NO (bug)");

  // Payments ride along when asked for.
  dls::serve::ScheduleOptions pay;
  pay.want_payments = true;
  print_response("carol + payments:", carol.schedule(w, z, pay));

  // Backpressure: hold the service so the two queue slots fill, then
  // watch the third request get shed — and succeed once the client's
  // backoff retry finds the queue drained.
  service.pause();
  const std::vector<double> w1 = {1.0, 2.0}, w2 = {1.0, 3.0};
  const std::vector<double> w3 = {1.0, 4.0}, z1 = {0.1};
  std::thread q1([&] { alice.schedule(w1, z1); });
  std::thread q2([&] { bob.schedule(w2, z1); });
  // Give both queued requests time to be admitted before overflowing.
  while (service.stats().admitted < 5) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  dls::serve::RobustOptions retry;
  retry.policy.base_delay_s = 0.05;  // seconds before the first resend
  retry.policy.max_delay_s = 0.5;
  retry.policy.max_attempts = 11;
  std::thread resumer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    service.resume();
  });
  const auto retried = carol.schedule_robust(w3, z1, {}, retry).response;
  print_response("carol shed+retry:", retried);
  q1.join();
  q2.join();
  resumer.join();

  // A request whose deadline already passed is refused without solving.
  dls::serve::ScheduleOptions expired;
  expired.deadline_us = 1e-3;  // one nanosecond: expired on arrival
  print_response("alice expired:", alice.schedule(w, z, expired));

  const dls::serve::ServiceStats stats = service.stats();
  std::printf(
      "\n--- service counters ---\n"
      "received=%" PRIu64 " admitted=%" PRIu64 " ok=%" PRIu64
      " shed=%" PRIu64 " expired=%" PRIu64 " errors=%" PRIu64 "\n",
      stats.received, stats.admitted, stats.ok, stats.shed, stats.expired,
      stats.errors);
  std::printf("cache: hits=%" PRIu64 " misses=%" PRIu64 " size=%zu\n",
              service.cache().hits(), service.cache().misses(),
              service.cache().size());

  alice.close();
  bob.close();
  carol.close();
  service.stop();
  return warm.cache_hit && retried.status == dls::serve::ScheduleStatus::kOk
             ? 0
             : 1;
}
