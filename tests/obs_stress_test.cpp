// Multithreaded tracer stress test, designed to run under TSan: many
// pool workers emit spans and metrics concurrently; afterwards no event
// may be lost or torn, and histogram totals must match a serial
// recount of the work that was actually submitted.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "exec/thread_pool.hpp"
#include "obs/obs.hpp"

namespace {

using dls::exec::ThreadPool;
using dls::obs::MetricsRegistry;
using dls::obs::Span;
using dls::obs::SpanEvent;
using dls::obs::TraceSink;

class ObsStressTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dls::obs::use_logical_clock();
    TraceSink::global().clear();
    MetricsRegistry::global().reset();
    dls::obs::set_active(true);
  }
  void TearDown() override {
    dls::obs::set_active(false);
    TraceSink::global().clear();
    MetricsRegistry::global().reset();
    dls::obs::use_steady_clock();
  }
};

TEST_F(ObsStressTest, NoLostOrTornEventsUnderContention) {
  // Drain instrumentation noise from other layers (pool dispatch spans)
  // separately from the payload below.
  constexpr std::size_t kTasks = 20000;
  std::atomic<std::uint64_t> executed{0};

  // Explicit worker count: the hardware default can be zero workers on a
  // single-core host, which would take the serial fast path and dodge the
  // contention this test exists to create.
  ThreadPool pool(8);
  pool.parallel_for(kTasks, [&](std::size_t i) {
    Span span(i % 2 == 0 ? "stress.even" : "stress.odd");
    DLS_COUNT("stress.tasks");
    DLS_OBSERVE("stress.value", static_cast<double>(i % 10),
                {2.0, 5.0, 8.0});
    executed.fetch_add(1, std::memory_order_relaxed);
  });

  ASSERT_EQ(executed.load(), kTasks);
  const std::vector<SpanEvent> events = TraceSink::global().drain();

  // Count the payload spans; every task's span must have survived the
  // chunk sealing and the concurrent drain intact.
  std::size_t even = 0, odd = 0;
  std::map<std::uint32_t, std::uint64_t> last_seq;
  for (const SpanEvent& e : events) {
    const std::string name = e.name;
    if (name == "stress.even") ++even;
    if (name == "stress.odd") ++odd;
    // Torn events would show null names / inverted stamps.
    EXPECT_FALSE(name.empty());
    EXPECT_LE(e.start_ns, e.end_ns);
    // Canonical drain order: per-thread seqs strictly increase.
    auto it = last_seq.find(e.thread);
    if (it != last_seq.end()) {
      EXPECT_LT(it->second, e.seq) << "thread " << e.thread;
    }
    last_seq[e.thread] = e.seq;
  }
  EXPECT_EQ(even, kTasks / 2);
  EXPECT_EQ(odd, kTasks / 2);

  // Metrics: the counter total and histogram mass must equal a serial
  // recount of what the loop submitted.
  const auto snap = MetricsRegistry::global().snapshot();
  EXPECT_EQ(snap.counters.at("stress.tasks"), kTasks);
  const auto& h = snap.histograms.at("stress.value");
  EXPECT_EQ(h.count, kTasks);
  std::uint64_t serial_buckets[4] = {0, 0, 0, 0};
  double serial_sum = 0.0;
  for (std::size_t i = 0; i < kTasks; ++i) {
    const double v = static_cast<double>(i % 10);
    serial_sum += v;
    if (v <= 2.0) ++serial_buckets[0];
    else if (v <= 5.0) ++serial_buckets[1];
    else if (v <= 8.0) ++serial_buckets[2];
    else ++serial_buckets[3];
  }
  ASSERT_EQ(h.counts.size(), 4u);
  for (std::size_t b = 0; b < 4; ++b) {
    EXPECT_EQ(h.counts[b], serial_buckets[b]) << "bucket " << b;
  }
  EXPECT_DOUBLE_EQ(h.sum, serial_sum);
}

TEST_F(ObsStressTest, ConcurrentDrainsNeverDuplicateEvents) {
  // Emitters and a draining aggregator run concurrently; total events
  // seen across all drains plus the final sweep must match emissions.
  constexpr std::size_t kTasks = 8000;
  ThreadPool pool(4);
  std::atomic<bool> stop{false};
  std::atomic<std::size_t> drained{0};

  std::thread drainer([&] {
    while (!stop.load(std::memory_order_acquire)) {
      drained.fetch_add(TraceSink::global().drain().size(),
                        std::memory_order_relaxed);
    }
  });
  pool.parallel_for(kTasks, [&](std::size_t) { Span s("drain.race"); });
  stop.store(true, std::memory_order_release);
  drainer.join();

  std::size_t total = drained.load();
  for (const SpanEvent& e : TraceSink::global().drain()) {
    static_cast<void>(e);
    ++total;
  }
  // The pool emits its own dispatch/chunk spans on top of the payload.
  EXPECT_GE(total, kTasks);
}

TEST_F(ObsStressTest, PoolInstrumentationCountsChunks) {
  constexpr std::size_t kTasks = 4096;
  std::atomic<std::uint64_t> sink{0};
  ThreadPool pool(4);
  pool.parallel_for(kTasks, [&](std::size_t i) {
    sink.fetch_add(i, std::memory_order_relaxed);
  });
  EXPECT_EQ(sink.load(), kTasks * (kTasks - 1) / 2);
  const auto snap = MetricsRegistry::global().snapshot();
  EXPECT_GE(snap.counters.at("exec.dispatches"), 1u);
  EXPECT_GE(snap.counters.at("exec.chunks"), 1u);
  EXPECT_GE(snap.histograms.at("exec.queue_depth").count, 1u);
}

}  // namespace
