// Unit tests for src/obs/: spans, the trace sink, the metrics registry
// and the exporters. Everything here runs single-threaded; the
// concurrent paths are covered by obs_stress_test.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "obs/obs.hpp"
#include "obs/trace_export.hpp"

namespace {

using dls::obs::MetricsRegistry;
using dls::obs::MetricsSnapshot;
using dls::obs::Span;
using dls::obs::SpanEvent;
using dls::obs::Track;
using dls::obs::TraceSink;

/// Every test starts from a clean slate: logical clock at zero, empty
/// sink, zeroed metrics, collection on.
class ObsTest : public ::testing::Test {
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

TEST_F(ObsTest, SpanRecordsNameDepthAndOrder) {
  {
    Span outer("outer");
    {
      Span inner("inner");
    }
  }
  const std::vector<SpanEvent> events = TraceSink::global().drain();
  ASSERT_EQ(events.size(), 2u);
  // Inner closes first, so it drains first within the thread.
  EXPECT_STREQ(events[0].name, "inner");
  EXPECT_EQ(events[0].depth, 1u);
  EXPECT_STREQ(events[1].name, "outer");
  EXPECT_EQ(events[1].depth, 0u);
  EXPECT_LE(events[1].start_ns, events[0].start_ns);
  EXPECT_GE(events[1].end_ns, events[0].end_ns);
}

TEST_F(ObsTest, InactiveSinkRecordsNothing) {
  dls::obs::set_active(false);
  {
    Span span("ignored");
    EXPECT_FALSE(span.live());
  }
  MetricsRegistry::global().counter("ignored.counter").add();
  EXPECT_TRUE(TraceSink::global().drain().empty());
  EXPECT_EQ(MetricsRegistry::global().snapshot().counters.count(
                "ignored.counter"),
            1u);  // registered by the lookup...
  EXPECT_EQ(
      MetricsRegistry::global().snapshot().counters.at("ignored.counter"),
      0u);  // ...but never incremented
}

TEST_F(ObsTest, LogicalClockTicksDeterministically) {
  {
    Span a("a");
  }
  {
    Span b("b");
  }
  const std::vector<SpanEvent> events = TraceSink::global().drain();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].start_ns, 0u);
  EXPECT_EQ(events[0].end_ns, 1u);
  EXPECT_EQ(events[1].start_ns, 2u);
  EXPECT_EQ(events[1].end_ns, 3u);
}

TEST_F(ObsTest, DrainResetsSequenceSpace) {
  {
    Span a("a");
  }
  const std::vector<SpanEvent> first = TraceSink::global().drain();
  {
    Span a("a");
  }
  const std::vector<SpanEvent> second = TraceSink::global().drain();
  ASSERT_EQ(first.size(), 1u);
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(first[0].seq, second[0].seq);
  EXPECT_EQ(first[0].thread, second[0].thread);
}

TEST_F(ObsTest, ChunkSealingSurvivesManyEvents) {
  constexpr int kEvents = 1000;  // > kFlushThreshold, forces sealed chunks
  for (int i = 0; i < kEvents; ++i) {
    Span s("bulk");
  }
  const std::vector<SpanEvent> events = TraceSink::global().drain();
  ASSERT_EQ(events.size(), static_cast<std::size_t>(kEvents));
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, i);  // canonical order restored after LIFO
  }
}

TEST_F(ObsTest, SimulationTrackKeepsCallerLane) {
  dls::obs::record_span("sim.compute", 10, 20, Track::kSimulation,
                        /*thread=*/7);
  const std::vector<SpanEvent> events = TraceSink::global().drain();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].thread, 7u);
  EXPECT_EQ(events[0].track, Track::kSimulation);
}

TEST_F(ObsTest, CounterGaugeHistogramRoundTrip) {
  MetricsRegistry& reg = MetricsRegistry::global();
  reg.counter("c").add(3);
  reg.counter("c").add();
  reg.gauge("g").set(2.5);
  reg.gauge("g").max(1.0);  // smaller: must not lower the value
  auto& h = reg.histogram("h", {1.0, 10.0});
  h.observe(0.5);
  h.observe(5.0);
  h.observe(100.0);

  const MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counters.at("c"), 4u);
  EXPECT_DOUBLE_EQ(snap.gauges.at("g"), 2.5);
  const auto& hs = snap.histograms.at("h");
  ASSERT_EQ(hs.counts.size(), 3u);
  EXPECT_EQ(hs.counts[0], 1u);
  EXPECT_EQ(hs.counts[1], 1u);
  EXPECT_EQ(hs.counts[2], 1u);  // overflow bucket
  EXPECT_EQ(hs.count, 3u);
  EXPECT_DOUBLE_EQ(hs.sum, 105.5);
}

TEST_F(ObsTest, RegistryResetKeepsRegistrationsAndCachedRefs) {
  MetricsRegistry& reg = MetricsRegistry::global();
  auto& c = reg.counter("persistent");
  c.add(5);
  reg.reset();
  EXPECT_EQ(c.value(), 0u);
  c.add(2);  // the cached reference must still be usable
  EXPECT_EQ(reg.snapshot().counters.at("persistent"), 2u);
}

TEST_F(ObsTest, MetricMacrosUpdateTheGlobalRegistry) {
  DLS_COUNT("macro.counter");
  DLS_COUNT("macro.counter", 4);
  DLS_GAUGE_SET("macro.gauge", 1.25);
  DLS_GAUGE_MAX("macro.gauge", 9.0);
  DLS_OBSERVE("macro.hist", 3.0, {1.0, 5.0});
  const MetricsSnapshot snap = MetricsRegistry::global().snapshot();
  EXPECT_EQ(snap.counters.at("macro.counter"), 5u);
  EXPECT_DOUBLE_EQ(snap.gauges.at("macro.gauge"), 9.0);
  EXPECT_EQ(snap.histograms.at("macro.hist").count, 1u);
}

TEST_F(ObsTest, SnapshotJsonIsDeterministicAndSorted) {
  MetricsRegistry& reg = MetricsRegistry::global();
  reg.counter("zz").add(1);
  reg.counter("aa").add(2);
  const std::string a = reg.snapshot().to_json();
  const std::string b = reg.snapshot().to_json();
  EXPECT_EQ(a, b);
  EXPECT_LT(a.find("\"aa\""), a.find("\"zz\""));
}

TEST_F(ObsTest, ChromeTraceExportHasMetadataAndCompleteEvents) {
  {
    Span s("solve.reduce", R"({"m":3})");
  }
  dls::obs::record_span("sim.compute", 0, 1000, Track::kSimulation, 2);
  const std::vector<SpanEvent> events = TraceSink::global().drain();
  const MetricsSnapshot metrics = MetricsRegistry::global().snapshot();
  std::ostringstream out;
  dls::obs::write_chrome_trace(out, events, &metrics);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"runtime\""), std::string::npos);
  EXPECT_NE(json.find("\"simulation\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"solve.reduce\""), std::string::npos);
  EXPECT_NE(json.find("{\"m\":3}"), std::string::npos);
  EXPECT_NE(json.find("\"otherData\""), std::string::npos);
}

TEST_F(ObsTest, StreamingChromeTraceMatchesBatchWriterEventForEvent) {
  {
    Span s("solve.reduce", R"({"m":3})");
  }
  dls::obs::record_span("sim.compute", 0, 1000, Track::kSimulation, 2);
  const std::vector<SpanEvent> events = TraceSink::global().drain();
  const MetricsSnapshot metrics = MetricsRegistry::global().snapshot();

  std::ostringstream batch;
  dls::obs::write_chrome_trace(batch, events, &metrics);

  // Feed the same events through the streaming writer in two batches.
  std::ostringstream streamed;
  {
    dls::obs::StreamingChromeTrace trace(streamed);
    trace.append(std::span(events).first(1));
    trace.append(std::span(events).subspan(1));
    trace.finish(&metrics);
  }
  const std::string json = streamed.str();

  // Every event line the batch writer emits appears verbatim (the two
  // writers share the line formatter), and the stream is valid JSON with
  // the same metadata and metrics attachments.
  for (const SpanEvent& e : events) {
    const std::string needle = "\"name\":\"" + std::string(e.name) + "\"";
    EXPECT_NE(json.find(needle), std::string::npos) << needle;
  }
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"runtime\""), std::string::npos);
  EXPECT_NE(json.find("\"simulation\""), std::string::npos);
  EXPECT_NE(json.find("\"otherData\""), std::string::npos);
  EXPECT_EQ(json.back(), '\n');

  // Both writers emit the identical set of event lines: strip the
  // wrappers and compare the sorted line multisets.
  const auto event_lines = [](const std::string& text) {
    std::vector<std::string> lines;
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("{\"name\":", 0) == 0 ||
          line.rfind("{\"ph\":\"M\"", 0) == 0) {
        if (!line.empty() && line.back() == ',') line.pop_back();
        lines.push_back(line);
      }
    }
    std::sort(lines.begin(), lines.end());
    return lines;
  };
  EXPECT_EQ(event_lines(batch.str()), event_lines(json));
}

TEST_F(ObsTest, StreamingChromeTraceDestructorClosesTheJson) {
  std::ostringstream out;
  { dls::obs::StreamingChromeTrace trace(out); }
  const std::string json = out.str();
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_EQ(json.find("\"otherData\""), std::string::npos);
  EXPECT_EQ(json.substr(json.size() - 3), "]}\n");
}

TEST_F(ObsTest, SummaryTableAggregatesPerName) {
  for (int i = 0; i < 3; ++i) {
    Span s("repeat");
  }
  const std::vector<SpanEvent> events = TraceSink::global().drain();
  std::ostringstream out;
  dls::obs::dump_summary(out, events, MetricsRegistry::global().snapshot());
  const std::string text = out.str();
  EXPECT_NE(text.find("repeat"), std::string::npos);
  EXPECT_NE(text.find("spans (3 events):"), std::string::npos);
}

TEST_F(ObsTest, CompiledLevelIsConsistent) {
  EXPECT_TRUE(dls::obs::compiled(0));
  EXPECT_TRUE(dls::obs::compiled(DLS_OBS_LEVEL));
  EXPECT_FALSE(dls::obs::compiled(DLS_OBS_LEVEL + 1));
}

}  // namespace
