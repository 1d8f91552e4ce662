#include "obs/trace_export.hpp"

#include <algorithm>
#include <fstream>
#include <map>
#include <ostream>
#include <set>

#include "common/table.hpp"
#include "obs/json.hpp"

namespace dls::obs {

using internal::json_micros;
using internal::json_string;

namespace {

const char* track_name(Track track) {
  switch (track) {
    case Track::kRuntime: return "runtime";
    case Track::kSimulation: return "simulation";
  }
  return "unknown";
}

double to_micros(std::uint64_t ns) {
  return static_cast<double>(ns) / 1000.0;
}

/// One trace-event line for a track's process-name metadata.
std::string chrome_track_metadata(Track track) {
  return "{\"ph\":\"M\",\"pid\":" +
         std::to_string(static_cast<unsigned>(track)) +
         ",\"name\":\"process_name\",\"args\":{\"name\":" +
         json_string(track_name(track)) + "}}";
}

/// One complete ("X" phase) trace-event line; shared by the batch and
/// streaming writers so both emit byte-identical events.
std::string chrome_event_line(const SpanEvent& e) {
  std::string line = "{\"name\":" + json_string(e.name) +
                     ",\"ph\":\"X\",\"pid\":" +
                     std::to_string(static_cast<unsigned>(e.track)) +
                     ",\"tid\":" + std::to_string(e.thread) +
                     ",\"ts\":" + json_micros(to_micros(e.start_ns)) +
                     ",\"dur\":" +
                     json_micros(to_micros(e.end_ns - e.start_ns));
  if (!e.args.empty()) line += ",\"args\":" + e.args;
  line += '}';
  return line;
}

}  // namespace

void write_chrome_trace(std::ostream& out, std::span<const SpanEvent> events,
                        const MetricsSnapshot* metrics) {
  out << "{\"displayTimeUnit\":\"ms\"";
  if (metrics != nullptr) {
    out << ",\"otherData\":{\"metrics\":" << metrics->to_json() << "}";
  }
  out << ",\"traceEvents\":[\n";

  bool first = true;
  const auto emit = [&](const std::string& line) {
    if (!first) out << ",\n";
    first = false;
    out << line;
  };

  // Process-name metadata for every track that actually has events.
  std::set<Track> tracks;
  for (const SpanEvent& e : events) tracks.insert(e.track);
  for (const Track track : tracks) emit(chrome_track_metadata(track));

  for (const SpanEvent& e : events) emit(chrome_event_line(e));
  out << "\n]}\n";
}

StreamingChromeTrace::StreamingChromeTrace(std::ostream& out) : out_(out) {
  out_ << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
}

StreamingChromeTrace::~StreamingChromeTrace() {
  if (!finished_) finish(nullptr);
}

void StreamingChromeTrace::emit(const std::string& line) {
  if (!first_) out_ << ",\n";
  first_ = false;
  out_ << line;
}

void StreamingChromeTrace::append(std::span<const SpanEvent> events) {
  for (const SpanEvent& e : events) {
    if (seen_tracks_.insert(e.track).second) {
      emit(chrome_track_metadata(e.track));
    }
    emit(chrome_event_line(e));
  }
}

std::size_t StreamingChromeTrace::drain_global() {
  const std::vector<SpanEvent> events = TraceSink::global().drain();
  append(events);
  return events.size();
}

void StreamingChromeTrace::finish(const MetricsSnapshot* metrics) {
  if (finished_) return;
  finished_ = true;
  out_ << "\n]";
  if (metrics != nullptr) {
    out_ << ",\"otherData\":{\"metrics\":" << metrics->to_json() << "}";
  }
  out_ << "}\n";
}

void dump_summary(std::ostream& out, std::span<const SpanEvent> events,
                  const MetricsSnapshot& metrics) {
  struct Agg {
    std::uint64_t count = 0;
    std::uint64_t total_ns = 0;
    std::uint64_t max_ns = 0;
  };
  std::map<std::string, Agg> by_name;
  for (const SpanEvent& e : events) {
    Agg& agg = by_name[e.name];
    const std::uint64_t dur = e.end_ns - e.start_ns;
    ++agg.count;
    agg.total_ns += dur;
    agg.max_ns = std::max(agg.max_ns, dur);
  }

  out << "spans (" << events.size() << " events):\n";
  common::Table spans({{"span", common::Align::kLeft},
                       {"count"},
                       {"total us"},
                       {"mean us"},
                       {"max us"}});
  for (const auto& [name, agg] : by_name) {
    spans.add_row({name, agg.count, common::Cell(to_micros(agg.total_ns), 3),
                   common::Cell(to_micros(agg.total_ns) /
                                    static_cast<double>(agg.count),
                                3),
                   common::Cell(to_micros(agg.max_ns), 3)});
  }
  spans.print(out);

  out << "\ncounters:\n";
  common::Table counters({{"counter", common::Align::kLeft}, {"value"}});
  for (const auto& [name, value] : metrics.counters) {
    counters.add_row({name, common::Cell(static_cast<std::size_t>(value))});
  }
  counters.print(out);

  if (!metrics.gauges.empty()) {
    out << "\ngauges:\n";
    common::Table gauges({{"gauge", common::Align::kLeft}, {"value"}});
    for (const auto& [name, value] : metrics.gauges) {
      gauges.add_row({name, common::Cell(value, 6)});
    }
    gauges.print(out);
  }

  if (!metrics.histograms.empty()) {
    out << "\nhistograms:\n";
    common::Table histograms({{"histogram", common::Align::kLeft},
                              {"count"},
                              {"sum"},
                              {"mean"}});
    for (const auto& [name, h] : metrics.histograms) {
      const double mean =
          h.count == 0 ? 0.0 : h.sum / static_cast<double>(h.count);
      histograms.add_row({name, common::Cell(static_cast<std::size_t>(h.count)),
                          common::Cell(h.sum, 6), common::Cell(mean, 6)});
    }
    histograms.print(out);
  }
}

bool export_chrome_trace_file(const std::string& path) {
  const std::vector<SpanEvent> events = TraceSink::global().drain();
  const MetricsSnapshot metrics = MetricsRegistry::global().snapshot();
  std::ofstream out(path);
  if (!out) return false;
  write_chrome_trace(out, events, &metrics);
  return static_cast<bool>(out);
}

}  // namespace dls::obs
