// Exporters for drained trace events and metric snapshots.
//
//   * write_chrome_trace — the Chrome trace-event JSON format; load the
//     file in chrome://tracing or https://ui.perfetto.dev. Runtime spans
//     render under pid 0 ("runtime", one tid per emitting thread) and
//     bridged simulation activity under pid 1 ("simulation", one tid per
//     simulated processor). Metric totals ride along in "otherData".
//   * StreamingChromeTrace — the in-flight flavour: events are appended
//     to the stream in batches as they are drained, so a long soak run
//     never buffers its whole span history in memory before export.
//   * dump_summary — a human table: per-span-name count/total/mean/max
//     plus every counter, gauge and histogram.
#pragma once

#include <iosfwd>
#include <set>
#include <span>
#include <string>

#include "obs/metrics.hpp"
#include "obs/sink.hpp"

namespace dls::obs {

/// Events should come straight from TraceSink::drain() (canonically
/// ordered); `metrics` is optional.
void write_chrome_trace(std::ostream& out, std::span<const SpanEvent> events,
                        const MetricsSnapshot* metrics = nullptr);

/// Incremental Chrome-trace writer. Construction writes the JSON
/// preamble; append() emits each batch immediately (periodically drain
/// the sink and feed the batches here instead of accumulating them);
/// finish() closes the event array and attaches the metric snapshot as
/// "otherData". The destructor finishes without metrics if the caller
/// never did. Events within one batch should come from
/// TraceSink::drain() (canonically ordered); ordering across batches is
/// not required by the trace-event format.
class StreamingChromeTrace {
 public:
  explicit StreamingChromeTrace(std::ostream& out);
  ~StreamingChromeTrace();

  StreamingChromeTrace(const StreamingChromeTrace&) = delete;
  StreamingChromeTrace& operator=(const StreamingChromeTrace&) = delete;

  void append(std::span<const SpanEvent> events);

  /// Drains the global sink into the stream: the periodic flush a soak
  /// loop calls so spans never pile up. Returns the batch size.
  std::size_t drain_global();

  void finish(const MetricsSnapshot* metrics = nullptr);

 private:
  void emit(const std::string& line);

  std::ostream& out_;
  std::set<Track> seen_tracks_;
  bool first_ = true;
  bool finished_ = false;
};

void dump_summary(std::ostream& out, std::span<const SpanEvent> events,
                  const MetricsSnapshot& metrics);

/// One-stop shutdown flush: drains the global sink, snapshots the global
/// metrics registry and writes a Chrome trace to `path`. Returns false
/// (leaving the drained state consumed) if the file cannot be opened.
bool export_chrome_trace_file(const std::string& path);

}  // namespace dls::obs
