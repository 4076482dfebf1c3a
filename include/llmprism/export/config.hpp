// ExportConfig — one validated description of every file-output sink,
// consumed uniformly by the CLI subcommands, the prismd daemon, and
// examples/fleet_dashboard.cpp.
//
// Before this struct existed each tool threaded five separate path strings
// (--perfetto-out/--series-out/--journal-out/--metrics-out/--trace-out)
// through ad-hoc plumbing and duplicated the "open file, pick format by
// suffix, write" logic. ExportConfig carries the paths; ExportSinks owns
// the per-window exporters those paths enable, consumes WindowExportViews,
// and writes everything (including the process-wide metrics registry and
// pipeline trace spans) in one call.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "llmprism/export/journal.hpp"
#include "llmprism/export/perfetto.hpp"
#include "llmprism/export/series.hpp"
#include "llmprism/export/view.hpp"

namespace llmprism {

struct ExportConfig {
  /// Reconstructed-timeline Chrome trace JSON (ui.perfetto.dev).
  std::string perfetto_out;
  /// Per-job per-window metrics: OpenMetrics text, or JSONL when the path
  /// ends in ".jsonl".
  std::string series_out;
  /// Incident lifecycle journal (JSONL, open -> update -> resolve).
  std::string journal_out;
  /// Self-telemetry registry dump: Prometheus text, or a JSON snapshot
  /// when the path ends in ".json".
  std::string metrics_out;
  /// Pipeline trace spans as Chrome trace_event JSON. Enabling this turns
  /// the span collector on for the lifetime of the ExportSinks.
  std::string trace_out;

  /// True when any per-window sink (perfetto/series/journal) is requested.
  [[nodiscard]] bool any_window_sink() const {
    return !perfetto_out.empty() || !series_out.empty() ||
           !journal_out.empty();
  }
  /// True when nothing at all is requested.
  [[nodiscard]] bool empty() const {
    return !any_window_sink() && metrics_out.empty() && trace_out.empty();
  }

  /// Descriptive configuration errors (empty = valid). Catches two sinks
  /// aimed at the same path — the second write would clobber the first.
  [[nodiscard]] std::vector<std::string> validate() const;
};

/// The export sinks one ExportConfig enables, fed one analyzed window at a
/// time and flushed to their files by write_files(). Each output is a
/// deterministic function of the (window, report, stable-ids) sequence, so
/// repeated runs produce bit-identical files. Constructing with a
/// non-empty trace_out enables the global span collector; write_files()
/// disables it again.
class ExportSinks {
 public:
  explicit ExportSinks(ExportConfig config);

  /// Feed one analyzed window (in time order) to every per-window sink.
  void add_window(const WindowExportView& view);

  /// Finish the journal and write every configured file (per-window sinks,
  /// then metrics registry and span trace). Returns one message per file
  /// that could not be written (empty = all good).
  std::vector<std::string> write_files();

  /// The lifecycle journal (null unless journal_out is configured), e.g.
  /// to count its events after write_files(). prismd keeps its own journal
  /// per shard and does not use this one (DESIGN.md §14).
  [[nodiscard]] const IncidentJournal* journal() const {
    return journal_ ? &*journal_ : nullptr;
  }

  [[nodiscard]] const ExportConfig& config() const { return config_; }

 private:
  ExportConfig config_;
  std::optional<PerfettoExporter> perfetto_;
  std::optional<JobSeriesCollector> series_;
  std::optional<IncidentJournal> journal_;
};

}  // namespace llmprism
