// Perfetto / Chrome-trace export of the reconstructed training timeline.
//
// The black-box reconstruction already recovers a Fig. 4-style Gantt chart
// per job (per-rank timelines with compute / pp_send / pp_recv / dp_sync
// events, plus step boundaries); this exporter serializes it in the Chrome
// trace-event JSON format so an operator can open any monitored job in
// ui.perfetto.dev without instrumenting the tenant:
//  * one trace-event *process* per job (pid = stable monitor job id + 2;
//    pid 1 is the fabric pseudo-process),
//  * one *thread* (track) per rank, named "rank r (gpu g)" and sorted in
//    rank order,
//  * "ph":"X" slices for the reconstructed step spans and for every
//    timeline event (compute, pp_send, pp_recv, dp_sync),
//  * "ph":"i" instant events for the k-sigma alerts — thread-scoped for
//    step alerts, process-scoped for DP-group alerts, global on the fabric
//    process for switch alerts,
//  * "ph":"C" counter tracks: per-job per-comm-type bytes/s in 100 ms bins,
//    and per-switch DP bandwidth on the fabric process.
//
// Determinism: the output is a pure function of the sequence of
// WindowExportViews (report order, std::map-ordered counters, fixed-point
// timestamp formatting — no doubles formatted with ambiguous precision, no
// wall clock), so it is bit-identical across analysis thread counts and
// warm/cold sessions. tests/test_parallel_equivalence.cpp and
// tests/test_session_equivalence.cpp enforce this.
#pragma once

#include <cstdint>
#include <map>
#include <ostream>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "llmprism/common/ids.hpp"
#include "llmprism/common/time.hpp"
#include "llmprism/core/timeline.hpp"
#include "llmprism/export/view.hpp"

namespace llmprism {

struct PerfettoOptions {
  /// Display names per stable job id; jobs not listed get a generated
  /// "job <id> (tp=..,dp=..,pp=..)" name. Names are JSON-escaped, so any
  /// byte sequence is safe.
  std::map<std::uint64_t, std::string> job_names;
};

/// Accumulates windows and writes one Chrome trace-event JSON document.
///
/// add_window() copies what it needs out of the report: the rank tracks'
/// step and event slices go to a compact binary log (24 bytes a slice),
/// everything else (metadata, alerts, counters) to a small text buffer.
/// The slices are formatted only by write(), straight to the stream, so
/// the report and its ticks may be destroyed as soon as add_window()
/// returns.
class PerfettoExporter {
 public:
  explicit PerfettoExporter(PerfettoOptions options = {});

  /// Append one analyzed window. Windows must arrive in time order (the
  /// order OnlineMonitor produces ticks).
  void add_window(const WindowExportView& view);

  /// Write the accumulated document: {"traceEvents":[...],...}. Valid JSON
  /// even with zero windows added. Can be called repeatedly, and between
  /// add_window() calls. Stops early once `os` has failed.
  void write(std::ostream& os) const;

  [[nodiscard]] std::size_t num_events() const { return num_events_; }

 private:
  /// One "step <index>" slice.
  struct StepSlice {
    TimeNs ts;
    DurationNs dur;
    std::size_t index;
  };
  /// One compute / pp_send / pp_recv / dp_sync slice.
  struct EventSlice {
    TimeNs ts;
    DurationNs dur;
    GpuId::rep_type peer;  ///< written for non-compute kinds when valid
    TimelineEventKind kind;
  };
  /// A rank track's slices, placed at `text_at` in text_: steps_ and
  /// events_ from the previous track's ends up to these.
  struct Track {
    std::size_t text_at;
    std::uint64_t pid;
    std::uint64_t tid;
    std::size_t steps_end;
    std::size_t events_end;
  };

  /// Start the next event object in the text buffer (comma handling) up to
  /// `{"name":`; the caller appends the name and the remaining fields.
  std::string& next_event();
  /// next_event(), then the escaped name and the ph/pid/tid fields.
  std::string& begin_event(std::string_view name, char ph, std::uint64_t pid,
                           std::uint64_t tid);
  void add_job_window(const WindowExportView& view, std::size_t j);
  void add_fabric_window(const WindowExportView& view);

  PerfettoOptions options_;
  std::string text_;  ///< serialized non-slice events, comma-separated
  std::vector<Track> tracks_;
  std::vector<StepSlice> steps_;
  std::vector<EventSlice> events_;
  std::size_t num_events_ = 0;
  std::set<std::uint64_t> named_processes_;              ///< pids with M events
  std::set<std::pair<std::uint64_t, std::uint64_t>> named_threads_;
};

}  // namespace llmprism
