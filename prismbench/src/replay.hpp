// The traced run's stage-by-stage replay.
//
// Replays one window single-threaded through each layer's public functions
// in the order Prism::analyze runs them (cold path: no session), timing
// every call with a Tracer span. The stage outputs are assembled into a
// PrismReport and rendered, so the replay is checked against the real
// Prism::analyze: same report bytes, same ReportTelemetry counts.
#pragma once

#include <cstdint>
#include <string>

#include "common.hpp"
#include "llmprism/core/prism.hpp"
#include "llmprism/flow/view.hpp"
#include "llmprism/topology/topology.hpp"

namespace prismbench {

using namespace llmprism;

/// Work counts summed over replayed windows.
struct ReplayCounts {
  std::uint64_t jobs = 0;
  std::uint64_t flows_routed = 0;
  std::uint64_t flows_unattributed = 0;
  std::uint64_t largest_job_flows = 0;  ///< each window's largest job
  std::uint64_t pairs = 0;              ///< pair-index pairs
  std::uint64_t refinement_flips = 0;
  std::uint64_t comm_type_bocd_observations = 0;
  std::uint64_t timeline_bocd_observations = 0;
  std::uint64_t steps = 0;
  std::uint64_t ksigma_points = 0;
  std::uint64_t alerts = 0;
  std::uint64_t incidents = 0;
  std::uint64_t alerts_explained = 0;
  std::uint64_t report_bytes = 0;
  std::uint64_t export_bytes = 0;
  /// Windows whose replay disagreed with Prism::analyze (report bytes or
  /// telemetry), and windows replayed.
  std::uint64_t mismatches = 0;
  std::uint64_t windows = 0;
  /// Prism::analyze wall time summed over windows (median of repeats).
  double analyze_1t_s = 0;
  double analyze_4t_s = 0;
};

/// Replay `view` (one analysis window, sorted) and add to `counts`. Every
/// stage call is a span in `tracer`; the three exporters run on the
/// replayed report too. `repeats` Prism::analyze calls at 1 and 4 threads
/// give the reference report and the fan-out timings.
void replay_window(const ClusterTopology& topology, const FlowView& view,
                   Tracer& tracer, ReplayCounts& counts, int repeats);

/// Span names, shared with the metric extraction.
namespace span {
inline constexpr const char* kRecognize = "recognize";
inline constexpr const char* kRoute = "route";
inline constexpr const char* kPairIndex = "pair_index";
inline constexpr const char* kCommType = "comm_type";
inline constexpr const char* kDpGather = "dp_gather";
inline constexpr const char* kTimeline = "timeline";
inline constexpr const char* kStepGroup = "diagnosis.step_group";
inline constexpr const char* kInfer = "infer";
inline constexpr const char* kSwitch = "diagnosis.switch";
inline constexpr const char* kAttribution = "attribution";
inline constexpr const char* kRender = "render.report_json";
inline constexpr const char* kPerfetto = "export.perfetto";
inline constexpr const char* kSeries = "export.series";
inline constexpr const char* kJournal = "export.journal";
}  // namespace span

/// Summed busy time of the stages Prism::analyze runs (recognize through
/// attribution) — the numerator of pipeline.coverage_ratio.
[[nodiscard]] double pipeline_busy(const Tracer& tracer);

}  // namespace prismbench
