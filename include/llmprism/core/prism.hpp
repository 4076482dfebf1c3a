// The end-to-end LLMPrism pipeline (paper Fig. 2):
//   (1) recognize training jobs            -> JobRecognizer  (Alg. 1)
//   (2) identify parallelism strategies    -> CommTypeIdentifier (Alg. 2)
//   (3) reconstruct per-GPU timelines      -> TimelineReconstructor
//   (4) multi-dimensional diagnosis        -> Diagnoser
//
// Input: the switch-level flow trace of the whole cluster over a time
// window, plus the physical topology. No tenant cooperation required.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include <string>

#include "llmprism/common/thread_pool.hpp"
#include "llmprism/core/attribution.hpp"
#include "llmprism/core/comm_type.hpp"
#include "llmprism/core/diagnosis.hpp"
#include "llmprism/core/job_recognition.hpp"
#include "llmprism/core/parallelism_inference.hpp"
#include "llmprism/core/session.hpp"
#include "llmprism/core/timeline.hpp"
#include "llmprism/flow/view.hpp"
#include "llmprism/topology/topology.hpp"

namespace llmprism {

struct PrismConfig {
  JobRecognitionConfig recognition;
  CommTypeConfig comm_type;
  TimelineConfig timeline;
  DiagnosisConfig diagnosis;
  AttributionConfig attribution;
  /// Timeline reconstruction dominates cost; disable when only job
  /// recognition / parallelism identification is needed.
  bool reconstruct_timelines = true;
  /// Trace every k-sigma alert back to a ranked root-cause candidate list
  /// (see attribution.hpp). Runs after diagnosis; needs timelines, so it
  /// is skipped when reconstruct_timelines is off.
  bool attribute = true;
  /// Threads for the per-job analysis fan-out: 0 = one per hardware thread,
  /// 1 = the exact sequential legacy path, n = that many. The report is
  /// identical for every value (see DESIGN.md, "Concurrency model");
  /// `tests/test_parallel_equivalence.cpp` enforces this.
  std::size_t num_threads = 0;

  /// Descriptive configuration errors (empty = valid). The Prism
  /// constructor calls this and throws std::invalid_argument listing every
  /// problem at once; CLI tools call it directly for friendlier output.
  [[nodiscard]] std::vector<std::string> validate() const;
};

/// Full analysis of one recognized job.
struct JobAnalysis {
  JobId id;                 ///< index within this report
  RecognizedJob job;
  /// The job's flows (time-sorted, columnar). Exposes a record read API
  /// (size / operator[] / value iteration); report consumers that need raw
  /// columns use trace.view().
  FlowColumns trace;
  CommTypeResult comm_types;
  /// The job's reconstructed 3D layout (tp/dp/pp/micro-batches).
  InferredParallelism inferred;
  std::vector<GpuTimeline> timelines;
  std::vector<StepAlert> step_alerts;
  std::vector<GroupAlert> group_alerts;
};

/// Deterministic self-telemetry of one analyze() call: what each stage
/// consumed, filtered, repaired and produced. Every field is an event
/// count — the same flows produce the same events no matter how the
/// per-job fan-out is scheduled, so the block is bit-identical across
/// `num_threads` values (enforced by tests/test_parallel_equivalence.cpp).
/// Wall-clock timings deliberately live elsewhere (the obs registry
/// histograms and trace spans), because they can never be
/// thread-count-invariant. These counts are also the only source of the
/// registry's analysis counters: Prism::analyze adds every field except
/// the derived ones (flows_total, the DP/PP split, timeline and step
/// counts) to its `llmprism_*_total` counter once, when it returns.
struct ReportTelemetry {
  // ---- flow routing ----
  std::uint64_t flows_total = 0;         ///< flows in the analyzed window
  std::uint64_t flows_routed = 0;        ///< attributed to a recognized job
  /// Of flows_routed: src was unattributed, recovered via the dst lookup.
  std::uint64_t flows_routed_via_dst = 0;
  std::uint64_t flows_unattributed = 0;  ///< no recognized job claims them

  // ---- communication-type identification (Alg. 2) ----
  std::uint64_t pairs_classified = 0;
  std::uint64_t pairs_dp = 0;
  std::uint64_t pairs_pp = 0;
  std::uint64_t refinement_flips = 0;  ///< PP→DP transitivity repairs
  std::uint64_t artifact_size_clusters = 0;
  std::uint64_t artifact_flows = 0;
  std::uint64_t artifact_segments = 0;

  // ---- BOCD gap segmentation (comm-type + timeline stages combined) ----
  std::uint64_t bocd_observations = 0;
  std::uint64_t bocd_boundaries = 0;
  std::uint64_t bocd_hard_resets = 0;

  // ---- timeline reconstruction ----
  std::uint64_t timelines_reconstructed = 0;
  std::uint64_t timeline_events = 0;
  std::uint64_t steps_reconstructed = 0;

  // ---- k-sigma diagnosis (cross-step, cross-group, switch-level) ----
  std::uint64_t ksigma_series = 0;
  std::uint64_t ksigma_points = 0;
  std::uint64_t ksigma_alerts = 0;

  // ---- root-cause attribution ----
  std::uint64_t incidents = 0;        ///< attributed incidents emitted
  std::uint64_t alerts_explained = 0; ///< alerts some incident accounts for
  std::uint64_t alerts_orphaned = 0;  ///< alerts no blame rule could explain
};

struct PrismReport {
  JobRecognitionResult recognition;
  std::vector<JobAnalysis> jobs;
  /// Fig. 5 series: average DP bandwidth per switch, cluster-wide.
  std::vector<std::pair<SwitchId, double>> switch_bandwidth_gbps;
  std::vector<SwitchBandwidthAlert> switch_bandwidth_alerts;
  std::vector<SwitchConcurrencyAlert> switch_concurrency_alerts;
  /// Root-cause attribution of every alert above (empty when
  /// PrismConfig::attribute is off); see attribution.hpp.
  AttributionResult attribution;
  /// Pipeline self-telemetry (deterministic event counts; see above).
  ReportTelemetry telemetry;
};

class Prism {
 public:
  explicit Prism(const ClusterTopology& topology, PrismConfig config = {});

  /// Analyze one window of cluster-wide flows end-to-end — e.g. straight
  /// off a MappedFlowTrace (`mapped.view()`), zero flow-array copies on a
  /// sorted input; an unsorted view is argsort-gathered into sorted columns
  /// once (the boundary sort), never mutated in place. Thread-safe: several
  /// threads may analyze different views on one Prism (the OnlineMonitor
  /// does exactly that for concurrent windows).
  [[nodiscard]] PrismReport analyze(const FlowView& view) const;

  /// Same, threading warm cross-window state through the pipeline (the
  /// incremental path — see session.hpp and DESIGN.md §9). With a null
  /// session this IS the cold overload, bit for bit. With a session, the
  /// caller must analyze consecutive windows of one feed in time order and
  /// not share the session between concurrent analyze() calls; the per-job
  /// fan-out inside one call still parallelizes. An un-armed session (no
  /// begin_window() call) is armed automatically with the view's end and
  /// hold_tail = false.
  [[nodiscard]] PrismReport analyze(const FlowView& view,
                                    PrismSession* session) const;

  /// Resolved fan-out width (>= 1).
  [[nodiscard]] std::size_t num_threads() const;

 private:
  /// The pipeline body; `view` is known-sorted (the public entry points
  /// perform the one boundary sort when needed).
  [[nodiscard]] PrismReport analyze_sorted(const FlowView& view,
                                           PrismSession* session) const;

  const ClusterTopology& topology_;
  PrismConfig config_;
  /// Per-job fan-out pool; null in the single-threaded configuration.
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace llmprism
