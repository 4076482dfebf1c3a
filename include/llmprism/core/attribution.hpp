// Root-cause attribution: from correlated k-sigma alerts to named origins.
//
// Fail-slow propagates. One straggler GPU stalls its 1F1B pipeline
// neighbours and, through the step barrier, every DP replica — so a single
// injected fault surfaces as a cloud of step/group/switch alerts with no
// named origin. This stage builds the per-job dependency graph the paper's
// detectors already imply —
//   * PP forward/backward edges: the pairs Alg. 2 classified kPP (the
//     recovered 1F1B adjacency; pp_send/pp_recv timeline events give the
//     direction),
//   * DP ring membership: the recovered DP components,
//   * switch->flow incidence: the switch paths of each group's DP flows —
// and propagates blame backwards from every alert to the earliest vertex
// that can explain it, emitting one AttributedIncident per root cause with
// the origin separated from its victims.
//
// Blame propagation rule (deepest explanation wins):
//   switch > DP group > rank.
//   1. Group-alert clusters whose DP flows traverse a bandwidth-alerted
//      switch are folded into that switch's cluster-level incident: the
//      switch is the origin, the slowed groups and their step alerts are
//      victims.
//   2. Remaining group-alert clusters become DP-group incidents: the ring
//      is the origin, step alerts at the same steps are victims (every
//      rank stalls at the barrier behind a slow collective).
//   3. Remaining step-alert ranges are traced to a compute origin: a rank
//      is blamed by its *self time* — the inferred-compute duration
//      immediately preceding its pp_send events, i.e. work the rank did
//      itself before handing off — scored against that rank's own median
//      across the window. Victims inherit lateness through recv; only the
//      culprit stretches recv->send. TP siblings share the excess (TP is
//      intra-machine, invisible in flows) and are reported as co-culprits.
//   Alerts no rule can explain are counted orphaned, never guessed at.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "llmprism/common/ids.hpp"
#include "llmprism/core/comm_type.hpp"
#include "llmprism/core/diagnosis.hpp"
#include "llmprism/core/timeline.hpp"
#include "llmprism/flow/view.hpp"

namespace llmprism {

class ThreadPool;

/// What kind of vertex a ranked culprit names.
enum class CulpritKind : std::uint8_t { kRank, kDpGroup, kSwitch };

[[nodiscard]] constexpr std::string_view to_string(CulpritKind k) {
  switch (k) {
    case CulpritKind::kRank: return "rank";
    case CulpritKind::kDpGroup: return "dp_group";
    case CulpritKind::kSwitch: return "switch";
  }
  return "?";
}

/// One ranked root-cause candidate. Exactly the field matching `kind` is
/// meaningful (gpu for kRank, dp_group_index for kDpGroup, switch_id for
/// kSwitch); the others stay at their invalid/zero defaults.
struct Culprit {
  CulpritKind kind = CulpritKind::kRank;
  GpuId gpu;
  std::size_t dp_group_index = 0;
  SwitchId switch_id;
  /// Blame score: relative excess over the candidate's own baseline
  /// (self-time excess for ranks, alert depth for groups and switches).
  double score = 0;

  friend bool operator==(const Culprit&, const Culprit&) = default;
};

/// Which detector's alert a victim entry accounts for.
enum class VictimKind : std::uint8_t { kStepAlert, kGroupAlert };

/// One alert explained by an incident but NOT at its origin: a symptom the
/// fault propagated to. `job` names the owning job (useful on
/// cluster-level switch incidents, which collect victims across jobs).
struct Victim {
  VictimKind kind = VictimKind::kStepAlert;
  JobId job;
  GpuId gpu;                       ///< kStepAlert: the alerted rank
  std::size_t dp_group_index = 0;  ///< kGroupAlert: the alerted ring
  std::size_t step_index = 0;
  /// Dependency-graph distance (BFS over PP + DP edges) from the origin
  /// vertex set; 0 = no path found in the recovered graph.
  std::size_t hops = 0;

  friend bool operator==(const Victim&, const Victim&) = default;
};

/// Alert counts an incident accounts for (its own origin evidence plus its
/// victims) — deterministic event counts, like all report telemetry.
struct IncidentEvidence {
  std::uint64_t step_alerts = 0;
  std::uint64_t group_alerts = 0;
  std::uint64_t switch_bandwidth_alerts = 0;
  std::uint64_t switch_concurrency_alerts = 0;

  friend bool operator==(const IncidentEvidence&,
                         const IncidentEvidence&) = default;
};

/// One root cause and everything it explains.
struct AttributedIncident {
  /// Owning job; invalid() for cluster-level switch incidents (a degraded
  /// switch is not any tenant's fault).
  JobId job;
  /// Flagged reconstructed-step range (inclusive); 0/0 for cluster-level
  /// incidents, whose victims carry their own per-job step indices.
  std::size_t step_begin = 0;
  std::size_t step_end = 0;
  /// Root-cause candidates ranked by score, best first. culprits[0] is THE
  /// origin; later entries are indistinguishable co-culprits (TP siblings
  /// share one machine and one flow signature) or weaker alternatives.
  std::vector<Culprit> culprits;
  std::vector<Victim> victims;
  /// How separable the top culprit was from the best non-origin candidate,
  /// in [0, 1]: 1 = no competitor came close, 0 = a coin flip.
  double confidence = 0;
  IncidentEvidence evidence;

  friend bool operator==(const AttributedIncident&,
                         const AttributedIncident&) = default;
};

struct AttributionConfig {
  /// Minimum relative self-time excess for a rank to be blamable. Below
  /// this no compute origin is named and the range's alerts are orphaned
  /// (never guess). Jitter sits at a few percent; real stragglers at 2x.
  double min_compute_excess = 0.25;
  /// Ranks whose excess reaches this fraction of the top score join the
  /// origin cluster as co-culprits (TP siblings are indistinguishable).
  double origin_cluster_ratio = 0.5;
  /// Ranked-culprit list length cap per incident.
  std::size_t max_culprits = 8;
  /// Flagged steps at most this far apart merge into one incident.
  std::size_t merge_step_gap = 1;
};

/// Deterministic outcome counters of one attribute() call.
struct AttributionTelemetry {
  std::uint64_t alerts_explained = 0;  ///< alerts some incident accounts for
  std::uint64_t alerts_orphaned = 0;   ///< alerts no rule could explain

  friend bool operator==(const AttributionTelemetry&,
                         const AttributionTelemetry&) = default;
};

struct AttributionResult {
  /// Sorted: per-job incidents by (job, step range, origin), then
  /// cluster-level switch incidents by switch id.
  std::vector<AttributedIncident> incidents;
  AttributionTelemetry telemetry;
};

/// Per-job view the attributor consumes — exactly what JobAnalysis holds,
/// passed as pointers/spans so this header does not depend on prism.hpp.
struct JobAttributionInput {
  JobId id;
  /// The job's flows (sorted, columnar — what JobAnalysis holds).
  const FlowColumns* trace = nullptr;
  const CommTypeResult* comm_types = nullptr;  ///< pairs + DP components
  std::span<const GpuTimeline> timelines;
  std::span<const StepAlert> step_alerts;
  std::span<const GroupAlert> group_alerts;
};

class Attributor {
 public:
  explicit Attributor(AttributionConfig config = {});

  /// Attribute every alert of one analyzed window. Pure: the same inputs
  /// produce the same incidents, bit for bit, regardless of how the
  /// per-job fan-out that produced them was scheduled. The jobs are walked
  /// in order on the calling thread; only the per-rank self times of a job
  /// with unclaimed step alerts fan out on `pool`, one rank per task into
  /// its own slot, so the result is the same at every lane count.
  [[nodiscard]] AttributionResult attribute(
      std::span<const JobAttributionInput> jobs,
      std::span<const SwitchBandwidthAlert> switch_bandwidth_alerts,
      std::span<const SwitchConcurrencyAlert> switch_concurrency_alerts,
      ThreadPool* pool = nullptr) const;

  // Building blocks, exposed for direct testing.

  /// Per reconstructed step, the rank's self time: total inferred-compute
  /// duration immediately preceding each pp_send in that step (seconds).
  /// Zero for ranks that never send PP traffic (pp = 1).
  [[nodiscard]] static std::vector<double> step_self_times(
      const GpuTimeline& timeline);

  /// Switch ids traversed by each DP component's flows (ascending, unique;
  /// one entry per component, aligned with `dp_components`).
  /// Reads src/dst plus the CSR switch paths; no FlowRecord is
  /// materialized.
  [[nodiscard]] static std::vector<std::vector<SwitchId>> group_switch_sets(
      const FlowView& job_flows,
      const std::vector<std::vector<GpuId>>& dp_components);

 private:
  AttributionConfig config_;
};

}  // namespace llmprism
