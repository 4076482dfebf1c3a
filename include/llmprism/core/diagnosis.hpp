// Multi-dimensional performance diagnosis (paper §IV-D).
//
// Three detectors over reconstructed timelines, all driven by one k-sigma
// rule (k = 3 by default; no tuned thresholds):
//  * cross-step   — a step whose duration exceeds mean + k*sigma of the
//                   job's step-duration series signals fail-slow,
//  * cross-group  — within one step, a DP group whose collective duration
//                   exceeds the across-group mean + k*sigma points at a
//                   network problem on that group's ring,
//  * switch-level — (a) concurrent distinct DP flows above a configured
//                   limit flag configuration-induced congestion; (b) a
//                   switch whose average DP bandwidth falls below the
//                   across-switch mean - k*sigma is a bottleneck suspect.
//
// Note: the paper's sigma formula (mean of signed deviations) is a typo —
// it is identically zero. We implement the standard deviation, plus a
// mean-absolute-deviation variant, selectable via Dispersion.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "llmprism/common/ids.hpp"
#include "llmprism/common/time.hpp"
#include "llmprism/core/timeline.hpp"
#include "llmprism/flow/view.hpp"

namespace llmprism {

class ThreadPool;

/// Dispersion estimator for the k-sigma rule.
///  - kStddev: mean center, standard deviation (the classic 3-sigma rule
///    the paper cites);
///  - kMad: median center, 1.4826 x median-absolute-deviation — fully
///    robust, survives several simultaneous outliers in one series.
enum class Dispersion : std::uint8_t { kStddev, kMad };

struct KSigmaConfig {
  double k = 3.0;
  Dispersion dispersion = Dispersion::kStddev;
  /// Below this many samples the detector abstains (mean/sigma unstable).
  std::size_t min_samples = 6;
  /// A point must also exceed the reference mean by this relative margin;
  /// guards against statistically-significant-but-tiny deviations on very
  /// stable series (a 5% slower step is not an actionable incident, a 2x
  /// one is).
  double min_relative_excess = 0.2;
};

/// Deterministic work counters of the k-sigma rule: how many series and
/// points were scored and how many alerts fired. Without these, "the
/// detector ran but found nothing" and "the detector abstained on every
/// series" are indistinguishable. Event counts only (no wall clock) so
/// totals are thread-count-invariant.
struct KSigmaStats {
  /// Series handed to the rule, including ones it abstained on
  /// (size < min_samples).
  std::uint64_t series = 0;
  /// Points actually scored (abstained series contribute none).
  std::uint64_t points = 0;
  /// Outliers reported.
  std::uint64_t alerts = 0;

  KSigmaStats& operator+=(const KSigmaStats& other) {
    series += other.series;
    points += other.points;
    alerts += other.alerts;
    return *this;
  }
};

/// Indices i with xs[i] > mean + k*sigma (and above the relative margin).
/// Each point is scored leave-one-out: against the mean and sigma of the
/// OTHER points.
[[nodiscard]] std::vector<std::size_t> ksigma_outliers_above(
    std::span<const double> xs, const KSigmaConfig& config,
    KSigmaStats* stats = nullptr);
/// Indices i with xs[i] < mean - k*sigma (and below the relative margin).
[[nodiscard]] std::vector<std::size_t> ksigma_outliers_below(
    std::span<const double> xs, const KSigmaConfig& config,
    KSigmaStats* stats = nullptr);

// ---------------------------------------------------------------------------

struct StepAlert {
  GpuId gpu;               ///< rank whose timeline flagged the step
  std::size_t step_index = 0;
  double duration_s = 0;   ///< observed step duration
  double mean_s = 0;       ///< series mean
  double threshold_s = 0;  ///< mean + k*sigma
};

struct GroupAlert {
  std::size_t group_index = 0;  ///< index into the DP components
  std::size_t step_index = 0;
  double duration_s = 0;
  double mean_s = 0;       ///< across-group mean in this step
  double threshold_s = 0;
};

struct SwitchBandwidthAlert {
  SwitchId switch_id;
  double bandwidth_gbps = 0;  ///< this switch's average DP bandwidth
  double mean_gbps = 0;       ///< across-switch mean
  double threshold_gbps = 0;  ///< mean - k*sigma
};

struct SwitchConcurrencyAlert {
  SwitchId switch_id;
  TimeNs at = 0;                      ///< when the peak was reached
  std::size_t concurrent_flows = 0;   ///< distinct simultaneous DP flows
  std::size_t limit = 0;
};

/// Per-switch samples of DP flows: a CSR keyed by switch id, one sample
/// per (flow, hop). Switch s's samples are rows offsets[s] .. offsets[s+1]
/// of the three sample columns, in input row order — so an in-order sum
/// over a slice sees the samples in the order of a pass over the flows.
/// The switch checks consume the table: each slice's bandwidths are
/// compacted in place, and the concurrency sweep sorts its ends (and its
/// starts, when the input was unsorted) in place.
struct SwitchSamples {
  /// bandwidth_gbps of a sample whose flow has duration_ns <= 0: it counts
  /// toward concurrency but not toward bandwidth.
  static constexpr double kNoBandwidth = -1.0;

  SwitchSamples() = default;
  /// The hops of every row of `view` whose `keep` byte is non-zero (every
  /// row when `keep` is empty). `chunks` are row boundaries as from
  /// row_chunks(); each chunk counts its samples per switch, a prefix sum
  /// over (switch, chunk) gives every chunk its write offsets, and each
  /// chunk scatters its samples — one task per chunk on `pool`. The table
  /// is the same for every chunk plan and lane count.
  SwitchSamples(const FlowView& view, std::span<const std::size_t> chunks,
                std::span<const std::uint8_t> keep = {},
                ThreadPool* pool = nullptr);

  /// Switch-id slots: one past the highest switch id on any row's path,
  /// kept or not (0 when no row has a hop). A slot without samples is an
  /// empty slice.
  [[nodiscard]] std::size_t num_switches() const {
    return offsets.empty() ? 0 : offsets.size() - 1;
  }

  std::vector<std::size_t> offsets;  ///< num_switches() + 1, or empty
  std::vector<TimeNs> start_ns;
  std::vector<TimeNs> end_ns;
  std::vector<double> bandwidth_gbps;  ///< kNoBandwidth: duration <= 0
};

/// The cluster-wide switch checks' output, as PrismReport carries it.
struct SwitchDiagnosis {
  /// Per-switch mean DP bandwidth (Diagnoser::per_switch_bandwidth).
  std::vector<std::pair<SwitchId, double>> bandwidth_gbps;
  std::vector<SwitchBandwidthAlert> bandwidth_alerts;
  std::vector<SwitchConcurrencyAlert> concurrency_alerts;
};

struct DiagnosisConfig {
  /// Concurrent distinct DP flows a switch is provisioned for.
  std::size_t switch_dp_flow_limit = 256;
};

/// Percentile of per-flow bandwidth used as a switch's health score (see
/// switch_bandwidth()).
inline constexpr double kSwitchHealthPercentile = 90.0;

/// Exponentially weighted running baseline of one scalar series (a GPU's
/// step durations), carried across analysis windows by PrismSession. The
/// variance uses the standard EWMA recurrence (var absorbs diff * incr), so
/// one struct needs no history yet tracks slow drift.
struct EwmaBaseline {
  double mean = 0.0;
  double var = 0.0;
  std::uint64_t count = 0;  ///< observations absorbed (across windows)

  void observe(double x, double alpha) {
    if (count == 0) {
      mean = x;
      var = 0.0;
    } else {
      const double diff = x - mean;
      const double incr = alpha * diff;
      mean += incr;
      var = (1.0 - alpha) * (var + diff * incr);
    }
    ++count;
  }

  [[nodiscard]] double sigma() const { return var > 0.0 ? std::sqrt(var) : 0.0; }
};

/// EWMA smoothing factor for the step baselines cross_step_carried() folds.
inline constexpr double kEwmaAlpha = 0.2;
/// Baseline observations required before the carried rule may score a step
/// (mirrors KSigmaConfig::min_samples, but counted across windows).
inline constexpr std::size_t kEwmaMinSamples = 6;

class Diagnoser {
 public:
  explicit Diagnoser(DiagnosisConfig config = {});

  /// Cross-step diagnosis over one GPU's reconstructed steps. When `stats`
  /// is non-null, the k-sigma work counters accumulate into it.
  [[nodiscard]] std::vector<StepAlert> cross_step(
      const GpuTimeline& timeline, KSigmaStats* stats = nullptr) const;

  /// Cross-step over many timelines (concatenated alerts).
  [[nodiscard]] std::vector<StepAlert> cross_step(
      std::span<const GpuTimeline> timelines,
      KSigmaStats* stats = nullptr) const;

  /// Cross-step with a cross-window baseline (the session warm path).
  /// Runs the plain window-local rule first — identical alerts to
  /// cross_step() — then, when the window alone is too short for that rule
  /// to fire (fewer than min_samples scorable steps), scores each step
  /// against the carried baseline instead (once it holds kEwmaMinSamples
  /// observations), so a straggler step is caught from the second window
  /// on. Every scorable step duration is folded into `baseline` afterwards
  /// with smoothing kEwmaAlpha. Baseline-sourced alerts are appended to
  /// the returned vector and counted in `*ewma_alerts` (when non-null);
  /// they are NOT added to `stats` (so report telemetry for the window-
  /// local rule stays field-for-field equal to the cold path).
  [[nodiscard]] std::vector<StepAlert> cross_step_carried(
      const GpuTimeline& timeline, EwmaBaseline& baseline,
      KSigmaStats* stats = nullptr,
      std::uint64_t* ewma_alerts = nullptr) const;

  /// Cross-group diagnosis. durations[g][k] = DP duration (seconds) of
  /// group g in step k; rows may have differing lengths (partial windows) —
  /// each step uses the groups that observed it.
  [[nodiscard]] std::vector<GroupAlert> cross_group(
      const std::vector<std::vector<double>>& group_step_durations,
      KSigmaStats* stats = nullptr) const;

  /// All three switch checks from one sample table: one task per switch
  /// on `pool` computes, from its own slice, the in-order mean bandwidth,
  /// the health percentile (positive-duration samples only) and the
  /// concurrency sweep (every sample). Results are compacted in switch-id
  /// order, so they are identical to the null-pool loop.
  [[nodiscard]] SwitchDiagnosis diagnose_switches(
      SwitchSamples samples, KSigmaStats* stats = nullptr,
      ThreadPool* pool = nullptr) const;

  // The FlowView checks below build a sample table over every row of
  // `dp_flows` and run the same per-switch code as diagnose_switches.
  // `dp_flows` must contain only flows classified DP.

  /// Per-switch DP bandwidth degradation.
  ///
  /// Each switch is scored by a high quantile (kSwitchHealthPercentile) of
  /// its per-flow bandwidth rather than the mean: a flow throttled by a bad
  /// switch drags down the observed bandwidth of EVERY hop on its path, but
  /// healthy switches still carry fast flows on their unpolluted paths — so
  /// "even the best flows are slow" isolates the switch that is itself the
  /// bottleneck.
  [[nodiscard]] std::vector<SwitchBandwidthAlert> switch_bandwidth(
      const FlowView& dp_flows, KSigmaStats* stats = nullptr,
      ThreadPool* pool = nullptr) const;

  /// Peak concurrent distinct DP flows per switch vs. the configured limit.
  [[nodiscard]] std::vector<SwitchConcurrencyAlert> switch_concurrency(
      const FlowView& dp_flows, ThreadPool* pool = nullptr) const;

  /// Helper: per-switch average DP bandwidth (Gb/s), for reporting (Fig. 5
  /// plots these series).
  [[nodiscard]] static std::vector<std::pair<SwitchId, double>>
  per_switch_bandwidth(const FlowView& dp_flows);

  /// Helper: per-switch p-th percentile of per-flow DP bandwidth (Gb/s).
  [[nodiscard]] static std::vector<std::pair<SwitchId, double>>
  per_switch_bandwidth_percentile(const FlowView& dp_flows, double p,
                                  ThreadPool* pool = nullptr);

 private:
  DiagnosisConfig config_;
};

/// Extract the per-(group, step) DP duration matrix from reconstructed
/// timelines, using the recovered DP components: a group's DP duration in
/// step k spans from the earliest member dp_begin to the latest member
/// dp_end. Rows are truncated to the steps every member observed.
[[nodiscard]] std::vector<std::vector<double>> group_dp_durations(
    std::span<const GpuTimeline> timelines,
    const std::vector<std::vector<GpuId>>& dp_components);

}  // namespace llmprism
