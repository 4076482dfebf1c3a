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
#include <vector>

#include "llmprism/common/ids.hpp"
#include "llmprism/common/time.hpp"
#include "llmprism/core/timeline.hpp"
#include "llmprism/flow/view.hpp"

namespace llmprism {

/// Dispersion estimator for the k-sigma rule.
///  - kStddev: mean center, standard deviation (the classic 3-sigma rule
///    the paper cites, hardened by leave-one-out below);
///  - kMad: median center, 1.4826 x median-absolute-deviation — fully
///    robust, survives several simultaneous outliers in one series.
enum class Dispersion : std::uint8_t { kStddev, kMad };

struct KSigmaConfig {
  double k = 3.0;
  Dispersion dispersion = Dispersion::kStddev;
  /// Below this many samples the detector abstains (mean/sigma unstable).
  std::size_t min_samples = 6;
  /// Score each point against the statistics of the OTHER points. Without
  /// this a single gross outlier inflates its own sigma and masks itself —
  /// with n samples the maximum attainable z-score is (n-1)/sqrt(n), so a
  /// global 3-sigma rule can never fire for n <= 9 (e.g. 8 DP groups).
  bool leave_one_out = true;
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

struct DiagnosisConfig {
  KSigmaConfig ksigma;
  /// k-sigma settings for the cross-switch comparison. Defaults to the
  /// robust median/MAD mode: a fabric incident often degrades SEVERAL
  /// switches at once, and simultaneous outliers mask each other under a
  /// stddev-based rule (even leave-one-out removes only one of them).
  KSigmaConfig switch_ksigma{.dispersion = Dispersion::kMad};
  /// Concurrent distinct DP flows a switch is provisioned for.
  std::size_t switch_dp_flow_limit = 256;
  /// Percentile of per-flow bandwidth used as a switch's health score (see
  /// switch_bandwidth()).
  double switch_health_percentile = 90.0;
};

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

/// How cross_step_carried() consumes an EwmaBaseline.
struct EwmaStepPolicy {
  /// EWMA smoothing factor for the carried mean/variance.
  double alpha = 0.2;
  /// Baseline observations required before the carried rule may score a
  /// step (mirrors KSigmaConfig::min_samples, but counted across windows).
  std::size_t min_samples = 6;
};

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
  /// against the carried baseline instead, so a straggler step is caught
  /// from the second window on. Every scorable step duration is folded
  /// into `baseline` afterwards. Baseline-sourced alerts are appended to
  /// the returned vector and counted in `*ewma_alerts` (when non-null);
  /// they are NOT added to `stats` (so report telemetry for the window-
  /// local rule stays field-for-field equal to the cold path).
  [[nodiscard]] std::vector<StepAlert> cross_step_carried(
      const GpuTimeline& timeline, EwmaBaseline& baseline,
      const EwmaStepPolicy& policy, KSigmaStats* stats = nullptr,
      std::uint64_t* ewma_alerts = nullptr) const;

  /// Cross-group diagnosis. durations[g][k] = DP duration (seconds) of
  /// group g in step k; rows may have differing lengths (partial windows) —
  /// each step uses the groups that observed it.
  [[nodiscard]] std::vector<GroupAlert> cross_group(
      const std::vector<std::vector<double>>& group_step_durations,
      KSigmaStats* stats = nullptr) const;

  /// Per-switch DP bandwidth degradation. `dp_flows` must contain only
  /// flows classified DP (caller filters via CommTypeResult).
  ///
  /// Each switch is scored by a high quantile (see
  /// DiagnosisConfig::switch_health_percentile) of its per-flow bandwidth
  /// rather than the mean: a flow throttled by a bad switch drags down the
  /// observed bandwidth of EVERY hop on its path, but healthy switches
  /// still carry fast flows on their unpolluted paths — so "even the best
  /// flows are slow" isolates the switch that is itself the bottleneck.
  ///
  /// Per-switch sample gather over the CSR hop columns, dense tables
  /// instead of hash maps.
  [[nodiscard]] std::vector<SwitchBandwidthAlert> switch_bandwidth(
      const FlowView& dp_flows, KSigmaStats* stats = nullptr) const;

  /// Peak concurrent distinct DP flows per switch vs. the configured limit.
  [[nodiscard]] std::vector<SwitchConcurrencyAlert> switch_concurrency(
      const FlowView& dp_flows) const;

  /// Helper: per-switch average DP bandwidth (Gb/s), for reporting (Fig. 5
  /// plots these series).
  [[nodiscard]] static std::vector<std::pair<SwitchId, double>>
  per_switch_bandwidth(const FlowView& dp_flows);

  /// Helper: per-switch p-th percentile of per-flow DP bandwidth (Gb/s).
  [[nodiscard]] static std::vector<std::pair<SwitchId, double>>
  per_switch_bandwidth_percentile(const FlowView& dp_flows, double p);

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

// ---------------------------------------------------------------------------
// Temporal switch analysis: when did a switch's bandwidth degrade?
// (§IV-D's per-step bandwidth degradation analysis, generalized to time
// buckets so it also works across jobs with different step lengths.)

/// One switch's bandwidth over time. Only buckets that saw DP traffic are
/// present; `bucket_begin[i]` is the start of the bucket whose average
/// bandwidth is `gbps[i]`.
struct SwitchBandwidthSeries {
  SwitchId switch_id;
  std::vector<TimeNs> bucket_begin;
  std::vector<double> gbps;
};

/// Bucket every switch's DP-flow bandwidth over time.
[[nodiscard]] std::vector<SwitchBandwidthSeries> switch_bandwidth_timeline(
    const FlowView& dp_flows, DurationNs bucket = 10 * kSecond);

/// A detected persistent bandwidth drop on one switch.
struct BandwidthOnset {
  SwitchId switch_id;
  TimeNs onset = 0;         ///< begin of the first degraded bucket
  double before_gbps = 0;   ///< mean level before the onset
  double after_gbps = 0;    ///< mean level from the onset on
};

struct OnsetDetectorConfig {
  BocdConfig bocd;
  /// Report only drops to below (1 - min_drop) of the prior level.
  double min_drop = 0.3;
  /// Series shorter than this are skipped.
  std::size_t min_buckets = 8;
};

/// Detect the first persistent downward level shift of each switch's
/// bandwidth series via BOCD (values are normalized by the series median,
/// so one detector configuration serves all fabrics).
[[nodiscard]] std::vector<BandwidthOnset> detect_bandwidth_onsets(
    std::span<const SwitchBandwidthSeries> series,
    const OnsetDetectorConfig& config = {});

}  // namespace llmprism
