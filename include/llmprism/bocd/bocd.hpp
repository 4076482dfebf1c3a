// Bayesian Online Changepoint Detection (Adams & MacKay, 2007).
//
// The paper (§IV-B) divides a pair's flow sequence into training steps by
// running BOCD over the inter-flow interval sequence: intervals within a
// step are short and stable, the gap between steps is a gross outlier, so
// the run-length posterior collapses to r = 0 at step boundaries. A
// changepoint is reported when P(r_t = 0) exceeds a threshold (0.95 in the
// paper and by default here).
//
// Observation model: Normal with unknown mean and variance under a
// Normal-Inverse-Gamma conjugate prior, giving a Student-t posterior
// predictive. The run-length distribution is pruned below a mass floor, so
// each observation costs O(active run lengths) — linear time overall.
//
// Engine layout (DESIGN.md §15): hypothesis state lives in parallel flat
// arrays (structure of arrays), not a vector of structs. Only run length,
// probability, posterior mean and posterior beta are stored — kappa and
// alpha are exact affine functions of the run length (kappa = prior_kappa
// + r, alpha = prior_alpha + r/2, both exact in binary floating point for
// the half-integral priors the config requires), so they are derived,
// never stored. observe_batch() drives a whole series through the kernel with
// zero allocations after warm-up; prune_mass, max_run_length and the
// normalizing division are folded into one forward compaction pass.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "llmprism/common/time.hpp"

namespace llmprism {

struct BocdConfig {
  /// Expected run length between changepoints; hazard H = 1/lambda.
  double hazard_lambda = 64.0;
  /// Report a changepoint when the recent-run mass P(r_t <= recent_run_cap)
  /// exceeds this (paper: 0.95 on P(r_t = 0)).
  double changepoint_threshold = 0.95;

  /// Run lengths counted as "a changepoint just occurred". With the
  /// boundary observation excluded from the new run (see observe()), the
  /// hypotheses "changepoint at t" (r = 0), "changepoint at t-1 with x_t
  /// opening the new run" (r = 1), and so on genuinely compete and split
  /// the posterior mass; summing r <= cap recovers the paper's detection
  /// semantics with a robust margin.
  std::size_t recent_run_cap = 2;

  // Normal-Inverse-Gamma prior on (mean, variance) of the observations.
  double prior_mean = 0.0;
  double prior_kappa = 0.5;   ///< pseudo-observations for the mean
  /// Shape of the variance prior. Must be half-integral (0.5, 1, 1.5, ...):
  /// the predictive's degrees of freedom nu = 2*prior_alpha + r are then
  /// integers, which the linear-space Student-t kernel relies on.
  double prior_alpha = 1.0;
  double prior_beta = 1.0;    ///< scale of the variance prior

  /// Run-length hypotheses with posterior mass below this are dropped.
  double prune_mass = 1e-6;
  /// Keep at most this many run-length hypotheses (the most probable ones;
  /// the run-length-0 hypothesis is always kept). On high-variance streams
  /// the posterior tail decays only like (1-hazard)^age, so a mass floor
  /// alone can leave hundreds of live components — this cap bounds the
  /// per-observation cost. Gap detection consults only the youngest few
  /// run lengths and the MAP run, both of which are decided by orders-of-
  /// magnitude likelihood ratios, so a tight cap leaves every boundary
  /// decision unchanged (the differential suite pins this on the fixture
  /// series) while making the kernel ~3x cheaper than the conservative
  /// cap of 64 the detector originally shipped with.
  std::size_t max_components = 8;
  /// Hard cap on tracked run lengths (bounds memory on pathological input).
  std::size_t max_run_length = 1u << 20;

  /// One message per violated bound, each naming its field; empty when the
  /// detector can run this configuration. BocdDetector throws
  /// std::invalid_argument on the first one.
  [[nodiscard]] std::vector<std::string> validate() const;
};

/// Per-observation posterior readout of one observe_batch() step — exactly
/// the three quantities the segmenters consult, recorded at the point the
/// observation was absorbed (the same values the per-observation accessors
/// would have returned after observe()).
struct BocdReadout {
  double cp_probability = 0.0;      ///< P(r_t = 0 | x_1..t)
  double recent_probability = 0.0;  ///< P(r_t <= recent_run_cap | x_1..t)
  std::uint32_t map_run_length = 0; ///< argmax_r P(r_t = r | x_1..t)
};

/// Online BOCD detector. Feed observations one at a time with observe(), or
/// a whole series with observe_batch() — both run the same structure-of-
/// arrays kernel, so the batch is bit-identical to the loop by construction.
class BocdDetector {
 public:
  explicit BocdDetector(BocdConfig config = {});

  /// Process one observation; returns P(r_t = 0 | x_1..t).
  double observe(double x);

  /// Process a whole series (equivalent to calling observe() per element).
  void observe_batch(std::span<const double> xs);

  /// Same, recording the per-observation posterior readout into `out`
  /// (`out.size()` must equal `xs.size()`). This is the segmentation fast
  /// path: one call per series, no virtual dispatch, no allocation.
  void observe_batch(std::span<const double> xs, std::span<BocdReadout> out);

  /// Whether the most recent observation crossed the changepoint threshold.
  /// The first few observations never flag (a stream start is not a
  /// changepoint).
  [[nodiscard]] bool last_was_changepoint() const {
    return t_ > config_.recent_run_cap + 1 &&
           last_recent_probability_ > config_.changepoint_threshold;
  }
  /// P(r_t = 0 | x_1..t) after the last observation.
  [[nodiscard]] double last_cp_probability() const {
    return last_cp_probability_;
  }
  /// P(r_t <= recent_run_cap | x_1..t) after the last observation.
  [[nodiscard]] double last_recent_probability() const {
    return last_recent_probability_;
  }

  /// Maximum a-posteriori run length after the last observation.
  [[nodiscard]] std::size_t map_run_length() const {
    return last_map_run_length_;
  }

  [[nodiscard]] std::size_t observations_seen() const { return t_; }

  /// Degenerate restarts: observations under which EVERY hypothesis had
  /// (numerically) zero likelihood, forcing a hard reset from the prior.
  /// A nonzero count on well-conditioned input is a mis-tuned prior.
  [[nodiscard]] std::size_t hard_resets() const { return hard_resets_; }

  /// Restore the single-prior-hypothesis start state. Keeps the cached
  /// Student-t coefficient tables (they depend only on the prior shape).
  void reset();

  /// Re-arm the detector for a new series under a possibly different
  /// configuration (the pooled-reuse path). The predictive coefficient
  /// cache depends only on (prior_alpha, prior_kappa) and is preserved
  /// whenever those match the previous configuration — this is what makes
  /// a pooled detector cheaper than a fresh one: the cache is the
  /// expensive part (two lgamma and one exp per run length).
  void reconfigure(const BocdConfig& config);

  [[nodiscard]] const BocdConfig& config() const { return config_; }

 private:
  /// Per-run-length constants of the fast predictive and the conjugate
  /// update; everything data-independent (run length fixes nu, kappa,
  /// alpha — only beta and the mean vary with the absorbed observations).
  /// Caching the reciprocals turns the two per-hypothesis divisions of the
  /// posterior update into multiplications.
  struct PredictiveCoeff {
    double norm = 0.0;          ///< Gamma ratio / sqrt(nu * pi)
    double inv_nu = 0.0;        ///< 1 / nu
    double kappa_factor = 0.0;  ///< (kappa+1) / (alpha*kappa); s2 = beta * kf
    double kappa = 0.0;         ///< prior_kappa + r
    double inv_kappa1 = 0.0;    ///< 1 / (kappa + 1)
    double half_ratio = 0.0;    ///< kappa / (2 * (kappa + 1))
    std::size_t power = 0;      ///< nu + 1 (integer by construction)
  };

  /// One observation through the SoA kernel; refreshes every last_* field.
  void step(double x);

  /// Posterior predictive density of a run-length-r hypothesis at x.
  [[nodiscard]] double predictive(std::uint32_t run_length, double mean,
                                  double beta, double x) const;
  /// Extend the coefficient table to cover run lengths [0, max_run].
  void ensure_coeffs(std::size_t max_run) const;

  BocdConfig config_;

  // ---- hypothesis state, structure of arrays ----
  // Slot 0 is always the youngest (run-length-0) hypothesis. kappa/alpha
  // are derived from run_length_, so four arrays carry the full state.
  std::size_t size_ = 0;                     ///< live hypotheses
  std::vector<std::uint32_t> run_length_;
  std::vector<double> probability_;
  std::vector<double> mean_;
  std::vector<double> beta_;
  // Double buffer for the grow step (growth reads slot i while writing
  // slot i+1, so it cannot run in place); swapped back each observation.
  // Both buffers hold their slots in strictly ascending run-length order.
  std::vector<std::uint32_t> next_run_length_;
  std::vector<double> next_probability_;
  std::vector<double> next_mean_;
  std::vector<double> next_beta_;
  std::uint32_t max_run_ = 0;  ///< max live run length (the last slot's)

  mutable std::vector<PredictiveCoeff> predictive_coeff_cache_;

  double last_cp_probability_ = 0.0;
  double last_recent_probability_ = 0.0;
  std::uint32_t last_map_run_length_ = 0;
  std::size_t t_ = 0;
  std::size_t hard_resets_ = 0;
};

/// Thread-local pooled detector, re-armed for `config`. Every series
/// segmented on a thread reuses one detector object — and, when the prior
/// shape matches the previous series (it almost always does; only
/// prior_mean / prior_beta vary per series), the cached per-run-length
/// Student-t coefficient tables survive, eliminating the per-series
/// lgamma/exp rebuild that dominated fresh construction. Reuses are not
/// counted: which worker thread serves a series varies from run to run, so
/// a reuse count would too. The reference stays valid for the thread's
/// lifetime; the next pooled_detector() call invalidates the
/// detector's STATE (not the reference), so finish one series before
/// acquiring the pool for the next.
[[nodiscard]] BocdDetector& pooled_detector(const BocdConfig& config);

/// Batch convenience: indices i (into `xs`) where P(r_i = 0) crossed the
/// threshold.
[[nodiscard]] std::vector<std::size_t> detect_changepoints(
    std::span<const double> xs, const BocdConfig& config = {});

/// Deterministic per-call work/outcome counters of segment_by_gaps —
/// telemetry the pipeline folds into PrismReport::telemetry. Pure event
/// counts (no wall clock), so totals are thread-count-invariant.
struct SegmenterStats {
  std::uint64_t observations = 0;  ///< BOCD observations consumed
  std::uint64_t boundaries = 0;    ///< segment boundaries opened
  std::uint64_t hard_resets = 0;   ///< degenerate detector restarts

  SegmenterStats& operator+=(const SegmenterStats& other) {
    observations += other.observations;
    boundaries += other.boundaries;
    hard_resets += other.hard_resets;
    return *this;
  }
};

/// The interval series segment_by_gaps() runs BOCD over, built from a
/// sorted timestamp sequence: near-simultaneous arrivals coalesced into
/// groups, the log inter-group intervals, their median (the detector's
/// prior mean) and the magnitude guard a boundary's interval must exceed.
struct GapSeries {
  /// groups[k] is the index (into the timestamps) of the first arrival of
  /// coalesced group k; empty only for an empty sequence.
  std::vector<std::size_t> groups;
  /// log(interval + 1 ns) between groups k and k + 1.
  std::vector<double> log_intervals;
  /// Median log interval (upper median); 0 when there is no interval.
  double median = 0.0;
  /// median + log(kGapGuardFactor).
  double guard = 0.0;

  /// Whether interval i may open a segment at all: it lies past the first
  /// `recent_run_cap + 1` intervals (where BOCD never flags) and exceeds
  /// the guard. Every segment boundary segment_by_gaps() returns is
  /// groups[i + 1] for a candidate i, so each segment is a union of
  /// consecutive candidate runs — whatever the detector decides.
  [[nodiscard]] bool is_candidate(std::size_t i,
                                  const BocdConfig& config = {}) const {
    return i + 1 > config.recent_run_cap + 1 && log_intervals[i] > guard;
  }
};

/// Build the gap series of a sorted timestamp sequence (the coalescing
/// window and the guard factor are constants of bocd.cpp). Throws
/// std::invalid_argument on unsorted input of two or more timestamps.
[[nodiscard]] GapSeries build_gap_series(std::span<const TimeNs> timestamps);

/// Segment a sorted timestamp sequence at "large gap" boundaries.
///
/// Coalesces near-simultaneous arrivals, computes inter-arrival intervals,
/// log-transforms them (making the short intra-step intervals approximately
/// Gaussian and a step gap a gross outlier), runs BOCD over the whole
/// interval series in one observe_batch() call on the pooled detector, and
/// returns the indices (into the ORIGINAL sequence) of the first element of
/// each segment (always including 0). `config` is the detector's; its
/// prior_mean is replaced by the series' median log interval. The pipeline
/// always passes the default; the coalescing window and the gap guard are
/// constants of bocd.cpp. When `stats` is non-null the call's BOCD work
/// counters are accumulated into it.
[[nodiscard]] std::vector<std::size_t> segment_by_gaps(
    std::span<const TimeNs> timestamps, const BocdConfig& config = {},
    SegmenterStats* stats = nullptr);

/// segment_by_gaps() over a series already built by build_gap_series() —
/// for callers that inspect the candidates before running the detector.
[[nodiscard]] std::vector<std::size_t> segment_gap_series(
    const GapSeries& series, const BocdConfig& config = {},
    SegmenterStats* stats = nullptr);

}  // namespace llmprism
