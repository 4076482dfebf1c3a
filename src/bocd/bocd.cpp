#include "llmprism/bocd/bocd.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>

namespace llmprism {

namespace {

/// Thread-safe log-gamma. libc's lgamma() writes the process-global
/// `signgam`, which races when per-job analysis tasks run BOCD
/// concurrently; every argument here is positive, so the sign is discarded.
double lgamma_positive(double x) {
#if defined(__GLIBC__) || defined(__APPLE__)
  int sign = 0;
  return ::lgamma_r(x, &sign);
#else
  return std::lgamma(x);
#endif
}

/// base^e by repeated squaring. Overflow to inf is benign for the
/// predictive (base >= 1, so 1/inf -> 0 — the same underflow the exp()
/// path produces for a hopeless hypothesis). The conditional multiply is
/// written as a select so the loop body carries no data-dependent branch
/// (the exponent's bit pattern is effectively random across hypotheses,
/// and a mispredict costs more than the always-multiply).
double powi(double base, std::size_t e) {
  double r = 1.0;
  while (e != 0) {
    r *= (e & 1u) != 0 ? base : 1.0;
    base *= base;
    e >>= 1;
  }
  return r;
}

/// build_gap_series: timestamps closer than this are coalesced into one
/// arrival before the interval sequence is formed. Collectives launch
/// several flows nearly simultaneously (ring directions, channels); without
/// coalescing those near-zero intervals make the interval distribution
/// bimodal and inflate the learned variance, masking the step gap.
constexpr DurationNs kCoalesceGap = 200 * kMicrosecond;

/// build_gap_series: a BOCD-flagged boundary is accepted only if the
/// flagged interval also exceeds this factor x the median interval. Right
/// after a real boundary the run-length posterior is legitimately "young"
/// for a couple of observations; the guard rejects those small-interval
/// flags without touching genuine step gaps (which are orders of magnitude
/// above the median).
constexpr double kGapGuardFactor = 3.0;

}  // namespace

std::vector<std::string> BocdConfig::validate() const {
  std::vector<std::string> errors;
  const auto check = [&errors](bool ok, const char* field, const char* bound,
                               double value) {
    if (ok) return;
    char got[32];
    std::snprintf(got, sizeof(got), "%g", value);
    errors.push_back(std::string(field) + " must be " + bound + ", got " + got);
  };
  check(hazard_lambda > 1.0, "hazard_lambda", "> 1", hazard_lambda);
  check(changepoint_threshold > 0.0 && changepoint_threshold < 1.0,
        "changepoint_threshold", "in (0, 1)", changepoint_threshold);
  check(prior_kappa > 0.0, "prior_kappa", "> 0", prior_kappa);
  check(prior_beta > 0.0, "prior_beta", "> 0", prior_beta);
  // nu = 2*prior_alpha + run_length must be an integer for the kernel's
  // linear-space Student-t (repeated squaring of an integral power).
  const double two_alpha = 2.0 * prior_alpha;
  check(prior_alpha > 0.0 && two_alpha == std::floor(two_alpha) &&
            two_alpha < 1e9,
        "prior_alpha", "half-integral and > 0 (0.5, 1, 1.5, ...)", prior_alpha);
  check(max_components >= 1, "max_components", ">= 1 (slot 0 is always kept)",
        static_cast<double>(max_components));
  return errors;
}

BocdDetector::BocdDetector(BocdConfig config) : config_(config) {
  reconfigure(config);
}

void BocdDetector::reset() {
  if (run_length_.empty()) {
    // First arm: room for the prior hypothesis; the kernel grows on demand.
    run_length_.resize(1);
    probability_.resize(1);
    mean_.resize(1);
    beta_.resize(1);
  }
  run_length_[0] = 0;
  probability_[0] = 1.0;
  mean_[0] = config_.prior_mean;
  beta_[0] = config_.prior_beta;
  size_ = 1;
  max_run_ = 0;
  last_cp_probability_ = 0.0;
  last_recent_probability_ = 0.0;
  last_map_run_length_ = 0;
  t_ = 0;
  hard_resets_ = 0;
}

void BocdDetector::reconfigure(const BocdConfig& config) {
  if (const auto errors = config.validate(); !errors.empty()) {
    throw std::invalid_argument("bocd: " + errors.front());
  }
  // The coefficient table is a pure function of the prior shape (alpha,
  // kappa) and the run length — prior_mean and prior_beta do not enter
  // it, so per-series location/scale retuning keeps the cache.
  if (config.prior_alpha != config_.prior_alpha ||
      config.prior_kappa != config_.prior_kappa) {
    predictive_coeff_cache_.clear();
  }
  config_ = config;
  reset();
}

void BocdDetector::ensure_coeffs(std::size_t max_run) const {
  // kappa = prior_kappa + r and alpha = prior_alpha + r/2 exactly
  // (0.5-additions are exact in binary floating point), so caching by run
  // length is bit-identical to recomputing from a hypothesis's state.
  while (predictive_coeff_cache_.size() <= max_run) {
    const auto r = static_cast<double>(predictive_coeff_cache_.size());
    const double alpha = config_.prior_alpha + 0.5 * r;
    const double kappa = config_.prior_kappa + r;
    const double nu = 2.0 * alpha;
    PredictiveCoeff coeff;
    coeff.norm = std::exp(lgamma_positive((nu + 1.0) / 2.0) -
                          lgamma_positive(nu / 2.0)) /
                 std::sqrt(nu * M_PI);
    coeff.inv_nu = 1.0 / nu;
    coeff.kappa_factor = (kappa + 1.0) / (alpha * kappa);
    coeff.kappa = kappa;
    coeff.inv_kappa1 = 1.0 / (kappa + 1.0);
    coeff.half_ratio = kappa / (2.0 * (kappa + 1.0));
    coeff.power = static_cast<std::size_t>(nu) + 1;
    predictive_coeff_cache_.push_back(coeff);
  }
}

double BocdDetector::predictive(std::uint32_t run_length, double mean,
                                double beta, double x) const {
  // Posterior predictive of the Normal-Inverse-Gamma model: Student-t with
  // nu = 2*alpha, location mean, scale^2 = s2 = beta*(kappa+1)/(alpha*
  // kappa), evaluated directly in linear space:
  //   t(x) = norm / sqrt(s2) * (1 + d^2/(nu s2))^-(nu+1)/2
  // The power has integral nu+1 (prior_alpha is half-integral), so
  // u^(nu+1) comes from repeated squaring, and sqrt(s2) folds into the
  // same square root that halves the exponent — one sqrt, one divide, no
  // log/log1p/exp per hypothesis. powi overflow to inf is benign: 1/inf
  // -> 0, a zero likelihood for a hopeless hypothesis.
  const PredictiveCoeff& k = predictive_coeff_cache_[run_length];
  const double s2 = beta * k.kappa_factor;
  const double d = x - mean;
  const double u = 1.0 + d * d * k.inv_nu / s2;
  return k.norm / std::sqrt(s2 * powi(u, k.power));
}

void BocdDetector::step(double x) {
  const double hazard = 1.0 / config_.hazard_lambda;
  const std::size_t n = size_;
  ensure_coeffs(max_run_);

  // r_t = 0 means x is the *first* observation of a new run, so the
  // changepoint branch scores x under the prior predictive (reset
  // likelihood). Using the old run's predictive there instead would make
  // P(r_t = 0) identically equal to the hazard — useless for detection.
  const double cp_mass =
      predictive(0, config_.prior_mean, config_.prior_beta, x) * hazard;

  // Growth phase: each run hypothesis absorbs x, writing the grown state
  // into the shadow buffer at slot i+1 (slot 0 is reserved for the fresh
  // hypothesis). The conjugate update needs the pre-update mean, which is
  // why growth cannot run in place over the live arrays.
  if (next_run_length_.size() < n + 1) {
    next_run_length_.resize(n + 1);
    next_probability_.resize(n + 1);
    next_mean_.resize(n + 1);
    next_beta_.resize(n + 1);
  }
  const double growth = 1.0 - hazard;
  double total = cp_mass;
  // The predictive is inlined against the cached per-run-length
  // coefficients, and the conjugate update's divisions are replaced by the
  // cached reciprocals (kappa is the exact affine function of the run
  // length, so 1/(kappa+1) is data-independent — see the header).
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t r = run_length_[i];
    const double m = mean_[i];
    const double b = beta_[i];
    const PredictiveCoeff& k = predictive_coeff_cache_[r];
    const double s2 = b * k.kappa_factor;
    const double d = x - m;
    const double u = 1.0 + d * d * k.inv_nu / s2;
    const double pred = k.norm / std::sqrt(s2 * powi(u, k.power));
    const double p = probability_[i] * pred * growth;
    next_run_length_[i + 1] = r + 1;
    next_probability_[i + 1] = p;
    next_mean_[i + 1] = (k.kappa * m + x) * k.inv_kappa1;
    next_beta_[i + 1] = b + d * d * k.half_ratio;
    total += p;
  }

  ++t_;
  if (!(total > 0.0) || !std::isfinite(total)) {
    // All hypotheses assign (numerically) zero likelihood: treat as a hard
    // changepoint and restart from the prior.
    run_length_[0] = 0;
    probability_[0] = 1.0;
    mean_[0] = config_.prior_mean;
    beta_[0] = config_.prior_beta;
    size_ = 1;
    max_run_ = 0;
    last_cp_probability_ = 1.0;
    last_recent_probability_ = 1.0;
    last_map_run_length_ = 0;
    ++hard_resets_;
    return;
  }

  // The fresh run-length-0 hypothesis keeps the pure prior: the triggering
  // observation is treated as a boundary artefact (a step gap), not as the
  // first sample of the new regime. Absorbing it would poison every
  // post-boundary run with the gap value and mask subsequent boundaries.
  const double inv_total = 1.0 / total;
  next_run_length_[0] = 0;
  next_probability_[0] = cp_mass * inv_total;
  next_mean_[0] = config_.prior_mean;
  next_beta_[0] = config_.prior_beta;

  // Prune-and-compact in one forward pass: normalize, apply the mass floor
  // and the run-length cap, and left-compact the survivors while summing
  // the surviving mass and tracking the least probable survivor past slot
  // 0. The stores are unconditional and the cursor advance predicated, so
  // the loop carries no data-dependent control flow; the write cursor w
  // never passes the read cursor (w <= i), so compaction is safe in place
  // on the shadow buffer. Growth and compaction both preserve order, so
  // the slots stay in strictly ascending run-length order.
  double kept = next_probability_[0];  // slot 0 is already normalized
  double min_p = std::numeric_limits<double>::infinity();
  std::size_t min_w = 0;
  std::size_t w = 1;
  for (std::size_t i = 1; i <= n; ++i) {
    const double p = next_probability_[i] * inv_total;
    const std::uint32_t r = next_run_length_[i];
    next_probability_[w] = p;
    next_run_length_[w] = r;
    next_mean_[w] = next_mean_[i];
    next_beta_[w] = next_beta_[i];
    const bool keep = p >= config_.prune_mass && r < config_.max_run_length;
    const bool lowest = keep && p < min_p;
    min_p = lowest ? p : min_p;
    min_w = lowest ? w : min_w;
    kept += keep ? p : 0.0;
    w += keep ? 1u : 0u;
  }

  if (w > config_.max_components) {
    // Top-N cap (the fresh hypothesis at slot 0 is always kept). At most
    // one hypothesis was added since the last step, so exactly one
    // survivor goes: the least probable, shifted out so the order holds.
    // Truncation drops surviving mass, so re-sum the kept set in order.
    assert(w == config_.max_components + 1 && min_w != 0);
    for (std::size_t j = min_w + 1; j < w; ++j) {
      next_run_length_[j - 1] = next_run_length_[j];
      next_probability_[j - 1] = next_probability_[j];
      next_mean_[j - 1] = next_mean_[j];
      next_beta_[j - 1] = next_beta_[j];
    }
    --w;
    kept = 0.0;
    for (std::size_t j = 0; j < w; ++j) kept += next_probability_[j];
  }
  // The shadow buffer IS the new state; swap the arrays (pointer swaps, no
  // copies).
  run_length_.swap(next_run_length_);
  probability_.swap(next_probability_);
  mean_.swap(next_mean_);
  beta_.swap(next_beta_);
  size_ = w;

  // Renormalize after pruning so probabilities stay a distribution, fused
  // with the posterior readouts into one final pass.
  const double inv_kept = 1.0 / kept;
  const auto cap = static_cast<std::uint32_t>(config_.recent_run_cap);
  double recent = 0.0;
  double best_p = -1.0;
  std::uint32_t best_r = 0;
  for (std::size_t i = 0; i < size_; ++i) {
    const double p = probability_[i] * inv_kept;
    probability_[i] = p;
    const std::uint32_t r = run_length_[i];
    if (r <= cap) recent += p;
    if (p > best_p) {
      best_p = p;
      best_r = r;
    }
  }
  last_cp_probability_ = probability_[0];
  last_recent_probability_ = recent;
  last_map_run_length_ = best_r;
  max_run_ = run_length_[size_ - 1];
}

double BocdDetector::observe(double x) {
  step(x);
  return last_cp_probability_;
}

void BocdDetector::observe_batch(std::span<const double> xs) {
  for (const double x : xs) step(x);
}

void BocdDetector::observe_batch(std::span<const double> xs,
                                 std::span<BocdReadout> out) {
  assert(xs.size() == out.size());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    step(xs[i]);
    out[i] = BocdReadout{last_cp_probability_, last_recent_probability_,
                         last_map_run_length_};
  }
}

BocdDetector& pooled_detector(const BocdConfig& config) {
  thread_local std::unique_ptr<BocdDetector> pool;
  if (!pool) {
    pool = std::make_unique<BocdDetector>(config);
  } else {
    pool->reconfigure(config);
  }
  return *pool;
}

std::vector<std::size_t> detect_changepoints(std::span<const double> xs,
                                             const BocdConfig& config) {
  BocdDetector& detector = pooled_detector(config);
  thread_local std::vector<BocdReadout> readouts;
  readouts.resize(xs.size());
  detector.observe_batch(xs, readouts);
  std::vector<std::size_t> changepoints;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (i + 1 > config.recent_run_cap + 1 &&
        readouts[i].recent_probability > config.changepoint_threshold) {
      changepoints.push_back(i);
    }
  }
  return changepoints;
}

GapSeries build_gap_series(std::span<const TimeNs> timestamps) {
  GapSeries series;
  if (timestamps.empty()) return series;
  if (!std::is_sorted(timestamps.begin(), timestamps.end())) {
    throw std::invalid_argument("segment_by_gaps: timestamps must be sorted");
  }

  // Coalesce near-simultaneous arrivals; `groups[k]` is the original index
  // of the first timestamp in coalesced group k.
  std::vector<std::size_t>& groups = series.groups;
  groups.push_back(0);
  for (std::size_t i = 1; i < timestamps.size(); ++i) {
    if (timestamps[i] - timestamps[groups.back()] > kCoalesceGap) {
      groups.push_back(i);
    }
  }
  if (groups.size() < 2) return series;  // everything is one burst

  std::vector<double>& log_intervals = series.log_intervals;
  log_intervals.reserve(groups.size() - 1);
  for (std::size_t k = 0; k + 1 < groups.size(); ++k) {
    const double dt = static_cast<double>(timestamps[groups[k + 1]] -
                                          timestamps[groups[k]]) +
                      1.0;
    log_intervals.push_back(std::log(dt));
  }

  std::vector<double> sorted = log_intervals;
  std::nth_element(sorted.begin(), sorted.begin() + sorted.size() / 2,
                   sorted.end());
  series.median = sorted[sorted.size() / 2];
  series.guard = series.median + std::log(kGapGuardFactor);
  return series;
}

std::vector<std::size_t> segment_by_gaps(std::span<const TimeNs> timestamps,
                                         const BocdConfig& config,
                                         SegmenterStats* stats) {
  return segment_gap_series(build_gap_series(timestamps), config, stats);
}

std::vector<std::size_t> segment_gap_series(const GapSeries& series,
                                            const BocdConfig& config,
                                            SegmenterStats* stats) {
  std::vector<std::size_t> starts;
  if (series.groups.empty()) return starts;
  starts.push_back(0);
  const std::vector<double>& log_intervals = series.log_intervals;
  if (log_intervals.empty()) return starts;

  // Center the prior on the typical interval: the fresh-run predictive is
  // then broad around normal traffic, while the learned run components are
  // tight — a step gap is unlikely under both, but far *less* unlikely
  // under the prior, which is what trips P(r = 0).
  BocdConfig cfg = config;
  cfg.prior_mean = series.median;

  // One batched kernel pass over the whole series on the pooled detector,
  // then the boundary decisions off the recorded readouts.
  BocdDetector& detector = pooled_detector(cfg);
  thread_local std::vector<BocdReadout> readouts;
  readouts.resize(log_intervals.size());
  detector.observe_batch(log_intervals, readouts);

  bool prev_flagged = false;
  for (std::size_t i = 0; i < log_intervals.size(); ++i) {
    // Changepoint at interval i: a new segment begins at coalesced group
    // i + 1, i.e. original element groups[i + 1].
    //
    // Two equivalent read-outs of the run-length posterior back the
    // decision: the recent-run mass crossing the threshold, or the MAP run
    // length collapsing to "just restarted" (the classic BOCD changepoint
    // extraction — it stays decisive even when an earlier missed boundary
    // has inflated the surviving run's variance and made the mass
    // marginal). Either way the flagged interval must be a gap candidate
    // (past the warm-up and above the magnitude guard), and only rising
    // edges open a segment because the posterior legitimately stays
    // "young" for a few observations after a boundary.
    const BocdReadout& ro = readouts[i];
    const bool posterior_says_cp =
        ro.recent_probability > cfg.changepoint_threshold ||
        ro.map_run_length <= cfg.recent_run_cap;
    const bool flagged = posterior_says_cp && series.is_candidate(i, cfg);
    if (flagged && !prev_flagged) {
      starts.push_back(series.groups[i + 1]);
    }
    prev_flagged = flagged;
  }

  SegmenterStats call_stats;
  call_stats.observations = detector.observations_seen();
  call_stats.boundaries = starts.size() - 1;
  call_stats.hard_resets = detector.hard_resets();
  if (stats) *stats += call_stats;
  return starts;
}

}  // namespace llmprism
