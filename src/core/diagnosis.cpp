#include "llmprism/core/diagnosis.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <unordered_map>

#include "llmprism/common/stats.hpp"
#include "llmprism/obs/metrics.hpp"

namespace llmprism {

namespace {

/// Consistency factor making the MAD estimate sigma for Gaussian data.
constexpr double kMadToSigma = 1.4826;

/// Registry counters for k-sigma work — looked up once, bulk-added once
/// per evaluated series (never per point).
struct KSigmaMetrics {
  obs::Counter& series;
  obs::Counter& points;
  obs::Counter& alerts;
};

KSigmaMetrics& ksigma_metrics() {
  static KSigmaMetrics metrics{
      obs::default_registry().counter(
          "llmprism_ksigma_series_total",
          "Series handed to the k-sigma rule (including abstentions)"),
      obs::default_registry().counter(
          "llmprism_ksigma_points_total",
          "Points scored by the k-sigma rule"),
      obs::default_registry().counter(
          "llmprism_ksigma_alerts_total",
          "Outliers reported by the k-sigma rule"),
  };
  return metrics;
}

/// Record one ksigma_outliers_* call in both telemetry channels.
void note_ksigma_call(std::size_t points_scored, std::size_t alerts,
                      KSigmaStats* stats) {
  KSigmaStats call;
  call.series = 1;
  call.points = points_scored;
  call.alerts = alerts;
  if (stats) *stats += call;
  KSigmaMetrics& metrics = ksigma_metrics();
  metrics.series.inc(call.series);
  metrics.points.inc(call.points);
  metrics.alerts.inc(call.alerts);
}

/// Reference statistics for scoring point i: either global or of all
/// points except i (leave-one-out).
struct Reference {
  double mean;   ///< center (mean, or median in kMad mode)
  double sigma;  ///< dispersion on the sigma scale
};

Reference global_reference(std::span<const double> xs, Dispersion d) {
  if (d == Dispersion::kStddev) return {stats::mean(xs), stats::stddev(xs)};
  return {stats::median(xs), kMadToSigma * stats::median_abs_deviation(xs)};
}

class ReferenceComputer {
 public:
  ReferenceComputer(std::span<const double> xs, const KSigmaConfig& config)
      : xs_(xs), config_(config) {
    if (!config.leave_one_out) {
      global_ = global_reference(xs, config.dispersion);
    } else if (config.dispersion == Dispersion::kStddev) {
      for (const double x : xs_) {
        sum_ += x;
        sum_sq_ += x * x;
      }
    }
  }

  [[nodiscard]] Reference at(std::size_t i) const {
    if (!config_.leave_one_out) return global_;
    const auto n = static_cast<double>(xs_.size() - 1);
    if (config_.dispersion == Dispersion::kStddev) {
      const double mean = (sum_ - xs_[i]) / n;
      const double var =
          std::max(0.0, (sum_sq_ - xs_[i] * xs_[i]) / n - mean * mean);
      return {mean, std::sqrt(var)};
    }
    // Robust leave-one-out: materialize the others (series are short in
    // the places this mode is used).
    std::vector<double> others;
    others.reserve(xs_.size() - 1);
    for (std::size_t j = 0; j < xs_.size(); ++j) {
      if (j != i) others.push_back(xs_[j]);
    }
    return global_reference(others, Dispersion::kMad);
  }

 private:
  std::span<const double> xs_;
  const KSigmaConfig& config_;
  Reference global_{};
  double sum_ = 0.0;
  double sum_sq_ = 0.0;
};

}  // namespace

std::vector<std::size_t> ksigma_outliers_above(std::span<const double> xs,
                                               const KSigmaConfig& config,
                                               KSigmaStats* stats) {
  std::vector<std::size_t> out;
  if (xs.size() < config.min_samples) {
    note_ksigma_call(0, 0, stats);
    return out;
  }
  const ReferenceComputer refs(xs, config);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const Reference r = refs.at(i);
    if (xs[i] > r.mean + config.k * r.sigma &&
        xs[i] > r.mean * (1.0 + config.min_relative_excess)) {
      out.push_back(i);
    }
  }
  note_ksigma_call(xs.size(), out.size(), stats);
  return out;
}

std::vector<std::size_t> ksigma_outliers_below(std::span<const double> xs,
                                               const KSigmaConfig& config,
                                               KSigmaStats* stats) {
  std::vector<std::size_t> out;
  if (xs.size() < config.min_samples) {
    note_ksigma_call(0, 0, stats);
    return out;
  }
  const ReferenceComputer refs(xs, config);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const Reference r = refs.at(i);
    if (xs[i] < r.mean - config.k * r.sigma &&
        xs[i] < r.mean * (1.0 - config.min_relative_excess)) {
      out.push_back(i);
    }
  }
  note_ksigma_call(xs.size(), out.size(), stats);
  return out;
}

Diagnoser::Diagnoser(DiagnosisConfig config) : config_(config) {}

std::vector<StepAlert> Diagnoser::cross_step(const GpuTimeline& timeline,
                                             KSigmaStats* stats) const {
  std::vector<StepAlert> alerts;
  // Step 0 has no preceding DP burst, so its reconstructed duration is a
  // window artefact — exclude it from the series.
  if (timeline.steps.size() < 2) return alerts;
  std::vector<double> durations;
  durations.reserve(timeline.steps.size() - 1);
  for (std::size_t i = 1; i < timeline.steps.size(); ++i) {
    durations.push_back(to_seconds(timeline.steps[i].duration()));
  }
  const ReferenceComputer refs(durations, config_.ksigma);
  for (const std::size_t i :
       ksigma_outliers_above(durations, config_.ksigma, stats)) {
    const Reference r = refs.at(i);
    StepAlert a;
    a.gpu = timeline.gpu;
    a.step_index = timeline.steps[i + 1].index;
    a.duration_s = durations[i];
    a.mean_s = r.mean;
    a.threshold_s = r.mean + config_.ksigma.k * r.sigma;
    alerts.push_back(a);
  }
  return alerts;
}

std::vector<StepAlert> Diagnoser::cross_step_carried(
    const GpuTimeline& timeline, EwmaBaseline& baseline,
    const EwmaStepPolicy& policy, KSigmaStats* stats,
    std::uint64_t* ewma_alerts) const {
  // Window-local rule first: byte-identical to the cold path's alerts.
  std::vector<StepAlert> alerts = cross_step(timeline, stats);

  // The window-local rule scores steps 1.. (step 0's duration is a window
  // artefact) and only when it has >= min_samples of them. When it cannot
  // fire, the carried baseline takes over — but only once the baseline
  // itself has absorbed enough history.
  const std::size_t scorable =
      timeline.steps.size() > 1 ? timeline.steps.size() - 1 : 0;
  const bool window_self_sufficient = scorable >= config_.ksigma.min_samples;
  for (std::size_t i = 1; i < timeline.steps.size(); ++i) {
    const double d = to_seconds(timeline.steps[i].duration());
    if (!window_self_sufficient && baseline.count >= policy.min_samples) {
      const double threshold =
          baseline.mean + config_.ksigma.k * baseline.sigma();
      if (d > threshold &&
          d > baseline.mean * (1.0 + config_.ksigma.min_relative_excess)) {
        StepAlert a;
        a.gpu = timeline.gpu;
        a.step_index = timeline.steps[i].index;
        a.duration_s = d;
        a.mean_s = baseline.mean;
        a.threshold_s = threshold;
        alerts.push_back(a);
        if (ewma_alerts != nullptr) ++*ewma_alerts;
        // An outlier must not drag the baseline it was scored against;
        // skip the fold so one straggler cannot mask the next.
        continue;
      }
    }
    baseline.observe(d, policy.alpha);
  }
  return alerts;
}

std::vector<StepAlert> Diagnoser::cross_step(
    std::span<const GpuTimeline> timelines, KSigmaStats* stats) const {
  std::vector<StepAlert> alerts;
  for (const GpuTimeline& t : timelines) {
    const auto a = cross_step(t, stats);
    alerts.insert(alerts.end(), a.begin(), a.end());
  }
  return alerts;
}

std::vector<GroupAlert> Diagnoser::cross_group(
    const std::vector<std::vector<double>>& group_step_durations,
    KSigmaStats* stats) const {
  std::vector<GroupAlert> alerts;
  std::size_t max_steps = 0;
  for (const auto& row : group_step_durations) {
    max_steps = std::max(max_steps, row.size());
  }
  for (std::size_t step = 0; step < max_steps; ++step) {
    std::vector<double> durations;
    std::vector<std::size_t> group_idx;
    for (std::size_t g = 0; g < group_step_durations.size(); ++g) {
      if (step < group_step_durations[g].size()) {
        durations.push_back(group_step_durations[g][step]);
        group_idx.push_back(g);
      }
    }
    const ReferenceComputer refs(durations, config_.ksigma);
    for (const std::size_t i :
         ksigma_outliers_above(durations, config_.ksigma, stats)) {
      const Reference r = refs.at(i);
      GroupAlert a;
      a.group_index = group_idx[i];
      a.step_index = step;
      a.duration_s = durations[i];
      a.mean_s = r.mean;
      a.threshold_s = r.mean + config_.ksigma.k * r.sigma;
      alerts.push_back(a);
    }
  }
  return alerts;
}

namespace {

/// Highest switch id appearing in the view's hops (0 and false when there
/// are none). CSR offsets are monotone, so the view's hop ids — even for a
/// slice, whose offsets are absolute into the parent's storage — occupy the
/// contiguous range switch_ids[offsets[0] .. offsets[size())); one flat
/// scan over that range replaces the per-flow span walk.
std::pair<std::uint32_t, bool> max_switch_id(const FlowView& v) {
  if (v.switch_offsets.empty() || v.empty()) return {0, false};
  const std::uint64_t lo = v.switch_offsets[0];
  const std::uint64_t hi = v.switch_offsets[v.size()];
  if (lo == hi) return {0, false};
  std::uint32_t max_sw = 0;
  for (std::uint64_t k = lo; k < hi; ++k) {
    max_sw = std::max(max_sw, v.switch_ids[k]);
  }
  return {max_sw, true};
}

}  // namespace

std::vector<std::pair<SwitchId, double>> Diagnoser::per_switch_bandwidth(
    const FlowView& dp_flows) {
  const auto [max_sw, any] = max_switch_id(dp_flows);
  if (!any) return {};
  // Dense accumulation in flow order: per-switch sums see samples in the
  // same order the AoS path fed its hash map, so the doubles are identical.
  std::vector<double> sum(static_cast<std::size_t>(max_sw) + 1, 0.0);
  std::vector<std::size_t> count(static_cast<std::size_t>(max_sw) + 1, 0);
  for (std::size_t i = 0; i < dp_flows.size(); ++i) {
    if (dp_flows.duration_ns[i] <= 0) continue;
    const double bw = dp_flows.bandwidth_gbps(i);
    for (const std::uint32_t sw : dp_flows.switches(i)) {
      sum[sw] += bw;
      ++count[sw];
    }
  }
  std::vector<std::pair<SwitchId, double>> out;
  for (std::uint32_t sw = 0; sw <= max_sw; ++sw) {
    if (count[sw] != 0) {
      out.emplace_back(SwitchId(sw), sum[sw] / static_cast<double>(count[sw]));
    }
  }
  return out;
}

std::vector<std::pair<SwitchId, double>>
Diagnoser::per_switch_bandwidth_percentile(const FlowView& dp_flows,
                                           double p) {
  const auto [max_sw, any] = max_switch_id(dp_flows);
  if (!any) return {};
  // CSR sample gather: count per switch, prefix sum, scatter bandwidths.
  // The percentile depends only on each switch's sample multiset, so the
  // gather order cannot perturb the result.
  const std::size_t slots = static_cast<std::size_t>(max_sw) + 1;
  std::vector<std::size_t> counts(slots + 1, 0);
  for (std::size_t i = 0; i < dp_flows.size(); ++i) {
    if (dp_flows.duration_ns[i] <= 0) continue;
    for (const std::uint32_t sw : dp_flows.switches(i)) ++counts[sw + 1];
  }
  for (std::size_t s = 0; s < slots; ++s) counts[s + 1] += counts[s];
  std::vector<double> samples(counts[slots]);
  {
    std::vector<std::size_t> cursor(counts.begin(), counts.end() - 1);
    for (std::size_t i = 0; i < dp_flows.size(); ++i) {
      if (dp_flows.duration_ns[i] <= 0) continue;
      const double bw = dp_flows.bandwidth_gbps(i);
      for (const std::uint32_t sw : dp_flows.switches(i)) {
        samples[cursor[sw]++] = bw;
      }
    }
  }
  std::vector<std::pair<SwitchId, double>> out;
  for (std::uint32_t sw = 0; sw <= max_sw; ++sw) {
    if (counts[sw] == counts[sw + 1]) continue;
    const std::span<const double> values(samples.data() + counts[sw],
                                         counts[sw + 1] - counts[sw]);
    out.emplace_back(SwitchId(sw), stats::percentile(values, p));
  }
  return out;
}

std::vector<SwitchBandwidthAlert> Diagnoser::switch_bandwidth(
    const FlowView& dp_flows, KSigmaStats* stats) const {
  const auto per_switch = per_switch_bandwidth_percentile(
      dp_flows, config_.switch_health_percentile);
  std::vector<double> values;
  values.reserve(per_switch.size());
  for (const auto& [sw, bw] : per_switch) values.push_back(bw);

  const ReferenceComputer refs(values, config_.switch_ksigma);
  std::vector<SwitchBandwidthAlert> alerts;
  for (const std::size_t i :
       ksigma_outliers_below(values, config_.switch_ksigma, stats)) {
    const Reference r = refs.at(i);
    SwitchBandwidthAlert a;
    a.switch_id = per_switch[i].first;
    a.bandwidth_gbps = values[i];
    a.mean_gbps = r.mean;
    a.threshold_gbps = r.mean - config_.switch_ksigma.k * r.sigma;
    alerts.push_back(a);
  }
  return alerts;
}

std::vector<SwitchConcurrencyAlert> Diagnoser::switch_concurrency(
    const FlowView& dp_flows) const {
  // Sweep line per switch over split start/end arrays: the CSR scatter
  // preserves flow order, so on a time-sorted view each switch's start
  // slice is born sorted and only the end slice needs sorting — half the
  // sort volume of an interleaved (+1/-1) event list, on plain TimeNs
  // instead of 16-byte event structs.
  const auto [max_sw, any] = max_switch_id(dp_flows);
  if (!any) return {};
  const std::size_t slots = static_cast<std::size_t>(max_sw) + 1;
  std::vector<std::size_t> counts(slots + 1, 0);
  // Per-flow hop iteration (not the raw hop column): a sliced view keeps
  // absolute CSR offsets over the parent's hop storage.
  for (std::size_t i = 0; i < dp_flows.size(); ++i) {
    for (const std::uint32_t sw : dp_flows.switches(i)) ++counts[sw + 1];
  }
  for (std::size_t s = 0; s < slots; ++s) counts[s + 1] += counts[s];
  std::vector<TimeNs> starts(counts[slots]);
  std::vector<TimeNs> ends(counts[slots]);
  {
    std::vector<std::size_t> cursor(counts.begin(), counts.end() - 1);
    for (std::size_t i = 0; i < dp_flows.size(); ++i) {
      const TimeNs start = dp_flows.start_ns[i];
      const TimeNs end = dp_flows.end_ns(i);
      for (const std::uint32_t sw : dp_flows.switches(i)) {
        starts[cursor[sw]] = start;
        ends[cursor[sw]] = end;
        ++cursor[sw];
      }
    }
  }
  std::vector<SwitchConcurrencyAlert> alerts;
  for (std::uint32_t sw = 0; sw <= max_sw; ++sw) {
    if (counts[sw] == counts[sw + 1]) continue;
    const std::ptrdiff_t lo = static_cast<std::ptrdiff_t>(counts[sw]);
    const std::ptrdiff_t hi = static_cast<std::ptrdiff_t>(counts[sw + 1]);
    if (!std::is_sorted(starts.begin() + lo, starts.begin() + hi)) {
      std::sort(starts.begin() + lo, starts.begin() + hi);
    }
    std::sort(ends.begin() + lo, ends.begin() + hi);
    // Two-pointer sweep, ends processed first at ties (a flow ending the
    // instant another starts never overlaps it). Signed so a degenerate
    // zero-duration flow (end == its own start) cannot wrap the count.
    std::ptrdiff_t current = 0;
    std::size_t peak = 0;
    TimeNs peak_at = 0;
    std::ptrdiff_t e = lo;
    for (std::ptrdiff_t s = lo; s < hi; ++s) {
      while (e < hi && ends[e] <= starts[s]) {
        --current;
        ++e;
      }
      ++current;
      if (current > 0 && static_cast<std::size_t>(current) > peak) {
        peak = static_cast<std::size_t>(current);
        peak_at = starts[s];
      }
    }
    if (peak > config_.switch_dp_flow_limit) {
      SwitchConcurrencyAlert a;
      a.switch_id = SwitchId(sw);
      a.at = peak_at;
      a.concurrent_flows = peak;
      a.limit = config_.switch_dp_flow_limit;
      alerts.push_back(a);
    }
  }
  return alerts;
}

std::vector<SwitchBandwidthSeries> switch_bandwidth_timeline(
    const FlowView& dp_flows, DurationNs bucket) {
  if (bucket <= 0) {
    throw std::invalid_argument("switch timeline: bucket must be positive");
  }
  struct Acc {
    double sum = 0;
    std::size_t count = 0;
  };
  std::unordered_map<SwitchId, std::map<TimeNs, Acc>> acc;
  for (std::size_t i = 0; i < dp_flows.size(); ++i) {
    if (dp_flows.duration_ns[i] <= 0) continue;
    const TimeNs start = dp_flows.start_ns[i];
    const TimeNs begin =
        start - (((start % bucket) + bucket) % bucket);  // floor to bucket
    const double bw = dp_flows.bandwidth_gbps(i);
    for (const std::uint32_t sw : dp_flows.switches(i)) {
      Acc& a = acc[SwitchId(sw)][begin];
      a.sum += bw;
      ++a.count;
    }
  }
  std::vector<SwitchBandwidthSeries> out;
  out.reserve(acc.size());
  for (auto& [sw, buckets] : acc) {
    SwitchBandwidthSeries series;
    series.switch_id = sw;
    for (const auto& [begin, a] : buckets) {
      series.bucket_begin.push_back(begin);
      series.gbps.push_back(a.sum / static_cast<double>(a.count));
    }
    out.push_back(std::move(series));
  }
  std::sort(out.begin(), out.end(),
            [](const SwitchBandwidthSeries& a, const SwitchBandwidthSeries& b) {
              return a.switch_id < b.switch_id;
            });
  return out;
}

std::vector<BandwidthOnset> detect_bandwidth_onsets(
    std::span<const SwitchBandwidthSeries> series,
    const OnsetDetectorConfig& config) {
  std::vector<BandwidthOnset> onsets;
  for (const SwitchBandwidthSeries& s : series) {
    if (s.gbps.size() < config.min_buckets) continue;
    // Normalize by the series median so a single detector configuration
    // serves every link speed.
    const double scale = std::max(1e-9, stats::median(s.gbps));
    std::vector<double> normalized;
    normalized.reserve(s.gbps.size());
    for (const double g : s.gbps) normalized.push_back(g / scale);

    // Empirical-Bayes prior scale: bandwidth series are orders of magnitude
    // tighter (relative noise ~1%) than the unit-scale default prior, which
    // would otherwise floor the run predictive so wide that even a huge
    // level shift stays "within run". Estimate the within-regime noise from
    // the MAD of first differences (robust to the level shift itself, and
    // unlike the plain MAD also to a balanced bimodal series) and aim the
    // prior predictive at ~10x it.
    std::vector<double> diffs;
    diffs.reserve(normalized.size());
    for (std::size_t i = 1; i < normalized.size(); ++i) {
      diffs.push_back(std::abs(normalized[i] - normalized[i - 1]));
    }
    const double s_data = std::max(
        1.4826 * stats::median(diffs) / std::sqrt(2.0), 0.005);
    BocdConfig cfg = config.bocd;
    cfg.prior_mean = 1.0;
    const double target_scale = 10.0 * s_data;
    cfg.prior_beta = target_scale * target_scale * cfg.prior_alpha *
                     cfg.prior_kappa / (cfg.prior_kappa + 1.0);
    // Pooled detector: one instance per thread serves every switch series,
    // and the per-run-length coefficient caches survive across series (only
    // prior_mean / prior_beta vary here — the prior shape is fixed).
    BocdDetector& detector = pooled_detector(cfg);
    for (std::size_t i = 0; i < s.gbps.size(); ++i) {
      detector.observe(normalized[i]);
      // Recent-mass threshold OR MAP run-length collapse (as in
      // segment_by_gaps); spurious collapses are filtered by the explicit
      // persistent-drop check below.
      const bool posterior_says_cp =
          detector.last_was_changepoint() ||
          (detector.observations_seen() > cfg.recent_run_cap + 1 &&
           detector.map_run_length() <= cfg.recent_run_cap);
      if (!posterior_says_cp) continue;
      // Candidate onset at bucket i: require a persistent *drop*.
      const std::span<const double> before(s.gbps.data(), i);
      const std::span<const double> after(s.gbps.data() + i,
                                          s.gbps.size() - i);
      if (before.size() < 2 || after.size() < 2) continue;
      const double mean_before = stats::mean(before);
      const double mean_after = stats::mean(after);
      if (mean_after < mean_before * (1.0 - config.min_drop)) {
        onsets.push_back(
            {s.switch_id, s.bucket_begin[i], mean_before, mean_after});
        break;  // first persistent drop per switch
      }
    }
  }
  return onsets;
}

std::vector<std::vector<double>> group_dp_durations(
    std::span<const GpuTimeline> timelines,
    const std::vector<std::vector<GpuId>>& dp_components) {
  std::unordered_map<GpuId, const GpuTimeline*> by_gpu;
  for (const GpuTimeline& t : timelines) by_gpu.emplace(t.gpu, &t);

  std::vector<std::vector<double>> durations;
  durations.reserve(dp_components.size());
  for (const auto& component : dp_components) {
    std::size_t min_steps = SIZE_MAX;
    std::vector<const GpuTimeline*> members;
    for (const GpuId g : component) {
      const auto it = by_gpu.find(g);
      if (it == by_gpu.end()) continue;
      members.push_back(it->second);
      min_steps = std::min(min_steps, it->second->steps.size());
    }
    std::vector<double> row;
    if (!members.empty() && min_steps != SIZE_MAX) {
      row.reserve(min_steps);
      for (std::size_t k = 0; k < min_steps; ++k) {
        TimeNs begin = members.front()->steps[k].dp_begin;
        TimeNs end = members.front()->steps[k].dp_end;
        for (const GpuTimeline* t : members) {
          begin = std::min(begin, t->steps[k].dp_begin);
          end = std::max(end, t->steps[k].dp_end);
        }
        row.push_back(to_seconds(end - begin));
      }
    }
    durations.push_back(std::move(row));
  }
  return durations;
}

}  // namespace llmprism
