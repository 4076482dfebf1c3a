#include "llmprism/core/diagnosis.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "llmprism/common/stats.hpp"
#include "llmprism/common/thread_pool.hpp"

namespace llmprism {

namespace {

/// Consistency factor making the MAD estimate sigma for Gaussian data.
constexpr double kMadToSigma = 1.4826;

/// Count one ksigma_outliers_* call into the caller's tallies.
void note_ksigma_call(std::size_t points_scored, std::size_t alerts,
                      KSigmaStats* stats) {
  if (stats) *stats += KSigmaStats{1, points_scored, alerts};
}

/// Reference statistics for scoring one point.
struct Reference {
  double mean;   ///< center (mean, or median in kMad mode)
  double sigma;  ///< dispersion on the sigma scale
};

/// Median center and MAD dispersion of the whole of `xs`.
Reference global_reference(std::span<const double> xs) {
  return {stats::median(xs), kMadToSigma * stats::median_abs_deviation(xs)};
}

/// Leave-one-out references: point i is scored against the statistics of
/// the OTHER points. Against statistics that include it, a single gross
/// outlier inflates its own sigma and masks itself — with n samples the
/// largest attainable z-score is (n-1)/sqrt(n), so a 3-sigma rule could
/// never fire for n <= 9 (e.g. 8 DP groups).
class ReferenceComputer {
 public:
  ReferenceComputer(std::span<const double> xs, const KSigmaConfig& config)
      : xs_(xs), config_(config) {
    if (config.dispersion == Dispersion::kStddev) {
      for (const double x : xs_) {
        sum_ += x;
        sum_sq_ += x * x;
      }
    }
  }

  [[nodiscard]] Reference at(std::size_t i) const {
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
    return global_reference(others);
  }

 private:
  std::span<const double> xs_;
  const KSigmaConfig& config_;
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

/// Which per-switch statistics a check needs. The mean and the percentile
/// read only the bandwidth column, the concurrency sweep only the times.
enum SwitchWant : unsigned {
  kWantMean = 1,
  kWantPercentile = 2,
  kWantPeak = 4,
  kWantAll = kWantMean | kWantPercentile | kWantPeak,
};

/// Fill `out` with the hops of the kept rows of `view` (see the
/// SwitchSamples constructor), scattering only the columns that `want`
/// reads; the others stay empty.
void fill_samples(SwitchSamples& out, const FlowView& view,
                  std::span<const std::size_t> chunks,
                  std::span<const std::uint8_t> keep, ThreadPool* pool,
                  unsigned want) {
  if (view.switch_offsets.empty() || chunks.size() < 2) return;
  const std::size_t num_chunks = chunks.size() - 1;
  // The per-hop loops read through local pointers: a size_t counter store
  // may alias any size_t they would read through a span or a reference
  // (sizes, bounds), which would force a reload per hop.
  const std::uint8_t* const keep_row = keep.empty() ? nullptr : keep.data();

  // Pass 1, per chunk: samples per switch. CSR offsets are monotone, so a
  // chunk's hops — even a slice's, whose offsets are absolute into the
  // parent's storage — occupy one contiguous range of switch_ids; a flat
  // scan of it sizes the chunk's counts before the per-row walk.
  std::vector<std::vector<std::size_t>> counts(num_chunks);
  parallel_for(pool, num_chunks, [&](std::size_t c) {
    const std::uint64_t lo = view.switch_offsets[chunks[c]];
    const std::uint64_t hi = view.switch_offsets[chunks[c + 1]];
    if (lo == hi) return;
    std::uint32_t max_sw = 0;
    for (std::uint64_t k = lo; k < hi; ++k) {
      max_sw = std::max(max_sw, view.switch_ids[k]);
    }
    std::vector<std::size_t>& count = counts[c];
    count.assign(std::size_t{max_sw} + 1, 0);
    std::size_t* const cnt = count.data();
    const std::uint64_t* const off = view.switch_offsets.data();
    const std::uint32_t* const ids = view.switch_ids.data();
    for (std::size_t i = chunks[c], end = chunks[c + 1]; i < end; ++i) {
      if (keep_row != nullptr && keep_row[i] == 0) continue;
      for (std::uint64_t k = off[i]; k < off[i + 1]; ++k) ++cnt[ids[k]];
    }
  });
  std::size_t slots = 0;
  for (const std::vector<std::size_t>& count : counts) {
    slots = std::max(slots, count.size());
  }
  if (slots == 0) return;

  // Prefix over (switch, chunk): chunk c writes switch s's samples after
  // every earlier chunk's, so each switch's slice stays in input order.
  out.offsets = chunk_key_prefix(counts, slots, pool);
  const std::size_t total = out.offsets[slots];
  const bool times = (want & kWantPeak) != 0;
  const bool bandwidth = (want & (kWantMean | kWantPercentile)) != 0;
  if (times) {
    out.start_ns.resize(total);
    out.end_ns.resize(total);
  }
  if (bandwidth) out.bandwidth_gbps.resize(total);

  // Pass 2, per chunk: scatter each kept row's sample to every hop.
  parallel_for(pool, num_chunks, [&](std::size_t c) {
    std::size_t* const cur = counts[c].data();
    const std::uint64_t* const off = view.switch_offsets.data();
    const std::uint32_t* const ids = view.switch_ids.data();
    TimeNs* const starts = out.start_ns.data();
    TimeNs* const ends = out.end_ns.data();
    double* const bws = out.bandwidth_gbps.data();
    for (std::size_t i = chunks[c], last = chunks[c + 1]; i < last; ++i) {
      if (keep_row != nullptr && keep_row[i] == 0) continue;
      const TimeNs start = view.start_ns[i];
      const TimeNs end = view.end_ns(i);
      // The division only when the bandwidth column is kept.
      const double bw = bandwidth && view.duration_ns[i] > 0
                            ? view.bandwidth_gbps(i)
                            : SwitchSamples::kNoBandwidth;
      for (std::uint64_t h = off[i]; h < off[i + 1]; ++h) {
        const std::size_t k = cur[ids[h]]++;
        if (times) {
          starts[k] = start;
          ends[k] = end;
        }
        if (bandwidth) bws[k] = bw;
      }
    }
  });
}

/// One switch's statistics, computed from its own slice of the table.
struct SwitchStat {
  std::size_t bandwidth_samples = 0;  ///< positive-duration samples
  double mean_gbps = 0;
  double percentile_gbps = 0;
  std::size_t peak_flows = 0;
  TimeNs peak_at = 0;
};

/// One task per switch over its own disjoint slice; each writes only its
/// own slot, so the result cannot depend on scheduling.
std::vector<SwitchStat> per_switch_stats(SwitchSamples& t, unsigned want,
                                         double p, ThreadPool* pool) {
  std::vector<SwitchStat> out(t.num_switches());
  parallel_for(pool, out.size(), [&](std::size_t sw) {
    const std::size_t lo = t.offsets[sw];
    const std::size_t hi = t.offsets[sw + 1];
    if (lo == hi) return;
    SwitchStat& st = out[sw];
    if ((want & (kWantMean | kWantPercentile)) != 0) {
      // Compact the positive-duration samples to the front of the slice.
      // std::remove keeps their order, so the in-order sum sees them in
      // flow order and its doubles match a sequential pass over the flows;
      // the percentile depends only on the sample multiset.
      double* const first = t.bandwidth_gbps.data() + lo;
      const std::span<const double> bw(
          first, std::remove(first, first + (hi - lo),
                             SwitchSamples::kNoBandwidth));
      st.bandwidth_samples = bw.size();
      if (!bw.empty() && (want & kWantMean) != 0) {
        double sum = 0.0;
        for (const double x : bw) sum += x;
        st.mean_gbps = sum / static_cast<double>(bw.size());
      }
      if (!bw.empty() && (want & kWantPercentile) != 0) {
        st.percentile_gbps = stats::percentile(bw, p);
      }
    }
    if ((want & kWantPeak) != 0) {
      // Sweep line over split start/end slices: on a time-sorted input the
      // start slice is born sorted and only the ends need sorting — half
      // the sort volume of an interleaved (+1/-1) event list.
      const auto starts = t.start_ns.begin() + static_cast<std::ptrdiff_t>(lo);
      const auto ends = t.end_ns.begin() + static_cast<std::ptrdiff_t>(lo);
      const auto n = static_cast<std::ptrdiff_t>(hi - lo);
      if (!std::is_sorted(starts, starts + n)) std::sort(starts, starts + n);
      std::sort(ends, ends + n);
      // Two-pointer sweep, ends processed first at ties (a flow ending the
      // instant another starts never overlaps it). Signed so a degenerate
      // zero-duration flow (end == its own start) cannot wrap the count.
      std::ptrdiff_t current = 0;
      std::ptrdiff_t e = 0;
      for (std::ptrdiff_t s = 0; s < n; ++s) {
        while (e < n && ends[e] <= starts[s]) {
          --current;
          ++e;
        }
        ++current;
        if (current > 0 && static_cast<std::size_t>(current) > st.peak_flows) {
          st.peak_flows = static_cast<std::size_t>(current);
          st.peak_at = starts[s];
        }
      }
    }
  });
  return out;
}

/// (switch, value) for every switch with a positive-duration sample, in
/// switch-id order.
std::vector<std::pair<SwitchId, double>> bandwidth_series(
    const std::vector<SwitchStat>& per_switch, double SwitchStat::*value) {
  std::vector<std::pair<SwitchId, double>> out;
  for (std::size_t sw = 0; sw < per_switch.size(); ++sw) {
    if (per_switch[sw].bandwidth_samples == 0) continue;
    out.emplace_back(SwitchId(static_cast<std::uint32_t>(sw)),
                     per_switch[sw].*value);
  }
  return out;
}

std::vector<SwitchBandwidthAlert> bandwidth_alerts(
    const std::vector<std::pair<SwitchId, double>>& health,
    const KSigmaConfig& config, KSigmaStats* stats) {
  std::vector<double> values;
  values.reserve(health.size());
  for (const auto& [sw, bw] : health) values.push_back(bw);

  const ReferenceComputer refs(values, config);
  std::vector<SwitchBandwidthAlert> alerts;
  for (const std::size_t i : ksigma_outliers_below(values, config, stats)) {
    const Reference r = refs.at(i);
    SwitchBandwidthAlert a;
    a.switch_id = health[i].first;
    a.bandwidth_gbps = values[i];
    a.mean_gbps = r.mean;
    a.threshold_gbps = r.mean - config.k * r.sigma;
    alerts.push_back(a);
  }
  return alerts;
}

std::vector<SwitchConcurrencyAlert> concurrency_alerts(
    const std::vector<SwitchStat>& per_switch, std::size_t limit) {
  std::vector<SwitchConcurrencyAlert> alerts;
  for (std::size_t sw = 0; sw < per_switch.size(); ++sw) {
    if (per_switch[sw].peak_flows > limit) {
      SwitchConcurrencyAlert a;
      a.switch_id = SwitchId(static_cast<std::uint32_t>(sw));
      a.at = per_switch[sw].peak_at;
      a.concurrent_flows = per_switch[sw].peak_flows;
      a.limit = limit;
      alerts.push_back(a);
    }
  }
  return alerts;
}

/// The statistics `want` asks for, from a table over every row of
/// `dp_flows` that holds only the columns they read.
std::vector<SwitchStat> all_rows_stats(const FlowView& dp_flows,
                                       unsigned want, double p,
                                       ThreadPool* pool) {
  SwitchSamples samples;
  fill_samples(samples, dp_flows, row_chunks(dp_flows.size(), pool), {},
               pool, want);
  return per_switch_stats(samples, want, p, pool);
}

}  // namespace

SwitchSamples::SwitchSamples(const FlowView& view,
                             std::span<const std::size_t> chunks,
                             std::span<const std::uint8_t> keep,
                             ThreadPool* pool) {
  fill_samples(*this, view, chunks, keep, pool, kWantAll);
}

SwitchDiagnosis Diagnoser::diagnose_switches(SwitchSamples samples,
                                             KSigmaStats* stats,
                                             ThreadPool* pool) const {
  const std::vector<SwitchStat> per_switch = per_switch_stats(
      samples, kWantAll, config_.switch_health_percentile, pool);
  SwitchDiagnosis out;
  out.bandwidth_gbps = bandwidth_series(per_switch, &SwitchStat::mean_gbps);
  out.bandwidth_alerts = bandwidth_alerts(
      bandwidth_series(per_switch, &SwitchStat::percentile_gbps),
      config_.switch_ksigma, stats);
  out.concurrency_alerts =
      concurrency_alerts(per_switch, config_.switch_dp_flow_limit);
  return out;
}

std::vector<std::pair<SwitchId, double>> Diagnoser::per_switch_bandwidth(
    const FlowView& dp_flows) {
  return bandwidth_series(all_rows_stats(dp_flows, kWantMean, 0.0, nullptr),
                          &SwitchStat::mean_gbps);
}

std::vector<std::pair<SwitchId, double>>
Diagnoser::per_switch_bandwidth_percentile(const FlowView& dp_flows, double p,
                                           ThreadPool* pool) {
  return bandwidth_series(all_rows_stats(dp_flows, kWantPercentile, p, pool),
                          &SwitchStat::percentile_gbps);
}

std::vector<SwitchBandwidthAlert> Diagnoser::switch_bandwidth(
    const FlowView& dp_flows, KSigmaStats* stats, ThreadPool* pool) const {
  return bandwidth_alerts(
      per_switch_bandwidth_percentile(dp_flows,
                                      config_.switch_health_percentile, pool),
      config_.switch_ksigma, stats);
}

std::vector<SwitchConcurrencyAlert> Diagnoser::switch_concurrency(
    const FlowView& dp_flows, ThreadPool* pool) const {
  return concurrency_alerts(all_rows_stats(dp_flows, kWantPeak, 0.0, pool),
                            config_.switch_dp_flow_limit);
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
