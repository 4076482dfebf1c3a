// Unit tests for the k-sigma detectors and the three diagnosis dimensions.
#include "llmprism/core/diagnosis.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "llmprism/common/rng.hpp"
#include "llmprism/common/stats.hpp"
#include "llmprism/common/thread_pool.hpp"
#include "llmprism/core/flow_router.hpp"

namespace llmprism {
namespace {

// ---------------------------------------------------------------------------
// k-sigma primitives

TEST(KSigmaTest, AbstainsBelowMinSamples) {
  const std::vector<double> xs{1, 1, 100};
  KSigmaConfig cfg;
  cfg.min_samples = 6;
  EXPECT_TRUE(ksigma_outliers_above(xs, cfg).empty());
}

TEST(KSigmaTest, LeaveOneOutUnmasksSingleOutlier) {
  // 8 samples, one 3x outlier: a global 3-sigma rule can mathematically
  // never fire (max z = (n-1)/sqrt(n) = 2.47), leave-one-out does.
  const std::vector<double> xs{1.0, 1.02, 0.98, 1.01, 3.0, 0.99, 1.0, 1.03};
  EXPECT_LT(xs[4], stats::mean(xs) + 3.0 * stats::stddev(xs));
  const auto out = ksigma_outliers_above(xs, KSigmaConfig{});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], 4u);
}

TEST(KSigmaTest, BelowVariantFindsDepressedValue) {
  const std::vector<double> xs{150, 160, 155, 40, 158, 152, 149, 161};
  const auto out = ksigma_outliers_below(xs, KSigmaConfig{});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], 3u);
}

TEST(KSigmaTest, RelativeExcessGuardSuppressesTinyDeviations) {
  // Ultra-tight series: 0.5% deviation is many sigma but not actionable.
  std::vector<double> xs(20, 1.0);
  xs[7] = 1.005;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (i != 7) xs[i] += 1e-5 * static_cast<double>(i % 3);
  }
  KSigmaConfig cfg;
  cfg.min_relative_excess = 0.2;
  EXPECT_TRUE(ksigma_outliers_above(xs, cfg).empty());
  cfg.min_relative_excess = 0.0;
  EXPECT_FALSE(ksigma_outliers_above(xs, cfg).empty());
}

TEST(KSigmaTest, CleanSeriesNoOutliers) {
  std::vector<double> xs;
  for (int i = 0; i < 50; ++i) xs.push_back(1.0 + 0.01 * (i % 5));
  EXPECT_TRUE(ksigma_outliers_above(xs, KSigmaConfig{}).empty());
  EXPECT_TRUE(ksigma_outliers_below(xs, KSigmaConfig{}).empty());
}

TEST(KSigmaTest, IdenticalValuesNoOutliers) {
  const std::vector<double> xs(10, 5.0);
  EXPECT_TRUE(ksigma_outliers_above(xs, KSigmaConfig{}).empty());
  EXPECT_TRUE(ksigma_outliers_below(xs, KSigmaConfig{}).empty());
}

TEST(KSigmaTest, MadDispersionWorks) {
  KSigmaConfig cfg;
  cfg.dispersion = Dispersion::kMad;
  const std::vector<double> xs{1.0, 1.1, 0.9, 1.05, 0.95, 1.0, 4.0};
  const auto out = ksigma_outliers_above(xs, cfg);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], 6u);
}

TEST(KSigmaTest, StddevLooFindsOnlyTheLargestOfTwoOutliers) {
  // With leave-one-out stddev, the second outlier is still masked by the
  // first (it sits in the "others"): documented behaviour.
  std::vector<double> xs(16, 1.0);
  for (std::size_t i = 0; i < 16; ++i) xs[i] += 0.001 * (i % 4);
  xs[3] = 5.0;
  xs[11] = 4.0;
  const auto out = ksigma_outliers_above(xs, KSigmaConfig{});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], 3u);
}

TEST(KSigmaTest, MadModeFindsMultipleOutliers) {
  // The robust median/MAD mode survives several simultaneous outliers.
  std::vector<double> xs(16, 1.0);
  for (std::size_t i = 0; i < 16; ++i) xs[i] += 0.001 * (i % 4);
  xs[3] = 5.0;
  xs[11] = 4.0;
  KSigmaConfig cfg;
  cfg.dispersion = Dispersion::kMad;
  const auto out = ksigma_outliers_above(xs, cfg);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], 3u);
  EXPECT_EQ(out[1], 11u);
}

// ---------------------------------------------------------------------------
// Cross-step

GpuTimeline timeline_with_durations(const std::vector<double>& durations_s) {
  GpuTimeline t;
  t.gpu = GpuId(7);
  TimeNs at = 0;
  // step 0 is a stub (excluded by the diagnoser)
  t.steps.push_back({0, 0, at, 0, at});
  for (std::size_t i = 0; i < durations_s.size(); ++i) {
    const TimeNs end = at + from_seconds(durations_s[i]);
    t.steps.push_back({i + 1, at, end, end - kMillisecond, end});
    at = end;
  }
  return t;
}

TEST(CrossStepTest, FlagsSlowStep) {
  std::vector<double> durations(20, 1.0);
  for (std::size_t i = 0; i < durations.size(); ++i) {
    durations[i] += 0.002 * (i % 3);
  }
  durations[12] = 2.0;
  const auto t = timeline_with_durations(durations);
  const auto alerts = Diagnoser{}.cross_step(t);
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].gpu, GpuId(7));
  EXPECT_EQ(alerts[0].step_index, 13u);  // step index includes stub offset
  EXPECT_NEAR(alerts[0].duration_s, 2.0, 1e-9);
  EXPECT_GT(alerts[0].threshold_s, alerts[0].mean_s);
}

TEST(CrossStepTest, CleanTimelineNoAlerts) {
  std::vector<double> durations(20, 1.0);
  const auto t = timeline_with_durations(durations);
  EXPECT_TRUE(Diagnoser{}.cross_step(t).empty());
}

TEST(CrossStepTest, TooFewStepsAbstains) {
  const auto t = timeline_with_durations({1.0, 5.0});
  EXPECT_TRUE(Diagnoser{}.cross_step(t).empty());
}

TEST(CrossStepTest, SpanOverloadConcatenates) {
  std::vector<double> a(15, 1.0), b(15, 1.0);
  a[5] = 3.0;
  b[7] = 3.0;
  for (std::size_t i = 0; i < 15; ++i) {
    a[i] += 1e-3 * (i % 2);
    b[i] += 1e-3 * (i % 2);
  }
  const std::vector<GpuTimeline> ts{timeline_with_durations(a),
                                    timeline_with_durations(b)};
  const auto alerts = Diagnoser{}.cross_step(std::span(ts));
  EXPECT_EQ(alerts.size(), 2u);
}

// ---------------------------------------------------------------------------
// Cross-group

TEST(CrossGroupTest, FlagsSlowGroupInOneStep) {
  // 8 groups x 10 steps, group 5 is 3x slow in steps 4-5.
  std::vector<std::vector<double>> durations(8, std::vector<double>(10, 0.04));
  for (std::size_t g = 0; g < 8; ++g) {
    for (std::size_t k = 0; k < 10; ++k) {
      durations[g][k] += 0.0005 * static_cast<double>((g + k) % 4);
    }
  }
  durations[5][4] = 0.12;
  durations[5][5] = 0.12;
  const auto alerts = Diagnoser{}.cross_group(durations);
  ASSERT_EQ(alerts.size(), 2u);
  EXPECT_EQ(alerts[0].group_index, 5u);
  EXPECT_EQ(alerts[0].step_index, 4u);
  EXPECT_EQ(alerts[1].step_index, 5u);
}

TEST(CrossGroupTest, RaggedRowsHandled) {
  std::vector<std::vector<double>> durations(8, std::vector<double>(10, 0.04));
  durations[2].resize(5);  // partial window for group 2
  for (std::size_t g = 0; g < 8; ++g) {
    for (std::size_t k = 0; k < durations[g].size(); ++k) {
      durations[g][k] += 0.0005 * static_cast<double>((g * 3 + k) % 4);
    }
  }
  durations[6][8] = 0.2;
  const auto alerts = Diagnoser{}.cross_group(durations);
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].group_index, 6u);
  EXPECT_EQ(alerts[0].step_index, 8u);
}

TEST(CrossGroupTest, EmptyInput) {
  EXPECT_TRUE(Diagnoser{}.cross_group({}).empty());
}

// ---------------------------------------------------------------------------
// Switch-level

FlowRecord dp_flow(TimeNs t, std::uint32_t src, std::uint32_t dst,
                   std::uint64_t bytes, DurationNs dur,
                   std::initializer_list<std::uint32_t> switches) {
  FlowRecord f;
  f.start_time = t;
  f.src = GpuId(src);
  f.dst = GpuId(dst);
  f.bytes = bytes;
  f.duration = dur;
  for (const auto s : switches) f.switches.push_back(SwitchId(s));
  return f;
}

TEST(SwitchBandwidthTest, PerSwitchAverages) {
  FlowTrace t;
  // 20 Gb/s flow through switches 0 and 1
  t.add(dp_flow(0, 0, 8, 250, 100, {0, 1}));
  // 10 Gb/s flow through switch 1 only
  t.add(dp_flow(10, 0, 16, 250, 200, {1}));
  const auto bw = Diagnoser::per_switch_bandwidth(FlowColumns(t).view());
  ASSERT_EQ(bw.size(), 2u);
  EXPECT_EQ(bw[0].first, SwitchId(0));
  EXPECT_DOUBLE_EQ(bw[0].second, 20.0);
  EXPECT_DOUBLE_EQ(bw[1].second, 15.0);  // mean of 20 and 10
}

TEST(SwitchBandwidthTest, ZeroDurationFlowsIgnored) {
  FlowTrace t;
  t.add(dp_flow(0, 0, 8, 250, 0, {0}));
  EXPECT_TRUE(Diagnoser::per_switch_bandwidth(FlowColumns(t).view()).empty());
}

TEST(SwitchBandwidthTest, FlagsDegradedSwitch) {
  FlowTrace t;
  TimeNs at = 0;
  for (std::uint32_t sw = 0; sw < 10; ++sw) {
    // switch 7 runs at a quarter of the bandwidth of the others
    const DurationNs dur = sw == 7 ? 400 : 100 + 2 * sw;
    for (int i = 0; i < 5; ++i) {
      t.add(dp_flow(at++, 0, 8, 250, dur, {sw}));
    }
  }
  const auto alerts = Diagnoser{}.switch_bandwidth(FlowColumns(t).view());
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].switch_id, SwitchId(7));
  EXPECT_LT(alerts[0].bandwidth_gbps, alerts[0].threshold_gbps);
}

TEST(SwitchConcurrencyTest, PeakCounting) {
  FlowTrace t;
  // 3 overlapping flows on switch 0, 1 on switch 1.
  t.add(dp_flow(0, 0, 8, 1, 100, {0}));
  t.add(dp_flow(10, 1, 9, 1, 100, {0}));
  t.add(dp_flow(20, 2, 10, 1, 100, {0}));
  t.add(dp_flow(0, 3, 11, 1, 100, {1}));
  DiagnosisConfig cfg;
  cfg.switch_dp_flow_limit = 2;
  const auto alerts = Diagnoser(cfg).switch_concurrency(FlowColumns(t).view());
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].switch_id, SwitchId(0));
  EXPECT_EQ(alerts[0].concurrent_flows, 3u);
  EXPECT_EQ(alerts[0].at, 20);
}

TEST(SwitchConcurrencyTest, BackToBackFlowsDoNotOverlap) {
  FlowTrace t;
  // end == next start: sweep processes the end first, peak stays 1.
  t.add(dp_flow(0, 0, 8, 1, 100, {0}));
  t.add(dp_flow(100, 1, 9, 1, 100, {0}));
  DiagnosisConfig cfg;
  cfg.switch_dp_flow_limit = 1;
  EXPECT_TRUE(Diagnoser(cfg).switch_concurrency(FlowColumns(t).view()).empty());
}

TEST(SwitchConcurrencyTest, UnderLimitNoAlerts) {
  FlowTrace t;
  for (int i = 0; i < 10; ++i) t.add(dp_flow(i * 200, 0, 8, 1, 100, {0}));
  EXPECT_TRUE(Diagnoser{}.switch_concurrency(FlowColumns(t).view()).empty());
}

// ---------------------------------------------------------------------------
// Per-switch fan-out: a pool must not change a single bit of the result.

/// Forty-one switches of very different loads: a heavy switch 0 (far more
/// work than any other switch), thirty leaves with a slow leaf 7, eight
/// spines, zero-duration flows, a one-sample switch 39 and a switch 40
/// where one flow starts the instant another ends.
FlowTrace switch_fixture() {
  Rng rng(31);
  FlowTrace t;
  for (int i = 0; i < 60000; ++i) {
    FlowRecord f;
    f.start_time = rng.uniform_int(0, 5 * kSecond);
    f.src = GpuId(static_cast<std::uint32_t>(rng.uniform_int(0, 255)));
    f.dst = GpuId(static_cast<std::uint32_t>(rng.uniform_int(256, 511)));
    f.bytes = static_cast<std::uint64_t>(rng.uniform_int(100'000, 10'000'000));
    const auto leaf = static_cast<std::uint32_t>(rng.uniform_int(1, 30));
    f.duration = rng.uniform_int(0, 40) == 0
                     ? 0
                     : rng.uniform_int(1, 200 * kMillisecond) *
                           (leaf == 7 ? 4 : 1);
    f.switches.push_back(SwitchId(leaf));
    if (rng.bernoulli(0.5)) f.switches.push_back(SwitchId(0));
    if (rng.bernoulli(0.3)) {
      f.switches.push_back(
          SwitchId(static_cast<std::uint32_t>(rng.uniform_int(31, 38))));
    }
    t.add(f);
  }
  // Bulk for switch 0 alone, so its task outlasts the other switches' by
  // far: a pool that emitted results in completion order would show it.
  for (int i = 0; i < 200000; ++i) {
    t.add(dp_flow(
        rng.uniform_int(0, 5 * kSecond), 0, 256,
        static_cast<std::uint64_t>(rng.uniform_int(100'000, 10'000'000)),
        rng.uniform_int(1, 200 * kMillisecond), {0}));
  }
  t.add(dp_flow(1000, 5, 9, 1'000'000, 1000, {39}));
  t.add(dp_flow(2000, 1, 300, 100, 500, {40}));
  t.add(dp_flow(2500, 3, 301, 100, 500, {40}));
  t.sort();
  return t;
}

/// Each switch's (start, end) pairs, by switch id.
std::map<std::uint32_t, std::vector<std::pair<TimeNs, TimeNs>>> hops_of(
    const FlowView& v) {
  std::map<std::uint32_t, std::vector<std::pair<TimeNs, TimeNs>>> by_switch;
  for (std::size_t i = 0; i < v.size(); ++i) {
    for (const std::uint32_t sw : v.switches(i)) {
      by_switch[sw].emplace_back(v.start_ns[i], v.end_ns(i));
    }
  }
  return by_switch;
}

TEST(SwitchPoolTest, NullPoolMatchesIndependentReferences) {
  const FlowTrace trace = switch_fixture();
  const FlowColumns columns(trace);
  const FlowView view = columns.view();

  // Percentile: stats::percentile over each switch's positive-duration
  // bandwidths.
  std::map<std::uint32_t, std::vector<double>> samples;
  for (std::size_t i = 0; i < view.size(); ++i) {
    if (view.duration_ns[i] <= 0) continue;
    for (const std::uint32_t sw : view.switches(i)) {
      samples[sw].push_back(view.bandwidth_gbps(i));
    }
  }
  const auto pct = Diagnoser::per_switch_bandwidth_percentile(view, 90.0);
  ASSERT_EQ(pct.size(), samples.size());
  std::size_t k = 0;
  for (const auto& [sw, xs] : samples) {
    EXPECT_EQ(pct[k].first, SwitchId(sw));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(pct[k].second),
              std::bit_cast<std::uint64_t>(stats::percentile(xs, 90.0)));
    ++k;
  }
  EXPECT_EQ(samples.at(39).size(), 1u);

  // Concurrency: the peak over start instants v of
  // #{starts <= v} - #{ends <= v}, reached first at the smallest such v.
  DiagnosisConfig cfg;
  cfg.switch_dp_flow_limit = 0;  // alert on every switch with traffic
  std::vector<SwitchConcurrencyAlert> want;
  for (const auto& [sw, spans] : hops_of(view)) {
    std::vector<TimeNs> starts;
    std::vector<TimeNs> ends;
    for (const auto& [s, e] : spans) {
      starts.push_back(s);
      ends.push_back(e);
    }
    std::sort(starts.begin(), starts.end());
    std::sort(ends.begin(), ends.end());
    SwitchConcurrencyAlert a;
    a.switch_id = SwitchId(sw);
    std::ptrdiff_t best = 0;
    for (const TimeNs v : starts) {
      const std::ptrdiff_t live =
          (std::upper_bound(starts.begin(), starts.end(), v) - starts.begin()) -
          (std::upper_bound(ends.begin(), ends.end(), v) - ends.begin());
      if (live > best) {
        best = live;
        a.at = v;
      }
    }
    a.concurrent_flows = static_cast<std::size_t>(best);
    if (best > 0) want.push_back(a);
  }
  const auto conc = Diagnoser(cfg).switch_concurrency(view);
  ASSERT_EQ(conc.size(), want.size());
  for (std::size_t i = 0; i < conc.size(); ++i) {
    EXPECT_EQ(conc[i].switch_id, want[i].switch_id);
    EXPECT_EQ(conc[i].concurrent_flows, want[i].concurrent_flows)
        << "switch " << want[i].switch_id.value();
    EXPECT_EQ(conc[i].at, want[i].at) << "switch " << want[i].switch_id.value();
  }
  // Back-to-back flows on switch 40 never overlap.
  ASSERT_EQ(conc.back().switch_id, SwitchId(40));
  EXPECT_EQ(conc.back().concurrent_flows, 1u);
}

TEST(SwitchPoolTest, PoolMatchesNullPoolAtEveryLaneCount) {
  const FlowTrace trace = switch_fixture();
  const FlowColumns columns(trace);
  const FlowView view = columns.view();
  DiagnosisConfig cfg;
  cfg.switch_dp_flow_limit = 4;
  const Diagnoser diagnoser(cfg);

  const auto pct = Diagnoser::per_switch_bandwidth_percentile(view, 90.0);
  KSigmaStats stats;
  const auto bw = diagnoser.switch_bandwidth(view, &stats);
  const auto conc = diagnoser.switch_concurrency(view);
  ASSERT_EQ(pct.size(), 41u);
  ASSERT_FALSE(bw.empty());
  EXPECT_EQ(bw.front().switch_id, SwitchId(7));
  ASSERT_GT(conc.size(), 10u);

  for (const std::size_t lanes : {1u, 2u, 4u, 8u}) {
    SCOPED_TRACE(lanes);
    ThreadPool pool(lanes - 1);
    for (int rep = 0; rep < 5; ++rep) {
      const auto pct_p =
          Diagnoser::per_switch_bandwidth_percentile(view, 90.0, &pool);
      ASSERT_EQ(pct_p.size(), pct.size());
      for (std::size_t i = 0; i < pct.size(); ++i) {
        EXPECT_EQ(pct_p[i].first, pct[i].first);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(pct_p[i].second),
                  std::bit_cast<std::uint64_t>(pct[i].second));
      }

      KSigmaStats stats_p;
      const auto bw_p = diagnoser.switch_bandwidth(view, &stats_p, &pool);
      EXPECT_EQ(stats_p.series, stats.series);
      EXPECT_EQ(stats_p.points, stats.points);
      EXPECT_EQ(stats_p.alerts, stats.alerts);
      ASSERT_EQ(bw_p.size(), bw.size());
      for (std::size_t i = 0; i < bw.size(); ++i) {
        EXPECT_EQ(bw_p[i].switch_id, bw[i].switch_id);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(bw_p[i].bandwidth_gbps),
                  std::bit_cast<std::uint64_t>(bw[i].bandwidth_gbps));
        EXPECT_EQ(std::bit_cast<std::uint64_t>(bw_p[i].mean_gbps),
                  std::bit_cast<std::uint64_t>(bw[i].mean_gbps));
        EXPECT_EQ(std::bit_cast<std::uint64_t>(bw_p[i].threshold_gbps),
                  std::bit_cast<std::uint64_t>(bw[i].threshold_gbps));
      }

      const auto conc_p = diagnoser.switch_concurrency(view, &pool);
      ASSERT_EQ(conc_p.size(), conc.size());
      for (std::size_t i = 0; i < conc.size(); ++i) {
        EXPECT_EQ(conc_p[i].switch_id, conc[i].switch_id);
        EXPECT_EQ(conc_p[i].at, conc[i].at);
        EXPECT_EQ(conc_p[i].concurrent_flows, conc[i].concurrent_flows);
        EXPECT_EQ(conc_p[i].limit, conc[i].limit);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// One sample table from a mixed view's DP rows

TEST(SwitchSamplesTest, DpRowTableMatchesWrappersOnGatheredDpView) {
  // Two jobs (GPUs 0-7 and 8-15) whose start times are rounded to 10 us,
  // so flows of both jobs tie at many instants. Every third position of a
  // job is PP; the rest are DP. One DP flow in 17 has zero duration, and
  // switch 50 carries only zero-duration DP flows.
  Rng rng(23);
  FlowTrace trace;
  for (int i = 0; i < 30000; ++i) {
    const bool job_b = rng.bernoulli(0.5);
    const std::uint32_t base = job_b ? 8 : 0;
    FlowRecord f = dp_flow(
        rng.uniform_int(0, 200) * 10 * kMicrosecond,
        base + static_cast<std::uint32_t>(rng.uniform_int(0, 7)),
        base + static_cast<std::uint32_t>(rng.uniform_int(0, 7)),
        static_cast<std::uint64_t>(rng.uniform_int(1000, 10'000'000)),
        rng.uniform_int(0, 16) == 0 ? 0 : rng.uniform_int(1, 50 * kMicrosecond),
        {});
    f.switches.push_back(
        SwitchId(static_cast<std::uint32_t>(rng.uniform_int(0, 9))));
    if (rng.bernoulli(0.4)) f.switches.push_back(SwitchId(job_b ? 11 : 12));
    trace.add(f);
  }
  for (int i = 0; i < 4; ++i) {
    trace.add(dp_flow(i * 100 * kMicrosecond, 1, 2, 4096, 0, {50}));
  }
  trace.sort();
  const FlowColumns columns(trace);
  const FlowView view = columns.view();

  std::vector<RecognizedJob> jobs(2);
  for (std::uint32_t g = 0; g < 16; ++g) jobs[g / 8].gpus.push_back(GpuId(g));
  const FlowRouter router(jobs);
  DiagnosisConfig cfg;
  cfg.switch_dp_flow_limit = 0;  // alert on every switch with a peak
  const Diagnoser diagnoser(cfg);

  std::optional<std::vector<std::uint32_t>> dp_rows;
  for (const std::size_t lanes : {1u, 2u, 4u, 8u}) {
    SCOPED_TRACE(lanes);
    ThreadPool pool(lanes - 1);
    const FlowRouter::ColumnarResult routed = router.route(view, &pool);
    std::vector<std::vector<CommType>> types(jobs.size());
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      for (std::size_t k = 0; k < routed.job_columns[j].size(); ++k) {
        types[j].push_back(k % 3 == 2 ? CommType::kPP : CommType::kDP);
      }
    }
    const std::vector<std::uint8_t> mask =
        routed.type_mask(types, CommType::kDP, &pool);
    if (!dp_rows) {
      dp_rows.emplace();
      for (std::size_t i = 0; i < mask.size(); ++i) {
        if (mask[i] != 0) dp_rows->push_back(static_cast<std::uint32_t>(i));
      }
    }
    const FlowColumns dp_columns =
        FlowColumns::gather(view, *dp_rows, /*rows_sorted_subset=*/true);
    const FlowView dp_view = dp_columns.view();

    const SwitchSamples samples(view, routed.chunk_rows, mask, &pool);
    ASSERT_EQ(samples.num_switches(), 51u);
    std::size_t zero_only = 0;
    for (std::size_t i = 0; i < dp_view.size(); ++i) {
      if (dp_view.switches(i)[0] == 50) ++zero_only;
    }
    ASSERT_GT(zero_only, 0u);
    EXPECT_EQ(samples.offsets[51] - samples.offsets[50], zero_only);
    KSigmaStats stats;
    const SwitchDiagnosis got =
        diagnoser.diagnose_switches(samples, &stats, &pool);

    const auto mean = Diagnoser::per_switch_bandwidth(dp_view);
    ASSERT_EQ(got.bandwidth_gbps.size(), mean.size());
    for (std::size_t i = 0; i < mean.size(); ++i) {
      EXPECT_EQ(got.bandwidth_gbps[i].first, mean[i].first);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got.bandwidth_gbps[i].second),
                std::bit_cast<std::uint64_t>(mean[i].second));
    }
    // Switch 50's flows all have zero duration: no bandwidth sample.
    EXPECT_EQ(mean.back().first, SwitchId(12));

    KSigmaStats want_stats;
    const auto bw = diagnoser.switch_bandwidth(dp_view, &want_stats);
    EXPECT_EQ(stats.series, want_stats.series);
    EXPECT_EQ(stats.points, want_stats.points);
    EXPECT_EQ(stats.alerts, want_stats.alerts);
    ASSERT_EQ(got.bandwidth_alerts.size(), bw.size());
    for (std::size_t i = 0; i < bw.size(); ++i) {
      EXPECT_EQ(got.bandwidth_alerts[i].switch_id, bw[i].switch_id);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got.bandwidth_alerts[i].bandwidth_gbps),
                std::bit_cast<std::uint64_t>(bw[i].bandwidth_gbps));
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got.bandwidth_alerts[i].threshold_gbps),
                std::bit_cast<std::uint64_t>(bw[i].threshold_gbps));
    }
    // The percentile over the gathered view's positive-duration flows.
    const auto pct = Diagnoser::per_switch_bandwidth_percentile(
        dp_view, cfg.switch_health_percentile);
    ASSERT_EQ(pct.size(), mean.size());

    const auto conc = diagnoser.switch_concurrency(dp_view);
    ASSERT_EQ(got.concurrency_alerts.size(), conc.size());
    ASSERT_GE(conc.size(), 12u);
    for (std::size_t i = 0; i < conc.size(); ++i) {
      EXPECT_EQ(got.concurrency_alerts[i].switch_id, conc[i].switch_id);
      EXPECT_EQ(got.concurrency_alerts[i].at, conc[i].at);
      EXPECT_EQ(got.concurrency_alerts[i].concurrent_flows,
                conc[i].concurrent_flows);
    }
  }
}

// ---------------------------------------------------------------------------
// group_dp_durations

TEST(GroupDpDurationsTest, SpansUnionOfMembers) {
  GpuTimeline a;
  a.gpu = GpuId(0);
  a.steps.push_back({0, 0, 100, 50, 100});
  GpuTimeline b;
  b.gpu = GpuId(8);
  b.steps.push_back({0, 0, 120, 40, 120});
  const std::vector<GpuTimeline> ts{a, b};
  const std::vector<std::vector<GpuId>> comps{{GpuId(0), GpuId(8)}};
  const auto durations = group_dp_durations(std::span(ts), comps);
  ASSERT_EQ(durations.size(), 1u);
  ASSERT_EQ(durations[0].size(), 1u);
  EXPECT_DOUBLE_EQ(durations[0][0], to_seconds(120 - 40));
}

TEST(GroupDpDurationsTest, TruncatesToCommonSteps) {
  GpuTimeline a;
  a.gpu = GpuId(0);
  a.steps.push_back({0, 0, 100, 50, 100});
  a.steps.push_back({1, 100, 200, 150, 200});
  GpuTimeline b;
  b.gpu = GpuId(8);
  b.steps.push_back({0, 0, 110, 60, 110});
  const std::vector<GpuTimeline> ts{a, b};
  const std::vector<std::vector<GpuId>> comps{{GpuId(0), GpuId(8)}};
  const auto durations = group_dp_durations(std::span(ts), comps);
  ASSERT_EQ(durations[0].size(), 1u);  // min over members
}

TEST(GroupDpDurationsTest, MissingMembersSkipped) {
  const std::vector<GpuTimeline> ts;
  const std::vector<std::vector<GpuId>> comps{{GpuId(0)}};
  const auto durations = group_dp_durations(std::span(ts), comps);
  ASSERT_EQ(durations.size(), 1u);
  EXPECT_TRUE(durations[0].empty());
}

}  // namespace
}  // namespace llmprism
