// Unit tests for the k-sigma detectors and the three diagnosis dimensions.
#include "llmprism/core/diagnosis.hpp"

#include <gtest/gtest.h>

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
  KSigmaConfig cfg;
  cfg.leave_one_out = false;
  EXPECT_TRUE(ksigma_outliers_above(xs, cfg).empty());
  cfg.leave_one_out = true;
  const auto out = ksigma_outliers_above(xs, cfg);
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
