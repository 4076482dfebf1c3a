// Tests for temporal switch-bandwidth analysis (series + onset detection).
#include <gtest/gtest.h>

#include "llmprism/common/rng.hpp"
#include "llmprism/core/diagnosis.hpp"
#include "llmprism/simulator/cluster_sim.hpp"

namespace llmprism {
namespace {

FlowRecord dp_flow(TimeNs t, double gbps, std::uint32_t sw) {
  FlowRecord f;
  f.start_time = t;
  f.src = GpuId(0);
  f.dst = GpuId(8);
  f.duration = 1000;
  f.bytes = static_cast<std::uint64_t>(gbps * 1000 / 8.0);
  f.switches.push_back(SwitchId(sw));
  return f;
}

TEST(SwitchTimelineTest, BucketsAverageCorrectly) {
  FlowTrace t;
  // bucket 0: two flows at 10 and 30 Gb/s; bucket 1: one at 50.
  t.add(dp_flow(0, 10, 0));
  t.add(dp_flow(kSecond, 30, 0));
  t.add(dp_flow(11 * kSecond, 50, 0));
  const auto series =
      switch_bandwidth_timeline(FlowColumns(t).view(), 10 * kSecond);
  ASSERT_EQ(series.size(), 1u);
  ASSERT_EQ(series[0].gbps.size(), 2u);
  EXPECT_NEAR(series[0].gbps[0], 20.0, 0.1);
  EXPECT_NEAR(series[0].gbps[1], 50.0, 0.1);
  EXPECT_EQ(series[0].bucket_begin[0], 0);
  EXPECT_EQ(series[0].bucket_begin[1], 10 * kSecond);
}

TEST(SwitchTimelineTest, EmptyBucketsAreAbsent) {
  FlowTrace t;
  t.add(dp_flow(0, 10, 0));
  t.add(dp_flow(100 * kSecond, 10, 0));
  const auto series = switch_bandwidth_timeline(FlowColumns(t).view(), kSecond);
  ASSERT_EQ(series.size(), 1u);
  EXPECT_EQ(series[0].gbps.size(), 2u);  // not 101
}

TEST(SwitchTimelineTest, RejectsBadBucket) {
  EXPECT_THROW(switch_bandwidth_timeline(FlowColumns(FlowTrace{}).view(), 0),
               std::invalid_argument);
}

TEST(SwitchTimelineTest, NegativeTimesFloorCorrectly) {
  FlowTrace t;
  t.add(dp_flow(-kSecond / 2, 10, 0));  // pre-epoch flow
  const auto series = switch_bandwidth_timeline(FlowColumns(t).view(), kSecond);
  ASSERT_EQ(series.size(), 1u);
  EXPECT_EQ(series[0].bucket_begin[0], -kSecond);
}

SwitchBandwidthSeries make_series(std::uint32_t sw,
                                  const std::vector<double>& values) {
  SwitchBandwidthSeries s;
  s.switch_id = SwitchId(sw);
  for (std::size_t i = 0; i < values.size(); ++i) {
    s.bucket_begin.push_back(static_cast<TimeNs>(i) * 10 * kSecond);
    s.gbps.push_back(values[i]);
  }
  return s;
}

TEST(BandwidthOnsetTest, FindsStepDown) {
  Rng rng(5);
  std::vector<double> values;
  for (int i = 0; i < 30; ++i) values.push_back(rng.normal(160, 3));
  for (int i = 0; i < 30; ++i) values.push_back(rng.normal(50, 2));
  const std::vector<SwitchBandwidthSeries> series{make_series(7, values)};
  const auto onsets = detect_bandwidth_onsets(std::span(series));
  ASSERT_EQ(onsets.size(), 1u);
  EXPECT_EQ(onsets[0].switch_id, SwitchId(7));
  // Onset within one bucket of the true shift (bucket 30).
  EXPECT_NEAR(static_cast<double>(onsets[0].onset),
              30.0 * 10 * kSecond, 1.0 * 10 * kSecond);
  EXPECT_GT(onsets[0].before_gbps, 150);
  EXPECT_LT(onsets[0].after_gbps, 60);
}

TEST(BandwidthOnsetTest, HealthySeriesNoOnset) {
  Rng rng(6);
  std::vector<double> values;
  for (int i = 0; i < 60; ++i) values.push_back(rng.normal(160, 4));
  const std::vector<SwitchBandwidthSeries> series{make_series(1, values)};
  EXPECT_TRUE(detect_bandwidth_onsets(std::span(series)).empty());
}

TEST(BandwidthOnsetTest, UpwardShiftIsNotAnOnset) {
  Rng rng(7);
  std::vector<double> values;
  for (int i = 0; i < 30; ++i) values.push_back(rng.normal(50, 2));
  for (int i = 0; i < 30; ++i) values.push_back(rng.normal(160, 3));
  const std::vector<SwitchBandwidthSeries> series{make_series(1, values)};
  EXPECT_TRUE(detect_bandwidth_onsets(std::span(series)).empty());
}

TEST(BandwidthOnsetTest, SmallDipBelowMinDropIgnored) {
  Rng rng(8);
  std::vector<double> values;
  for (int i = 0; i < 30; ++i) values.push_back(rng.normal(160, 1));
  for (int i = 0; i < 30; ++i) values.push_back(rng.normal(140, 1));  // -12%
  const std::vector<SwitchBandwidthSeries> series{make_series(1, values)};
  OnsetDetectorConfig cfg;
  cfg.min_drop = 0.3;
  EXPECT_TRUE(detect_bandwidth_onsets(std::span(series), cfg).empty());
}

TEST(BandwidthOnsetTest, ShortSeriesSkipped) {
  const std::vector<SwitchBandwidthSeries> series{
      make_series(1, {160, 160, 40, 40})};
  EXPECT_TRUE(detect_bandwidth_onsets(std::span(series)).empty());
}

TEST(BandwidthOnsetTest, EndToEndWithInjectedMidRunFault) {
  // Degrade a switch halfway through a run; the onset detector localizes
  // both the switch and the time.
  ClusterSimConfig cfg;
  cfg.topology = {.num_machines = 16, .gpus_per_machine = 8,
                  .machines_per_leaf = 2, .num_spines = 4};
  JobSimConfig job;
  job.parallelism = {.tp = 8, .dp = 8, .pp = 2, .micro_batches = 4};
  job.num_steps = 60;
  cfg.jobs.push_back({job, {}});
  const TimeNs fault_start = 12 * kSecond;
  cfg.switch_faults.push_back(
      {SwitchId(3), TimeWindow{fault_start, kHour}, 0.3});
  const auto sim = run_cluster_sim(cfg);

  // DP flows only (use ground truth types; the comm-type tests already
  // cover inference).
  FlowTrace dp;
  for (const FlowRecord& f : sim.trace) {
    const auto it = sim.jobs[0].pair_types.find(f.pair());
    if (it != sim.jobs[0].pair_types.end() && it->second == CommType::kDP) {
      dp.add(f);
    }
  }
  const auto series =
      switch_bandwidth_timeline(FlowColumns(dp).view(), kSecond);
  const auto onsets = detect_bandwidth_onsets(std::span(series));
  ASSERT_EQ(onsets.size(), 1u);
  EXPECT_EQ(onsets[0].switch_id, SwitchId(3));
  EXPECT_NEAR(to_seconds(onsets[0].onset), to_seconds(fault_start), 2.0);
}

}  // namespace
}  // namespace llmprism
