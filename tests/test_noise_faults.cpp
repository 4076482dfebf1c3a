// Unit tests for the collection-noise model and network fault injection.
#include <gtest/gtest.h>

#include "llmprism/simulator/faults.hpp"
#include "llmprism/simulator/noise.hpp"

namespace llmprism {
namespace {

FlowRecord flow(TimeNs t, std::uint32_t src, std::uint32_t dst,
                std::uint64_t bytes, DurationNs dur = 1000,
                std::initializer_list<std::uint32_t> switches = {}) {
  FlowRecord f;
  f.start_time = t;
  f.src = GpuId(src);
  f.dst = GpuId(dst);
  f.bytes = bytes;
  f.duration = dur;
  for (const auto s : switches) f.switches.push_back(SwitchId(s));
  return f;
}

FlowColumns bursty_trace(int bursts, int flows_per_burst,
                       std::vector<std::uint64_t> sizes) {
  FlowColumns t;
  for (int b = 0; b < bursts; ++b) {
    for (int i = 0; i < flows_per_burst; ++i) {
      t.add(flow(b * kSecond + i * kMillisecond, 0, 8,
                 sizes[static_cast<std::size_t>(i) % sizes.size()]));
    }
  }
  t.sort();
  return t;
}

// ---------------------------------------------------------------------------
// NoiseConfig / apply_noise

TEST(NoiseTest, DisabledNoiseIsIdentity) {
  const auto trace = bursty_trace(3, 6, {100, 200});
  Rng rng(1);
  const auto out = apply_noise(trace, NoiseConfig{}, rng);
  ASSERT_EQ(out.size(), trace.size());
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], trace[i]);
}

TEST(NoiseTest, DropRateRemovesRoughlyTheRightFraction) {
  const auto trace = bursty_trace(100, 20, {100});
  NoiseConfig cfg;
  cfg.drop_rate = 0.3;
  Rng rng(2);
  const auto out = apply_noise(trace, cfg, rng);
  const double kept = static_cast<double>(out.size()) /
                      static_cast<double>(trace.size());
  EXPECT_NEAR(kept, 0.7, 0.03);
}

TEST(NoiseTest, DuplicatesAddFlows) {
  const auto trace = bursty_trace(50, 20, {100});
  NoiseConfig cfg;
  cfg.duplicate_rate = 0.2;
  Rng rng(3);
  const auto out = apply_noise(trace, cfg, rng);
  EXPECT_GT(out.size(), trace.size());
  EXPECT_NEAR(static_cast<double>(out.size()) /
                  static_cast<double>(trace.size()),
              1.2, 0.05);
  EXPECT_TRUE(out.is_sorted());
}

TEST(NoiseTest, SizeJitterPerturbsSizes) {
  const auto trace = bursty_trace(50, 10, {1'000'000});
  NoiseConfig cfg;
  cfg.size_jitter_rate = 1.0;
  cfg.size_jitter_frac = 0.02;
  Rng rng(4);
  const auto out = apply_noise(trace, cfg, rng);
  std::size_t changed = 0;
  for (const FlowRecord& f : out) {
    EXPECT_NEAR(static_cast<double>(f.bytes), 1e6, 2.1e4);
    if (f.bytes != 1'000'000) ++changed;
  }
  EXPECT_GT(changed, out.size() / 2);
}

TEST(NoiseTest, PartialRecordsShrinkSizeAndDuration) {
  const auto trace = bursty_trace(50, 10, {1'000'000});
  NoiseConfig cfg;
  cfg.partial_record_rate = 1.0;
  Rng rng(14);
  const auto out = apply_noise(trace, cfg, rng);
  ASSERT_EQ(out.size(), trace.size());
  for (const FlowRecord& f : out) {
    EXPECT_LT(f.bytes, 1'000'000u);
    EXPECT_GE(f.bytes, 100'000u * 1 - 1);  // cut to 10-90%
    EXPECT_LT(f.duration, 1000);
  }
}

TEST(NoiseTest, PartialRecordRateZeroIsNoop) {
  const auto trace = bursty_trace(5, 10, {1'000'000});
  NoiseConfig cfg;
  cfg.partial_record_rate = 0.0;
  cfg.drop_rate = 1e-12;
  Rng rng(15);
  const auto out = apply_noise(trace, cfg, rng);
  for (const FlowRecord& f : out) EXPECT_EQ(f.bytes, 1'000'000u);
}

TEST(NoiseTest, TimeJitterKeepsSorted) {
  const auto trace = bursty_trace(20, 10, {100});
  NoiseConfig cfg;
  cfg.time_jitter = 100 * kMicrosecond;
  Rng rng(5);
  const auto out = apply_noise(trace, cfg, rng);
  EXPECT_TRUE(out.is_sorted());
  EXPECT_EQ(out.size(), trace.size());
}

TEST(NoiseTest, TruncationKeepsOnlyHeadSizeOfBurst) {
  // One pair, always degraded, truncation probability 1: every burst keeps
  // only flows matching its first flow's size.
  const auto trace = bursty_trace(10, 8, {100, 200, 300, 400});
  NoiseConfig cfg;
  cfg.degraded_pair_fraction = 1.0;
  cfg.truncation_prob_min = 1.0;
  cfg.truncation_prob_max = 1.0;
  cfg.burst_gap = 100 * kMillisecond;
  Rng rng(6);
  const auto out = apply_noise(trace, cfg, rng);
  // 8 flows per burst cycle sizes 100..400 twice; head size is 100 -> keep 2.
  EXPECT_EQ(out.size(), 20u);
  for (const FlowRecord& f : out) EXPECT_EQ(f.bytes, 100u);
}

TEST(NoiseTest, TruncationLeavesSingleSizePairsIntact) {
  const auto trace = bursty_trace(10, 8, {100});
  NoiseConfig cfg;
  cfg.degraded_pair_fraction = 1.0;
  cfg.truncation_prob_min = 1.0;
  cfg.truncation_prob_max = 1.0;
  Rng rng(7);
  const auto out = apply_noise(trace, cfg, rng);
  EXPECT_EQ(out.size(), trace.size());
}

TEST(NoiseTest, ZeroDegradedFractionNeverTruncates) {
  const auto trace = bursty_trace(10, 8, {100, 200});
  NoiseConfig cfg;
  cfg.degraded_pair_fraction = 0.0;
  cfg.drop_rate = 1e-12;  // force the noise path on
  Rng rng(8);
  const auto out = apply_noise(trace, cfg, rng);
  EXPECT_EQ(out.size(), trace.size());
}

TEST(NoiseTest, DeterministicGivenSeed) {
  const auto trace = bursty_trace(30, 10, {100, 200});
  NoiseConfig cfg;
  cfg.drop_rate = 0.2;
  cfg.duplicate_rate = 0.1;
  cfg.degraded_pair_fraction = 0.5;
  Rng rng1(9), rng2(9);
  const auto a = apply_noise(trace, cfg, rng1);
  const auto b = apply_noise(trace, cfg, rng2);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
}

// ---------------------------------------------------------------------------
// Switch degradation

TEST(FaultsTest, RejectsBadFactor) {
  EXPECT_THROW(
      apply_switch_degradation(FlowColumns{}, {{SwitchId(0), {0, 1}, 0.0}}),
      std::invalid_argument);
  EXPECT_THROW(
      apply_switch_degradation(FlowColumns{}, {{SwitchId(0), {0, 1}, 1.5}}),
      std::invalid_argument);
}

TEST(FaultsTest, StretchesOnlyMatchingFlows) {
  FlowColumns t;
  t.add(flow(100, 0, 8, 1, 1000, {3}));
  t.add(flow(100, 0, 8, 1, 1000, {4}));       // other switch
  t.add(flow(9'000'000'000, 0, 8, 1, 1000, {3}));  // outside window
  const std::vector<SwitchDegradationSpec> specs{
      {SwitchId(3), TimeWindow{0, kSecond}, 0.25}};
  const auto out = apply_switch_degradation(t, specs);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].duration, 4000);
  EXPECT_EQ(out[1].duration, 1000);
  EXPECT_EQ(out[2].duration, 1000);
}

TEST(FaultsTest, WorstHopWins) {
  FlowColumns t;
  t.add(flow(100, 0, 8, 1, 1000, {3, 4}));
  const std::vector<SwitchDegradationSpec> specs{
      {SwitchId(3), TimeWindow{0, kSecond}, 0.5},
      {SwitchId(4), TimeWindow{0, kSecond}, 0.25}};
  const auto out = apply_switch_degradation(t, specs);
  EXPECT_EQ(out[0].duration, 4000);
}

TEST(FaultsTest, NoSpecsIsIdentity) {
  FlowColumns t;
  t.add(flow(100, 0, 8, 1, 1000, {3}));
  const auto out = apply_switch_degradation(t, {});
  EXPECT_EQ(out[0], t[0]);
}

TEST(FaultsTest, DegradationLowersObservedBandwidth) {
  FlowColumns t;
  t.add(flow(100, 0, 8, 2500, 1000, {3}));
  const double before = t[0].bandwidth_gbps();
  const auto out = apply_switch_degradation(
      t, {{SwitchId(3), TimeWindow{0, kSecond}, 0.5}});
  EXPECT_DOUBLE_EQ(out[0].bandwidth_gbps(), before / 2);
}

}  // namespace
}  // namespace llmprism
