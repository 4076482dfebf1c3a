// Unit tests for Bayesian Online Changepoint Detection, including the
// differential suite for the structure-of-arrays engine: observe_batch()
// must be bitwise identical to the observe() loop (they share one kernel),
// and the retuned defaults (max_components 8, prune_mass 1e-6) must leave
// every boundary decision on the fixture series identical to the
// conservative configuration (64, 1e-8) the detector originally shipped
// with.
#include "llmprism/bocd/bocd.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "llmprism/common/rng.hpp"

namespace llmprism {
namespace {

TEST(BocdConfigTest, RejectsBadHazard) {
  BocdConfig cfg;
  cfg.hazard_lambda = 1.0;
  EXPECT_THROW(BocdDetector{cfg}, std::invalid_argument);
}

TEST(BocdConfigTest, RejectsBadThreshold) {
  BocdConfig cfg;
  cfg.changepoint_threshold = 1.0;
  EXPECT_THROW(BocdDetector{cfg}, std::invalid_argument);
  cfg.changepoint_threshold = 0.0;
  EXPECT_THROW(BocdDetector{cfg}, std::invalid_argument);
}

TEST(BocdConfigTest, RejectsZeroComponents) {
  // Slot 0 (the fresh hypothesis) is always kept, so a cap of 0 cannot
  // hold; it must be refused before the kernel runs.
  BocdConfig cfg;
  cfg.max_components = 0;
  EXPECT_THROW(BocdDetector{cfg}, std::invalid_argument);
  BocdDetector pooled;
  EXPECT_THROW(pooled.reconfigure(cfg), std::invalid_argument);
  ASSERT_EQ(cfg.validate().size(), 1u);
  EXPECT_NE(cfg.validate()[0].find("max_components"), std::string::npos);
  cfg.max_components = 1;
  EXPECT_TRUE(cfg.validate().empty());
}

TEST(BocdConfigTest, RejectsNonPositivePrior) {
  BocdConfig cfg;
  cfg.prior_kappa = 0.0;
  EXPECT_THROW(BocdDetector{cfg}, std::invalid_argument);
  cfg = BocdConfig{};
  cfg.prior_beta = 0.0;
  ASSERT_EQ(cfg.validate().size(), 1u);
  EXPECT_EQ(cfg.validate()[0].rfind("prior_beta", 0), 0u)
      << cfg.validate()[0];
  EXPECT_THROW(BocdDetector{cfg}, std::invalid_argument);
}

TEST(BocdConfigTest, DefaultsAreValid) {
  // The pipeline runs both segmenters at BocdConfig{} only, so the one
  // configuration it can pass must be one the detector accepts.
  EXPECT_TRUE(BocdConfig{}.validate().empty());
}

TEST(BocdConfigTest, RejectsNonHalfIntegralPriorAlpha) {
  // The kernel evaluates the Student-t with an integral power, so nu =
  // 2*prior_alpha + r must be an integer.
  BocdConfig cfg;
  cfg.prior_alpha = 0.7;
  EXPECT_THROW(BocdDetector{cfg}, std::invalid_argument);
  BocdDetector pooled;
  EXPECT_THROW(pooled.reconfigure(cfg), std::invalid_argument);
  for (const double alpha : {0.5, 1.0, 1.5}) {
    cfg.prior_alpha = alpha;
    EXPECT_NO_THROW(BocdDetector{cfg}) << alpha;
  }
}

TEST(BocdDetectorTest, FirstObservationIsNotAChangepoint) {
  BocdDetector detector;
  const double p = detector.observe(0.5);
  EXPECT_LT(p, 0.5);
  EXPECT_FALSE(detector.last_was_changepoint());
}

TEST(BocdDetectorTest, StationarySequenceHasNoChangepoints) {
  Rng rng(7);
  BocdDetector detector;
  for (int i = 0; i < 500; ++i) {
    detector.observe(rng.normal(10.0, 0.5));
    EXPECT_FALSE(detector.last_was_changepoint()) << "at observation " << i;
  }
}

TEST(BocdDetectorTest, RunLengthGrowsOnStationaryData) {
  // Data tighter than the prior: longer runs fit ever better, so the MAP
  // run length tracks the true (unbroken) run.
  Rng rng(3);
  BocdDetector detector;
  for (int i = 0; i < 100; ++i) detector.observe(rng.normal(5.0, 0.3));
  EXPECT_GT(detector.map_run_length(), 80u);
}

TEST(BocdDetectorTest, DetectsLargeMeanShift) {
  Rng rng(11);
  BocdDetector detector;
  for (int i = 0; i < 50; ++i) detector.observe(rng.normal(0.0, 0.2));
  // A 50-sigma jump must trip the detector immediately.
  detector.observe(10.0);
  EXPECT_TRUE(detector.last_was_changepoint());
}

TEST(BocdDetectorTest, ResetRestoresPriorState) {
  BocdDetector detector;
  for (int i = 0; i < 20; ++i) detector.observe(1.0 + 0.01 * i);
  detector.reset();
  EXPECT_EQ(detector.observations_seen(), 0u);
  EXPECT_EQ(detector.map_run_length(), 0u);
}

TEST(BocdDetectorTest, SurvivesExtremeValues) {
  BocdDetector detector;
  detector.observe(1e30);
  detector.observe(-1e30);
  detector.observe(0.0);
  // No NaNs/crashes; probability stays a probability.
  EXPECT_GE(detector.last_cp_probability(), 0.0);
  EXPECT_LE(detector.last_cp_probability(), 1.0);
}

TEST(BocdDetectorTest, IdenticalObservationsDoNotDivideByZero) {
  BocdDetector detector;
  for (int i = 0; i < 200; ++i) {
    const double p = detector.observe(5.0);
    EXPECT_TRUE(std::isfinite(p));
  }
  EXPECT_GT(detector.map_run_length(), 150u);
}

TEST(DetectChangepointsTest, FindsSingleShift) {
  Rng rng(23);
  std::vector<double> xs;
  for (int i = 0; i < 60; ++i) xs.push_back(rng.normal(0.0, 0.3));
  for (int i = 0; i < 60; ++i) xs.push_back(rng.normal(8.0, 0.3));
  const auto cps = detect_changepoints(xs);
  ASSERT_FALSE(cps.empty());
  // The first changepoint lands at (or just after) the true shift.
  EXPECT_GE(cps.front(), 59u);
  EXPECT_LE(cps.front(), 62u);
}

TEST(DetectChangepointsTest, EmptyInput) {
  EXPECT_TRUE(detect_changepoints({}).empty());
}

// ---------------------------------------------------------------------------
// Differential suite for the SoA engine.
//
// Fixture generators are self-contained (a pinned LCG, not common/rng.hpp)
// so the series bytes can never drift under an Rng refactor.

struct Lcg {
  std::uint64_t s;
  double next() {
    s = s * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<double>(s >> 11) / 9007199254740992.0;
  }
  // Irwin–Hall(4) centered: cheap, smooth, roughly Gaussian on [-2, 2].
  double gauss_ish() { return next() + next() + next() + next() - 2.0; }
};

// 30 training steps of 24 flows, 1–3 ms intra-step intervals, 700–900 ms
// step gaps — the per-pair DP traffic shape segment_by_gaps exists for.
std::vector<TimeNs> step_timestamps() {
  Lcg rng{20260808ULL};
  std::vector<TimeNs> ts;
  TimeNs t = 5 * kMillisecond;
  for (int step = 0; step < 30; ++step) {
    for (int f = 0; f < 24; ++f) {
      ts.push_back(t);
      t += static_cast<TimeNs>((1.0 + 2.0 * rng.next()) * kMillisecond);
    }
    t += static_cast<TimeNs>((700.0 + 200.0 * rng.next()) * kMillisecond);
  }
  return ts;
}

// Level shifts of 3 sigma-units every 50 observations (cycling through
// three levels): a dense-changepoint series that keeps many run-length
// hypotheses alive, exercising the prune/compact path hard.
std::vector<double> shifting_series() {
  Lcg rng{7ULL};
  std::vector<double> xs;
  for (int i = 0; i < 300; ++i) {
    const double level = 2.0 + 3.0 * static_cast<double>((i / 50) % 3);
    xs.push_back(level + 0.25 * rng.gauss_ish());
  }
  return xs;
}

// Two 1e150 spikes: every hypothesis gets (numerically) zero likelihood,
// forcing the hard-reset-from-prior path twice.
std::vector<double> hard_reset_series() {
  Lcg rng{1234ULL};
  std::vector<double> xs;
  for (int i = 0; i < 160; ++i) {
    if (i == 60 || i == 120) {
      xs.push_back(1e150);
    } else {
      xs.push_back(1.0 + 0.1 * rng.gauss_ish());
    }
  }
  return xs;
}

// One stationary run long enough that the hypothesis count rides the
// max_components cap the whole time (truncation every observation).
std::vector<double> stationary_series() {
  Lcg rng{99ULL};
  std::vector<double> xs;
  for (int i = 0; i < 400; ++i) xs.push_back(5.0 + 0.3 * rng.gauss_ish());
  return xs;
}

// Drives `xs` through one detector per path — observe() loop vs
// observe_batch() with readouts — and asserts the per-observation posterior
// readouts and the final detector state are BITWISE identical (EXPECT_EQ on
// double is exact equality). The two paths share one step() kernel, so any
// divergence is a kernel regression, not rounding.
void expect_batch_matches_loop(const std::vector<double>& xs,
                               const BocdConfig& config) {
  BocdDetector loop_detector(config);
  std::vector<BocdReadout> loop_readouts;
  loop_readouts.reserve(xs.size());
  for (const double x : xs) {
    loop_detector.observe(x);
    loop_readouts.push_back({loop_detector.last_cp_probability(),
                             loop_detector.last_recent_probability(),
                             static_cast<std::uint32_t>(
                                 loop_detector.map_run_length())});
  }

  BocdDetector batch_detector(config);
  std::vector<BocdReadout> batch_readouts(xs.size());
  batch_detector.observe_batch(xs, batch_readouts);

  for (std::size_t i = 0; i < xs.size(); ++i) {
    ASSERT_EQ(batch_readouts[i].cp_probability,
              loop_readouts[i].cp_probability)
        << "cp_probability diverged at observation " << i;
    ASSERT_EQ(batch_readouts[i].recent_probability,
              loop_readouts[i].recent_probability)
        << "recent_probability diverged at observation " << i;
    ASSERT_EQ(batch_readouts[i].map_run_length,
              loop_readouts[i].map_run_length)
        << "map_run_length diverged at observation " << i;
  }
  EXPECT_EQ(batch_detector.observations_seen(),
            loop_detector.observations_seen());
  EXPECT_EQ(batch_detector.hard_resets(), loop_detector.hard_resets());
  EXPECT_EQ(batch_detector.last_cp_probability(),
            loop_detector.last_cp_probability());
  EXPECT_EQ(batch_detector.map_run_length(), loop_detector.map_run_length());
}

TEST(BocdBatchDifferentialTest, ShiftingSeriesDefaults) {
  expect_batch_matches_loop(shifting_series(), BocdConfig{});
}

TEST(BocdBatchDifferentialTest, StationarySeriesDefaults) {
  expect_batch_matches_loop(stationary_series(), BocdConfig{});
}

TEST(BocdBatchDifferentialTest, HardResetSeries) {
  // The degenerate-restart path must round-trip too: batch and loop reset
  // from the prior at the same observations.
  expect_batch_matches_loop(hard_reset_series(), BocdConfig{});
  BocdDetector d;
  for (const double x : hard_reset_series()) d.observe(x);
  EXPECT_EQ(d.hard_resets(), 2u);
}

TEST(BocdBatchDifferentialTest, PruneBoundaryConfigs) {
  // Configurations that sit ON the prune/compact boundaries: an aggressive
  // mass floor (hypotheses die constantly), a cap of 1 (only the reset
  // hypothesis survives), and the old conservative shape.
  for (const auto& [cap, prune] :
       {std::pair<std::size_t, double>{8, 1e-3},
        std::pair<std::size_t, double>{1, 1e-6},
        std::pair<std::size_t, double>{2, 1e-2},
        std::pair<std::size_t, double>{3, 1e-6},
        std::pair<std::size_t, double>{64, 1e-8}}) {
    BocdConfig cfg;
    cfg.max_components = cap;
    cfg.prune_mass = prune;
    expect_batch_matches_loop(shifting_series(), cfg);
    expect_batch_matches_loop(hard_reset_series(), cfg);
  }
}

TEST(BocdBatchDifferentialTest, CapDropsAYoungerHypothesis) {
  // On stationary data the oldest run carries the posterior, so the cap
  // must drop a younger, less probable hypothesis from the middle of the
  // arrays. Had it dropped the oldest, no run length could reach the
  // series length at a cap of 3.
  BocdConfig cfg;
  cfg.max_components = 3;
  const auto xs = stationary_series();
  expect_batch_matches_loop(xs, cfg);
  BocdDetector d(cfg);
  d.observe_batch(xs);
  EXPECT_EQ(d.map_run_length(), xs.size());
  EXPECT_EQ(d.hard_resets(), 0u);
}

TEST(BocdBatchDifferentialTest, PooledDetectorMatchesFresh) {
  // The pooled-reuse path (reconfigure + cached coefficient tables) must
  // give the same answers as a freshly constructed detector. Run two
  // different series back-to-back through the pool so the second call
  // actually reuses warmed state.
  BocdConfig cfg;
  const auto first = shifting_series();
  const auto second = stationary_series();

  BocdDetector& pooled1 = pooled_detector(cfg);
  std::vector<BocdReadout> pooled_first(first.size());
  pooled1.observe_batch(first, pooled_first);
  BocdDetector& pooled2 = pooled_detector(cfg);
  std::vector<BocdReadout> pooled_second(second.size());
  pooled2.observe_batch(second, pooled_second);

  BocdDetector fresh1(cfg);
  std::vector<BocdReadout> fresh_first(first.size());
  fresh1.observe_batch(first, fresh_first);
  BocdDetector fresh2(cfg);
  std::vector<BocdReadout> fresh_second(second.size());
  fresh2.observe_batch(second, fresh_second);

  for (std::size_t i = 0; i < first.size(); ++i) {
    ASSERT_EQ(pooled_first[i].cp_probability, fresh_first[i].cp_probability)
        << "first series diverged at " << i;
  }
  for (std::size_t i = 0; i < second.size(); ++i) {
    ASSERT_EQ(pooled_second[i].cp_probability, fresh_second[i].cp_probability)
        << "reused detector diverged at " << i;
    ASSERT_EQ(pooled_second[i].map_run_length, fresh_second[i].map_run_length)
        << "reused detector MAP diverged at " << i;
  }
}

// ---------------------------------------------------------------------------
// Index-level fixtures. These pin the detector's DECISIONS (boundary and
// changepoint indices) on the fixture series, captured from the engine
// under the old conservative configuration — and assert the retuned
// defaults reproduce them exactly. This is the contract that let the
// defaults change: the cap and mass floor only drop hypotheses whose
// posterior mass is orders of magnitude below every boundary decision.

const std::vector<std::size_t> kStepBoundaries = {
    0,   24,  48,  72,  96,  120, 144, 168, 192, 216,
    240, 264, 288, 312, 336, 360, 384, 408, 432, 456,
    480, 504, 528, 552, 576, 600, 624, 648, 672, 696};
const std::vector<std::size_t> kShiftChangepoints = {
    50, 51, 100, 101, 150, 151, 152, 200, 201, 251};
const std::vector<std::size_t> kHardResetChangepoints = {60,  61,  62,
                                                         120, 121, 122};

// The two configurations every fixture must agree under.
std::vector<BocdConfig> fixture_configs() {
  BocdConfig old_explicit;  // what the detector originally shipped with
  old_explicit.max_components = 64;
  old_explicit.prune_mass = 1e-8;
  return {BocdConfig{}, old_explicit};
}

TEST(BocdFixtureTest, StepBoundariesStableAcrossConfigs) {
  const auto ts = step_timestamps();
  for (const BocdConfig& cfg : fixture_configs()) {
    EXPECT_EQ(segment_by_gaps(ts, cfg), kStepBoundaries)
        << "cap=" << cfg.max_components << " prune=" << cfg.prune_mass;
  }
}

TEST(BocdFixtureTest, ShiftChangepointsStableAcrossConfigs) {
  const auto xs = shifting_series();
  for (const BocdConfig& cfg : fixture_configs()) {
    EXPECT_EQ(detect_changepoints(xs, cfg), kShiftChangepoints)
        << "cap=" << cfg.max_components << " prune=" << cfg.prune_mass;
  }
}

TEST(BocdFixtureTest, HardResetChangepointsStableAcrossConfigs) {
  const auto xs = hard_reset_series();
  for (const BocdConfig& cfg : fixture_configs()) {
    BocdDetector d(cfg);
    std::vector<std::size_t> cps;
    for (std::size_t i = 0; i < xs.size(); ++i) {
      d.observe(xs[i]);
      if (d.last_was_changepoint()) cps.push_back(i);
    }
    EXPECT_EQ(cps, kHardResetChangepoints)
        << "cap=" << cfg.max_components << " prune=" << cfg.prune_mass;
    EXPECT_EQ(d.hard_resets(), 2u);
  }
}

TEST(BocdFixtureTest, AggressivePruningKeepsShiftDecisions) {
  // Even a far harsher floor than the default (1e-3 at cap 8) leaves the
  // shift decisions untouched — the margin behind the retuned defaults.
  BocdConfig cfg;
  cfg.max_components = 8;
  cfg.prune_mass = 1e-3;
  EXPECT_EQ(detect_changepoints(shifting_series(), cfg), kShiftChangepoints);
}

// ---------------------------------------------------------------------------
// segment_by_gaps: the step-division workhorse.

std::vector<TimeNs> burst_train(int bursts, int flows_per_burst,
                                DurationNs intra_gap, DurationNs inter_gap,
                                Rng& rng) {
  std::vector<TimeNs> ts;
  TimeNs t = 0;
  for (int b = 0; b < bursts; ++b) {
    for (int f = 0; f < flows_per_burst; ++f) {
      ts.push_back(t);
      t += intra_gap + static_cast<TimeNs>(
                           rng.uniform(0.0, 0.2 * static_cast<double>(intra_gap)));
    }
    t += inter_gap;
  }
  return ts;
}

TEST(SegmentByGapsTest, SplitsBurstsExactly) {
  Rng rng(5);
  // 10 bursts of 20 flows, 1 ms apart within a burst, 2 s between bursts —
  // the shape of per-pair DP traffic.
  const auto ts = burst_train(10, 20, kMillisecond, 2 * kSecond, rng);
  const auto starts = segment_by_gaps(ts);
  ASSERT_EQ(starts.size(), 10u);
  for (std::size_t b = 0; b < starts.size(); ++b) {
    EXPECT_EQ(starts[b], b * 20) << "burst " << b;
  }
}

TEST(SegmentByGapsTest, SingleBurstYieldsOneSegment) {
  Rng rng(6);
  const auto ts = burst_train(1, 50, kMillisecond, 0, rng);
  const auto starts = segment_by_gaps(ts);
  EXPECT_EQ(starts.size(), 1u);
}

TEST(SegmentByGapsTest, EmptyAndSingleton) {
  EXPECT_TRUE(segment_by_gaps({}).empty());
  const std::vector<TimeNs> one{42};
  const auto starts = segment_by_gaps(one);
  ASSERT_EQ(starts.size(), 1u);
  EXPECT_EQ(starts[0], 0u);
}

TEST(SegmentByGapsTest, ThrowsOnUnsortedInput) {
  const std::vector<TimeNs> ts{10, 5, 20};
  EXPECT_THROW(segment_by_gaps(ts), std::invalid_argument);
}

TEST(SegmentByGapsTest, RobustToIntervalJitter) {
  Rng rng(9);
  std::vector<TimeNs> ts;
  TimeNs t = 0;
  for (int b = 0; b < 8; ++b) {
    for (int f = 0; f < 30; ++f) {
      ts.push_back(t);
      // within-burst intervals vary 0.5–3 ms
      t += static_cast<TimeNs>(rng.uniform(0.5e6, 3e6));
    }
    t += 3 * kSecond;
  }
  const auto starts = segment_by_gaps(ts);
  EXPECT_EQ(starts.size(), 8u);
}

TEST(SegmentByGapsTest, MinimalWarmupGap) {
  // The smallest warm-up BOCD can honestly split on: enough pre-gap
  // intervals to learn that traffic is tight (a gap after a single
  // observation is statistically indistinguishable from a broad run).
  std::vector<TimeNs> ts;
  for (int i = 0; i < 8; ++i) ts.push_back(i * 2 * kMillisecond);
  const TimeNs gap_start = ts.back() + 5 * kSecond;
  for (int i = 0; i < 4; ++i) ts.push_back(gap_start + i * 2 * kMillisecond);
  const auto starts = segment_by_gaps(ts);
  ASSERT_EQ(starts.size(), 2u);
  EXPECT_EQ(starts[1], 8u);
}

// Property sweep: segmentation recovers the burst count across a range of
// burst shapes.
struct GapSweepParam {
  int bursts;
  int flows_per_burst;
  DurationNs intra_gap;
  DurationNs inter_gap;
};

class SegmentByGapsSweep : public ::testing::TestWithParam<GapSweepParam> {};

TEST_P(SegmentByGapsSweep, RecoversBurstCount) {
  const auto p = GetParam();
  Rng rng(static_cast<std::uint64_t>(p.bursts * 1000 + p.flows_per_burst));
  const auto ts =
      burst_train(p.bursts, p.flows_per_burst, p.intra_gap, p.inter_gap, rng);
  const auto starts = segment_by_gaps(ts);
  EXPECT_EQ(starts.size(), static_cast<std::size_t>(p.bursts));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SegmentByGapsSweep,
    ::testing::Values(
        GapSweepParam{5, 10, kMillisecond, kSecond},
        GapSweepParam{20, 8, kMillisecond, 500 * kMillisecond},
        GapSweepParam{3, 100, 100 * kMicrosecond, 2 * kSecond},
        GapSweepParam{50, 16, 2 * kMillisecond, 800 * kMillisecond},
        GapSweepParam{10, 8, 10 * kMillisecond, 4 * kSecond},
        GapSweepParam{7, 64, 500 * kMicrosecond, kSecond}));

}  // namespace
}  // namespace llmprism
