// Unit tests for the ablation baselines and the evaluation scorers.
#include <gtest/gtest.h>

#include "llmprism/baseline/eval.hpp"
#include "llmprism/baseline/naive_classifier.hpp"
#include "llmprism/baseline/step_divider.hpp"

namespace llmprism {
namespace {

FlowRecord flow(TimeNs t, std::uint32_t src, std::uint32_t dst,
                std::uint64_t bytes) {
  FlowRecord f;
  f.start_time = t;
  f.src = GpuId(src);
  f.dst = GpuId(dst);
  f.bytes = bytes;
  f.duration = 100;
  return f;
}

// ---------------------------------------------------------------------------
// Threshold step divider

TEST(ThresholdDividerTest, SplitsOnLargeGaps) {
  std::vector<TimeNs> ts;
  for (int b = 0; b < 5; ++b) {
    for (int i = 0; i < 10; ++i) ts.push_back(b * kSecond + i * kMillisecond);
  }
  const auto starts = segment_by_threshold(ts);
  ASSERT_EQ(starts.size(), 5u);
  for (std::size_t b = 0; b < 5; ++b) EXPECT_EQ(starts[b], b * 10);
}

TEST(ThresholdDividerTest, EmptyAndSingleton) {
  EXPECT_TRUE(segment_by_threshold({}).empty());
  const std::vector<TimeNs> one{5};
  EXPECT_EQ(segment_by_threshold(one).size(), 1u);
}

TEST(ThresholdDividerTest, ThrowsOnUnsorted) {
  const std::vector<TimeNs> ts{5, 1};
  EXPECT_THROW(segment_by_threshold(ts), std::invalid_argument);
}

TEST(ThresholdDividerTest, FactorControlsSensitivity) {
  // two short intervals for every 5ms one: median is 1ms, so factor 3
  // splits on the 5ms intervals while factor 10 does not.
  std::vector<TimeNs> ts{0};
  for (int i = 0; i < 30; ++i) {
    ts.push_back(ts.back() + (i % 3 == 2 ? 5 * kMillisecond : kMillisecond));
  }
  EXPECT_GT(segment_by_threshold(ts, {.factor = 3.0}).size(), 1u);
  EXPECT_EQ(segment_by_threshold(ts, {.factor = 10.0}).size(), 1u);
}

// ---------------------------------------------------------------------------
// Naive classifiers

TEST(GlobalDistinctSizeTest, ClassifiesByWholeWindow) {
  FlowColumns t;
  t.add(flow(0, 0, 8, 100));
  t.add(flow(1, 0, 8, 100));
  t.add(flow(2, 8, 16, 100));
  t.add(flow(3, 8, 16, 500));
  const auto types = classify_by_global_distinct_sizes(t);
  EXPECT_EQ(types.at(GpuPair(GpuId(0), GpuId(8))), CommType::kPP);
  EXPECT_EQ(types.at(GpuPair(GpuId(8), GpuId(16))), CommType::kDP);
}

TEST(GlobalDistinctSizeTest, OneGlitchFlipsThePair) {
  // The weakness the per-step mode fixes: a single odd-size flow anywhere
  // in the window flips the naive classifier.
  FlowColumns t;
  for (int i = 0; i < 100; ++i) t.add(flow(i, 0, 8, 100));
  t.add(flow(101, 0, 8, 9999));
  const auto types = classify_by_global_distinct_sizes(t);
  EXPECT_EQ(types.at(GpuPair(GpuId(0), GpuId(8))), CommType::kDP);
}

TEST(VolumeThresholdTest, ClassifiesByMeanSize) {
  FlowColumns t;
  t.add(flow(0, 0, 8, 1 << 20));          // small -> PP
  t.add(flow(1, 8, 16, 512ull << 20));    // large -> DP
  const auto types = classify_by_volume_threshold(t);
  EXPECT_EQ(types.at(GpuPair(GpuId(0), GpuId(8))), CommType::kPP);
  EXPECT_EQ(types.at(GpuPair(GpuId(8), GpuId(16))), CommType::kDP);
}

TEST(VolumeThresholdTest, ThresholdIsConfigurable) {
  FlowColumns t;
  t.add(flow(0, 0, 8, 1000));
  const auto types = classify_by_volume_threshold(t, {.dp_threshold_bytes = 10});
  EXPECT_EQ(types.at(GpuPair(GpuId(0), GpuId(8))), CommType::kDP);
}

// ---------------------------------------------------------------------------
// score_comm_type / score_comm_type_map

JobTruth truth_with_pairs(
    std::initializer_list<std::pair<GpuPair, CommType>> pairs) {
  JobTruth t;
  for (const auto& [p, c] : pairs) t.pair_types.emplace(p, c);
  return t;
}

TEST(ScoreCommTypeTest, CountsCorrectAndConfusion) {
  const auto truth = truth_with_pairs({
      {GpuPair(GpuId(0), GpuId(8)), CommType::kPP},
      {GpuPair(GpuId(8), GpuId(16)), CommType::kDP},
      {GpuPair(GpuId(16), GpuId(24)), CommType::kDP},
      {GpuPair(GpuId(24), GpuId(32)), CommType::kPP},
  });
  std::vector<PairClassification> pairs(4);
  pairs[0].pair = GpuPair(GpuId(0), GpuId(8));
  pairs[0].type = CommType::kPP;
  pairs[1].pair = GpuPair(GpuId(8), GpuId(16));
  pairs[1].type = CommType::kPP;  // DP misread as PP
  pairs[2].pair = GpuPair(GpuId(16), GpuId(24));
  pairs[2].type = CommType::kDP;
  pairs[3].pair = GpuPair(GpuId(24), GpuId(32));
  pairs[3].type = CommType::kDP;  // PP misread as DP
  const auto score = score_comm_type(std::span(pairs), truth);
  EXPECT_EQ(score.total_pairs, 4u);
  EXPECT_EQ(score.correct, 2u);
  EXPECT_EQ(score.dp_as_pp, 1u);
  EXPECT_EQ(score.pp_as_dp, 1u);
  EXPECT_DOUBLE_EQ(score.accuracy(), 0.5);
}

TEST(ScoreCommTypeTest, MissingPairsCounted) {
  const auto truth = truth_with_pairs({
      {GpuPair(GpuId(0), GpuId(8)), CommType::kPP},
  });
  const auto score = score_comm_type({}, truth);
  EXPECT_EQ(score.missing_pairs, 1u);
  EXPECT_EQ(score.total_pairs, 0u);
  EXPECT_DOUBLE_EQ(score.accuracy(), 1.0);  // vacuous
}

TEST(ScoreCommTypeTest, PreRefinementUsesOtherLabel) {
  const auto truth = truth_with_pairs({
      {GpuPair(GpuId(0), GpuId(8)), CommType::kDP},
  });
  std::vector<PairClassification> pairs(1);
  pairs[0].pair = GpuPair(GpuId(0), GpuId(8));
  pairs[0].type = CommType::kDP;
  pairs[0].pre_refinement_type = CommType::kPP;
  EXPECT_DOUBLE_EQ(score_comm_type(std::span(pairs), truth, false).accuracy(),
                   1.0);
  EXPECT_DOUBLE_EQ(score_comm_type(std::span(pairs), truth, true).accuracy(),
                   0.0);
}

// ---------------------------------------------------------------------------
// score_job_recognition

TEST(ScoreJobRecognitionTest, ExactMatchesAndMerges) {
  std::vector<JobTruth> truth(2);
  truth[0].gpus = {GpuId(0), GpuId(1)};
  truth[1].gpus = {GpuId(8), GpuId(9)};

  JobRecognitionResult result;
  RecognizedJob a;
  a.gpus = {GpuId(0), GpuId(1)};
  RecognizedJob b;  // merged blob covering both jobs
  b.gpus = {GpuId(8), GpuId(9), GpuId(16)};
  result.jobs = {a, b};

  const auto score = score_job_recognition(result, std::span(truth));
  EXPECT_EQ(score.true_jobs, 2u);
  EXPECT_EQ(score.recognized_jobs, 2u);
  EXPECT_EQ(score.exact_matches, 1u);
  EXPECT_EQ(score.merged_or_split, 1u);
  EXPECT_FALSE(score.perfect());
}

// ---------------------------------------------------------------------------
// score_timelines

TEST(ScoreTimelinesTest, PerfectReconstructionScoresZeroError) {
  JobTruth truth;
  truth.gpus = {GpuId(0)};
  truth.dp_group_of_rank = {0};
  truth.dp_group_spans.resize(1);
  GpuTimeline t;
  t.gpu = GpuId(0);
  TimeNs at = 0;
  for (int k = 0; k < 10; ++k) {
    const TimeNs end = at + kSecond;
    truth.dp_group_spans[0].push_back({end - 50 * kMillisecond, end});
    t.steps.push_back({static_cast<std::size_t>(k), at, end,
                       end - 50 * kMillisecond, end});
    at = end;
  }
  const std::vector<GpuTimeline> ts{t};
  const auto score = score_timelines(std::span(ts), truth);
  EXPECT_EQ(score.ranks_scored, 1u);
  EXPECT_DOUBLE_EQ(score.matched_fraction(), 1.0);
  EXPECT_DOUBLE_EQ(score.mean_duration_error, 0.0);
  EXPECT_DOUBLE_EQ(score.mean_boundary_offset_s, 0.0);
}

TEST(ScoreTimelinesTest, OffsetBoundariesProduceError) {
  JobTruth truth;
  truth.gpus = {GpuId(0)};
  truth.dp_group_of_rank = {0};
  truth.dp_group_spans.resize(1);
  GpuTimeline t;
  t.gpu = GpuId(0);
  TimeNs at = 0;
  for (int k = 0; k < 10; ++k) {
    const TimeNs end = at + kSecond;
    truth.dp_group_spans[0].push_back({end - 50 * kMillisecond, end});
    // reconstruction drifts by k*1ms -> each duration off by 1ms = 0.1%
    t.steps.push_back({static_cast<std::size_t>(k), at, end + k * kMillisecond,
                       end - 50 * kMillisecond, end + k * kMillisecond});
    at = end;
  }
  const std::vector<GpuTimeline> ts{t};
  const auto score = score_timelines(std::span(ts), truth);
  EXPECT_NEAR(score.mean_duration_error, 0.001, 1e-9);
  EXPECT_GT(score.mean_boundary_offset_s, 0.0);
}

TEST(ScoreTimelinesTest, UnknownGpusIgnored) {
  JobTruth truth;
  truth.gpus = {GpuId(0)};
  truth.dp_group_of_rank = {0};
  truth.dp_group_spans.resize(1);
  truth.dp_group_spans[0].push_back({0, 100});
  GpuTimeline t;
  t.gpu = GpuId(99);  // not part of the job
  t.steps.push_back({0, 0, 100, 0, 100});
  const std::vector<GpuTimeline> ts{t};
  const auto score = score_timelines(std::span(ts), truth);
  EXPECT_EQ(score.ranks_scored, 0u);
}

TEST(ScoreTimelinesTest, MissedBoundariesLowerMatchedFraction) {
  JobTruth truth;
  truth.gpus = {GpuId(0)};
  truth.dp_group_of_rank = {0};
  truth.dp_group_spans.resize(1);
  GpuTimeline t;
  t.gpu = GpuId(0);
  TimeNs at = 0;
  for (int k = 0; k < 10; ++k) {
    const TimeNs end = at + kSecond;
    truth.dp_group_spans[0].push_back({end - 50 * kMillisecond, end});
    if (k % 2 == 0) {  // only half the boundaries reconstructed
      t.steps.push_back({static_cast<std::size_t>(k), at, end,
                         end - 50 * kMillisecond, end});
    }
    at = end;
  }
  const std::vector<GpuTimeline> ts{t};
  const auto score = score_timelines(std::span(ts), truth);
  EXPECT_DOUBLE_EQ(score.matched_fraction(), 0.5);
}

}  // namespace
}  // namespace llmprism
