// Cross-module property tests: invariants that must hold across seeds,
// configurations and serialization boundaries.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <sstream>

#include "llmprism/core/diagnosis.hpp"

#include "llmprism/baseline/eval.hpp"
#include "llmprism/collector/collector.hpp"
#include "llmprism/collector/packetize.hpp"
#include "llmprism/common/stats.hpp"
#include "llmprism/core/prism.hpp"
#include "llmprism/flow/io.hpp"
#include "llmprism/simulator/cluster_sim.hpp"

namespace llmprism {
namespace {

ClusterSimConfig base_config(std::uint64_t seed) {
  ClusterSimConfig cfg;
  cfg.topology = {.num_machines = 12, .gpus_per_machine = 8,
                  .machines_per_leaf = 4, .num_spines = 2};
  cfg.seed = seed;
  JobSimConfig a;
  a.parallelism = {.tp = 8, .dp = 2, .pp = 2, .micro_batches = 4};
  a.num_steps = 8;
  JobSimConfig b;
  b.parallelism = {.tp = 8, .dp = 4, .pp = 1, .micro_batches = 4};
  b.num_steps = 8;
  cfg.jobs.push_back({a, {}});
  cfg.jobs.push_back({b, {}});
  return cfg;
}

// Across random seeds, the full pipeline stays perfect on clean traces.
class SeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SeedSweep, CleanPipelineIsPerfect) {
  const auto sim = run_cluster_sim(base_config(GetParam()));
  const Prism prism(sim.topology);
  const auto report = prism.analyze(FlowColumns(sim.trace).view());

  const auto recognition =
      score_job_recognition(report.recognition, std::span(sim.jobs));
  EXPECT_TRUE(recognition.perfect());

  for (std::size_t j = 0; j < report.jobs.size(); ++j) {
    const auto comm = score_comm_type(
        std::span(report.jobs[j].comm_types.pairs), sim.jobs[j]);
    EXPECT_DOUBLE_EQ(comm.accuracy(), 1.0) << "seed " << GetParam();
    const auto timeline =
        score_timelines(std::span(report.jobs[j].timelines), sim.jobs[j]);
    EXPECT_LT(timeline.mean_duration_error, 0.003) << "seed " << GetParam();
    EXPECT_TRUE(report.jobs[j].step_alerts.empty());
    EXPECT_TRUE(report.jobs[j].group_alerts.empty());
  }
  EXPECT_TRUE(report.switch_bandwidth_alerts.empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweep,
                         ::testing::Values(1u, 7u, 42u, 1234u, 99999u,
                                           0xdeadbeefu));

// Analysis is a pure function of the trace: two runs agree exactly.
TEST(DeterminismTest, AnalysisIsReproducible) {
  const auto sim = run_cluster_sim(base_config(5));
  const Prism prism(sim.topology);
  const auto a = prism.analyze(FlowColumns(sim.trace).view());
  const auto b = prism.analyze(FlowColumns(sim.trace).view());
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (std::size_t j = 0; j < a.jobs.size(); ++j) {
    ASSERT_EQ(a.jobs[j].comm_types.pairs.size(),
              b.jobs[j].comm_types.pairs.size());
    for (std::size_t p = 0; p < a.jobs[j].comm_types.pairs.size(); ++p) {
      EXPECT_EQ(a.jobs[j].comm_types.pairs[p].type,
                b.jobs[j].comm_types.pairs[p].type);
    }
    ASSERT_EQ(a.jobs[j].timelines.size(), b.jobs[j].timelines.size());
    for (std::size_t t = 0; t < a.jobs[j].timelines.size(); ++t) {
      ASSERT_EQ(a.jobs[j].timelines[t].steps.size(),
                b.jobs[j].timelines[t].steps.size());
      for (std::size_t s = 0; s < a.jobs[j].timelines[t].steps.size(); ++s) {
        EXPECT_EQ(a.jobs[j].timelines[t].steps[s].end,
                  b.jobs[j].timelines[t].steps[s].end);
      }
    }
  }
}

// CSV serialization is transparent to the analysis: identical conclusions
// from the round-tripped trace.
TEST(SerializationTest, CsvRoundTripPreservesAnalysis) {
  const auto sim = run_cluster_sim(base_config(11));
  std::stringstream ss;
  write_csv(ss, sim.trace);
  FlowTrace back = read_csv(ss);
  back.sort();
  ASSERT_EQ(back.size(), sim.trace.size());

  const Prism prism(sim.topology);
  const auto direct = prism.analyze(FlowColumns(sim.trace).view());
  const auto roundtrip = prism.analyze(FlowColumns(back).view());
  ASSERT_EQ(direct.jobs.size(), roundtrip.jobs.size());
  for (std::size_t j = 0; j < direct.jobs.size(); ++j) {
    EXPECT_EQ(direct.jobs[j].job.gpus, roundtrip.jobs[j].job.gpus);
    EXPECT_EQ(direct.jobs[j].inferred.tp, roundtrip.jobs[j].inferred.tp);
    EXPECT_EQ(direct.jobs[j].inferred.dp, roundtrip.jobs[j].inferred.dp);
    EXPECT_EQ(direct.jobs[j].inferred.pp, roundtrip.jobs[j].inferred.pp);
  }
}

// The packet path conserves bytes under fine collector timeouts, for any
// packetization shape.
class CollectorConservation
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, double>> {};

TEST_P(CollectorConservation, BytesConserved) {
  const auto [mtu, jitter] = GetParam();
  const auto sim = run_cluster_sim(base_config(17));
  std::uint64_t truth_bytes = 0;
  for (const FlowRecord& f : sim.trace) truth_bytes += f.bytes;

  Rng rng(23);
  PacketizeConfig pk;
  pk.mtu_bytes = mtu;
  pk.pacing_jitter = jitter;
  const auto packets = packetize(sim.trace, pk, rng);
  std::uint64_t packet_bytes = 0;
  for (const PacketRecord& p : packets) packet_bytes += p.bytes;
  EXPECT_EQ(packet_bytes, truth_bytes);

  CollectorConfig cc;
  cc.idle_timeout = 300 * kMicrosecond;
  cc.active_timeout = 10 * kSecond;
  const auto records = collect_flows(packets, sim.topology, cc, rng);
  std::uint64_t record_bytes = 0;
  for (const FlowRecord& f : records) record_bytes += f.bytes;
  EXPECT_EQ(record_bytes, truth_bytes);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, CollectorConservation,
    ::testing::Combine(::testing::Values(1024u, 4096u, 9000u),
                       ::testing::Values(0.0, 0.3)));

// Simulator byte accounting: every rank's DP traffic per step carries the
// ring-allreduce volume 2*(dp-1)/dp * total (split over channels but
// summed back per rank, within rounding of bucket/round division).
TEST(SimulatorAccountingTest, DpBytesMatchRingVolume) {
  ClusterSimConfig cfg;
  cfg.topology = {.num_machines = 4, .gpus_per_machine = 8,
                  .machines_per_leaf = 4, .num_spines = 2};
  JobSimConfig job;
  job.parallelism = {.tp = 8, .dp = 4, .pp = 1, .micro_batches = 4};
  job.num_steps = 4;
  cfg.jobs.push_back({job, {}});
  const auto sim = run_cluster_sim(cfg);

  // Sum DP bytes SENT by rank 0 in the whole run.
  const GpuId g0 = sim.jobs[0].gpus[0];
  std::uint64_t sent = 0;
  for (const FlowRecord& f : sim.trace) {
    if (f.src == g0 &&
        sim.jobs[0].pair_types.at(f.pair()) == CommType::kDP) {
      sent += f.bytes;
    }
  }
  const double expected = static_cast<double>(job.dp_total_bytes) * 2.0 *
                          (4 - 1) / 4 * job.num_steps;
  EXPECT_NEAR(static_cast<double>(sent), expected, expected * 0.01);
}

// Recognized jobs partition the observed GPUs: no GPU in two jobs.
TEST(RecognitionPartitionTest, JobsAreDisjoint) {
  const auto sim = run_cluster_sim(base_config(29));
  const JobRecognizer recognizer(sim.topology);
  const auto result = recognizer.recognize(FlowColumns(sim.trace).view());
  std::unordered_set<GpuId> seen;
  for (const RecognizedJob& job : result.jobs) {
    for (const GpuId g : job.gpus) {
      EXPECT_TRUE(seen.insert(g).second) << g;
    }
  }
}

// Reconstructed steps are well-formed for every rank: monotone, contiguous,
// positive DP spans inside the step.
TEST(TimelineWellFormedTest, StepsAreMonotoneAndContiguous) {
  const auto sim = run_cluster_sim(base_config(31));
  const Prism prism(sim.topology);
  const auto report = prism.analyze(FlowColumns(sim.trace).view());
  for (const JobAnalysis& job : report.jobs) {
    for (const GpuTimeline& t : job.timelines) {
      for (std::size_t s = 0; s < t.steps.size(); ++s) {
        const ReconstructedStep& step = t.steps[s];
        EXPECT_LT(step.begin, step.end);
        EXPECT_LE(step.dp_begin, step.dp_end);
        EXPECT_EQ(step.end, step.dp_end);
        if (s > 0) EXPECT_EQ(step.begin, t.steps[s - 1].end);
      }
      // events are chronological by start
      for (std::size_t e = 1; e < t.events.size(); ++e) {
        EXPECT_GE(t.events[e].start, t.events[e - 1].start);
      }
    }
  }
}

// --- k-sigma rule properties -----------------------------------------------

/// Values flagged by the k-sigma rule form a set property of the sample,
/// not of its ordering: permuting the series permutes the indices but
/// flags exactly the same values.
TEST(KSigmaPropertyTest, OutlierSetIsPermutationInvariant) {
  std::vector<double> xs = {1.00, 1.02, 0.98, 1.01, 0.99, 1.03,
                            0.97, 1.00, 1.02, 0.98, 1.01, 4.70};
  const KSigmaConfig config;  // defaults: k=3, stddev, leave-one-out

  const auto flagged_values = [&](const std::vector<double>& series) {
    std::vector<double> values;
    for (const std::size_t i : ksigma_outliers_above(series, config)) {
      values.push_back(series[i]);
    }
    std::sort(values.begin(), values.end());
    return values;
  };

  const auto reference = flagged_values(xs);
  ASSERT_EQ(reference, std::vector<double>{4.70});

  std::mt19937 rng(1234);
  for (int round = 0; round < 16; ++round) {
    std::shuffle(xs.begin(), xs.end(), rng);
    EXPECT_EQ(flagged_values(xs), reference) << "round " << round;
  }
}

/// With n samples the maximum z-score attainable against GLOBAL statistics
/// is bounded (the outlier inflates its own sigma), so a global 3-sigma
/// rule cannot fire on a short series no matter how gross the outlier.
/// Leave-one-out removes the self-masking and fires. This is exactly the
/// 8-DP-group regime of cross-group diagnosis.
TEST(KSigmaPropertyTest, LeaveOneOutFiresWhereGlobalRuleCannot) {
  const std::vector<double> xs = {1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 10.0};

  EXPECT_LT(xs[7], stats::mean(xs) + 3.0 * stats::stddev(xs))
      << "global rule should self-mask on n=8";

  const auto flagged = ksigma_outliers_above(xs, KSigmaConfig{});
  EXPECT_EQ(flagged, std::vector<std::size_t>{7});
}

/// Leave-one-out removes only ONE point from the reference, so two
/// simultaneous outliers still mask each other under the stddev estimator.
/// The median/MAD estimator has a 50% breakdown point and flags both —
/// the reason switch-level diagnosis defaults to kMad.
TEST(KSigmaPropertyTest, MadSurvivesTwoSimultaneousOutliers) {
  const std::vector<double> xs = {1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 4.0, 4.0};

  KSigmaConfig stddev;
  stddev.dispersion = Dispersion::kStddev;
  EXPECT_TRUE(ksigma_outliers_above(xs, stddev).empty())
      << "the second outlier should inflate the leave-one-out sigma";

  KSigmaConfig mad;
  mad.dispersion = Dispersion::kMad;
  const auto flagged = ksigma_outliers_above(xs, mad);
  EXPECT_EQ(flagged, (std::vector<std::size_t>{6, 7}));
}

/// min_relative_excess is checked against the LEAVE-ONE-OUT reference mean
/// (1.0 here), not the outlier-polluted global mean. A series of seven 1.0s
/// has zero leave-one-out sigma, so the margin is the only gate: 22% over
/// fires, 19% over does not. Under a (wrong) global mean of 1.0275 the
/// margin would be 1.233 and the first case could not fire.
TEST(KSigmaPropertyTest, RelativeExcessUsesLeaveOneOutMean) {
  const KSigmaConfig config;  // min_relative_excess = 0.2
  const std::vector<double> fires = {1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.22};
  EXPECT_EQ(ksigma_outliers_above(fires, config),
            std::vector<std::size_t>{7});

  const std::vector<double> holds = {1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.19};
  EXPECT_TRUE(ksigma_outliers_above(holds, config).empty());
}

}  // namespace
}  // namespace llmprism
