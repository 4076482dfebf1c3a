// End-to-end integration tests: simulate a multi-tenant cluster, run the
// full LLMPrism pipeline, score against ground truth.
#include "llmprism/core/prism.hpp"

#include <gtest/gtest.h>

#include "llmprism/baseline/eval.hpp"
#include "llmprism/core/render.hpp"
#include "llmprism/simulator/cluster_sim.hpp"

namespace llmprism {
namespace {

JobSimConfig job(std::uint32_t tp, std::uint32_t dp, std::uint32_t pp,
                 std::uint32_t steps = 10) {
  JobSimConfig cfg;
  cfg.parallelism.tp = tp;
  cfg.parallelism.dp = dp;
  cfg.parallelism.pp = pp;
  cfg.parallelism.micro_batches = 4;
  cfg.num_steps = steps;
  return cfg;
}

ClusterSimConfig two_job_cluster() {
  ClusterSimConfig cfg;
  cfg.topology = {.num_machines = 12, .gpus_per_machine = 8,
                  .machines_per_leaf = 4, .num_spines = 2};
  cfg.jobs.push_back({job(8, 2, 2), {}});   // 32 GPUs, 4 machines
  cfg.jobs.push_back({job(8, 4, 1), {}});   // 32 GPUs, 4 machines
  cfg.seed = 2024;
  return cfg;
}

class PrismIntegrationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    sim_ = std::make_unique<ClusterSimResult>(run_cluster_sim(two_job_cluster()));
    prism_ = std::make_unique<Prism>(sim_->topology);
    report_ = std::make_unique<PrismReport>(
        prism_->analyze(FlowColumns(sim_->trace).view()));
  }

  std::unique_ptr<ClusterSimResult> sim_;
  std::unique_ptr<Prism> prism_;
  std::unique_ptr<PrismReport> report_;
};

TEST_F(PrismIntegrationTest, RecognizesBothJobsExactly) {
  const auto score = score_job_recognition(report_->recognition,
                                           std::span(sim_->jobs));
  EXPECT_EQ(score.true_jobs, 2u);
  EXPECT_EQ(score.recognized_jobs, 2u);
  EXPECT_EQ(score.exact_matches, 2u);
  EXPECT_TRUE(score.perfect());
}

TEST_F(PrismIntegrationTest, CrossMachineClustersExceedJobs) {
  // Each job contributes tp-many connectivity components (TP is invisible),
  // so phase 1 must find more clusters than jobs.
  EXPECT_GT(report_->recognition.num_cross_machine_clusters, 2u);
}

TEST_F(PrismIntegrationTest, ClassifiesAllPairsCorrectly) {
  ASSERT_EQ(report_->jobs.size(), 2u);
  for (std::size_t j = 0; j < 2; ++j) {
    // Recognized job order matches sim job order here (both sorted by
    // first GPU id and machines allocated in order).
    const auto score = score_comm_type(
        std::span(report_->jobs[j].comm_types.pairs), sim_->jobs[j]);
    EXPECT_EQ(score.missing_pairs, 0u) << "job " << j;
    EXPECT_DOUBLE_EQ(score.accuracy(), 1.0) << "job " << j;
  }
}

TEST_F(PrismIntegrationTest, RecoversDpGroupCount) {
  // Job 0: tp=8, pp=2 -> 16 DP groups. Job 1: tp=8, pp=1 -> 8 DP groups.
  EXPECT_EQ(report_->jobs[0].comm_types.dp_components.size(), 16u);
  EXPECT_EQ(report_->jobs[1].comm_types.dp_components.size(), 8u);
}

TEST_F(PrismIntegrationTest, TimelineErrorWithinPaperBound) {
  for (std::size_t j = 0; j < 2; ++j) {
    const auto score = score_timelines(std::span(report_->jobs[j].timelines),
                                       sim_->jobs[j]);
    EXPECT_GT(score.ranks_scored, 0u);
    EXPECT_GT(score.matched_fraction(), 0.9) << "job " << j;
    // Paper reports < 0.3% reconstruction error.
    EXPECT_LT(score.mean_duration_error, 0.003) << "job " << j;
  }
}

TEST_F(PrismIntegrationTest, ReconstructsTheRightStepCount) {
  for (const JobAnalysis& job_analysis : report_->jobs) {
    ASSERT_FALSE(job_analysis.timelines.empty());
    // 10 simulated steps; windowing effects allow one step of slack.
    for (const GpuTimeline& t : job_analysis.timelines) {
      EXPECT_GE(t.steps.size(), 9u) << "gpu " << t.gpu;
      EXPECT_LE(t.steps.size(), 11u) << "gpu " << t.gpu;
    }
  }
}

TEST_F(PrismIntegrationTest, HealthyClusterRaisesNoAlerts) {
  for (const JobAnalysis& job_analysis : report_->jobs) {
    EXPECT_TRUE(job_analysis.step_alerts.empty());
    EXPECT_TRUE(job_analysis.group_alerts.empty());
  }
  EXPECT_TRUE(report_->switch_bandwidth_alerts.empty());
}

TEST_F(PrismIntegrationTest, ReportSummaryRenders) {
  const std::string summary = render_report_summary(*report_);
  EXPECT_NE(summary.find("recognized jobs: 2"), std::string::npos);
}

TEST_F(PrismIntegrationTest, TimelineChartRenders) {
  const auto& timelines = report_->jobs[0].timelines;
  ASSERT_GE(timelines.size(), 4u);
  const std::string chart = render_timeline_chart(
      std::span(timelines.data(), 4), {.width = 80});
  EXPECT_NE(chart.find("gpu "), std::string::npos);
  EXPECT_NE(chart.find('D'), std::string::npos);  // DP events visible
}

// ---------------------------------------------------------------------------
// Fault-injection integration: the diagnosis layer must catch what the
// simulator injects.

TEST(PrismDiagnosisIntegrationTest, DetectsStragglerViaCrossStep) {
  ClusterSimConfig cfg;
  cfg.topology = {.num_machines = 4, .gpus_per_machine = 8,
                  .machines_per_leaf = 4, .num_spines = 2};
  auto j = job(8, 2, 2, 20);
  j.stragglers.push_back(
      {.rank = 5, .step_begin = 12, .step_end = 12, .slowdown = 2.0});
  cfg.jobs.push_back({j, {}});
  const auto sim = run_cluster_sim(cfg);
  const Prism prism(sim.topology);
  const auto report = prism.analyze(FlowColumns(sim.trace).view());
  ASSERT_EQ(report.jobs.size(), 1u);
  ASSERT_FALSE(report.jobs[0].step_alerts.empty());
  bool found = false;
  for (const StepAlert& a : report.jobs[0].step_alerts) {
    if (a.step_index == 12) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(PrismDiagnosisIntegrationTest, DetectsSlowDpGroupViaCrossGroup) {
  ClusterSimConfig cfg;
  cfg.topology = {.num_machines = 4, .gpus_per_machine = 8,
                  .machines_per_leaf = 4, .num_spines = 2};
  auto j = job(8, 4, 1, 16);
  j.slow_dp_groups.push_back(
      {.tp_idx = 2, .pp_idx = 0, .step_begin = 8, .step_end = 10,
       .slowdown = 3.0});
  cfg.jobs.push_back({j, {}});
  const auto sim = run_cluster_sim(cfg);
  const Prism prism(sim.topology);
  const auto report = prism.analyze(FlowColumns(sim.trace).view());
  ASSERT_EQ(report.jobs.size(), 1u);
  EXPECT_FALSE(report.jobs[0].group_alerts.empty());
}

TEST(PrismDiagnosisIntegrationTest, DetectsDegradedSwitch) {
  ClusterSimConfig cfg;
  cfg.topology = {.num_machines = 16, .gpus_per_machine = 8,
                  .machines_per_leaf = 2, .num_spines = 4};
  cfg.jobs.push_back({job(8, 8, 2, 10), {}});
  // Degrade one leaf switch for the whole run.
  cfg.switch_faults.push_back(
      {SwitchId(1), TimeWindow{0, 600 * kSecond}, 0.25});
  const auto sim = run_cluster_sim(cfg);
  const Prism prism(sim.topology);
  const auto report = prism.analyze(FlowColumns(sim.trace).view());
  bool flagged = false;
  for (const SwitchBandwidthAlert& a : report.switch_bandwidth_alerts) {
    if (a.switch_id == SwitchId(1)) flagged = true;
  }
  EXPECT_TRUE(flagged);
}

TEST(PrismConfigValidationTest, SegmenterBocdErrorsNameEachField) {
  // Each bound the detector enforces is refused when Prism is built, not
  // at the first analyze() inside a pool task, and the message names the
  // segmenter and the field.
  const auto topology = ClusterTopology::build(
      {.num_machines = 4, .gpus_per_machine = 8, .machines_per_leaf = 4,
       .num_spines = 2});
  struct BadField {
    const char* field;
    void (*apply)(BocdConfig&);
  };
  const BadField bad_fields[] = {
      {"bocd.hazard_lambda", [](BocdConfig& c) { c.hazard_lambda = 0.5; }},
      {"bocd.changepoint_threshold",
       [](BocdConfig& c) { c.changepoint_threshold = 1.0; }},
      {"bocd.prior_beta", [](BocdConfig& c) { c.prior_beta = 0.0; }},
      {"bocd.prior_alpha", [](BocdConfig& c) { c.prior_alpha = 0.7; }},
      {"bocd.max_components", [](BocdConfig& c) { c.max_components = 0; }},
  };
  for (const BadField& bad : bad_fields) {
    for (const bool timeline : {false, true}) {
      PrismConfig cfg;
      SegmenterConfig& seg =
          timeline ? cfg.timeline.segmenter : cfg.comm_type.segmenter;
      bad.apply(seg.bocd);
      const std::string where =
          std::string(timeline ? "timeline" : "comm_type") + ".segmenter: " +
          bad.field;
      const auto errors = cfg.validate();
      ASSERT_EQ(errors.size(), 1u) << where;
      EXPECT_EQ(errors[0].rfind(where, 0), 0u) << errors[0];
      try {
        const Prism prism(topology, cfg);
        ADD_FAILURE() << "Prism accepted " << where;
      } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find(where), std::string::npos)
            << e.what();
      }
    }
  }

  // Every bad field of one segmenter is reported, not only the first.
  PrismConfig cfg;
  for (const BadField& bad : bad_fields) {
    bad.apply(cfg.comm_type.segmenter.bocd);
  }
  EXPECT_EQ(cfg.validate().size(), std::size(bad_fields));
}

}  // namespace
}  // namespace llmprism
