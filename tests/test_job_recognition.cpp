// Unit tests for Alg. 1: job recognition from flows + topology.
#include "llmprism/core/job_recognition.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "llmprism/common/rng.hpp"
#include "llmprism/simulator/cluster_sim.hpp"

namespace llmprism {
namespace {

ClusterTopology topo(std::uint32_t machines = 16) {
  return ClusterTopology::build({.num_machines = machines,
                                 .gpus_per_machine = 8,
                                 .machines_per_leaf = 4,
                                 .num_spines = 2});
}

FlowRecord flow(const ClusterTopology& t, std::uint32_t src,
                std::uint32_t dst, TimeNs at = 0) {
  FlowRecord f;
  f.start_time = at;
  f.src = GpuId(src);
  f.dst = GpuId(dst);
  f.bytes = 1000;
  f.duration = 10;
  f.switches = t.route(GpuId(src), GpuId(dst));
  return f;
}

TEST(JobRecognizerTest, EmptyTraceYieldsNoJobs) {
  const auto t = topo();
  const auto result =
      JobRecognizer(t).recognize(FlowView{});
  EXPECT_TRUE(result.jobs.empty());
  EXPECT_EQ(result.num_cross_machine_clusters, 0u);
}

TEST(JobRecognizerTest, SingleFlowMakesOneJob) {
  const auto t = topo();
  FlowColumns trace;
  trace.add(flow(t, 0, 8));  // machine 0 <-> machine 1
  const auto result = JobRecognizer(t).recognize(trace.view());
  ASSERT_EQ(result.jobs.size(), 1u);
  EXPECT_EQ(result.num_cross_machine_clusters, 1u);
  // machine-local expansion covers both machines fully
  EXPECT_EQ(result.jobs[0].gpus.size(), 16u);
  EXPECT_EQ(result.jobs[0].observed_gpus.size(), 2u);
  ASSERT_EQ(result.jobs[0].machines.size(), 2u);
  EXPECT_EQ(result.jobs[0].machines[0], MachineId(0));
  EXPECT_EQ(result.jobs[0].machines[1], MachineId(1));
}

TEST(JobRecognizerTest, DisconnectedFlowsMakeSeparateJobs) {
  const auto t = topo();
  FlowColumns trace;
  trace.add(flow(t, 0, 8));    // machines 0-1
  trace.add(flow(t, 16, 24));  // machines 2-3
  const auto result = JobRecognizer(t).recognize(trace.view());
  EXPECT_EQ(result.jobs.size(), 2u);
  EXPECT_EQ(result.num_cross_machine_clusters, 2u);
}

TEST(JobRecognizerTest, TransitivityMergesChains) {
  const auto t = topo();
  FlowColumns trace;
  trace.add(flow(t, 0, 8));
  trace.add(flow(t, 8, 16));
  trace.add(flow(t, 16, 24));
  const auto result = JobRecognizer(t).recognize(trace.view());
  ASSERT_EQ(result.jobs.size(), 1u);
  EXPECT_EQ(result.jobs[0].machines.size(), 4u);
}

TEST(JobRecognizerTest, TopologyMergeJoinsTpLanes) {
  // Two connectivity components on the SAME machine set (distinct GPU slots
  // per machine) model a job's separate TP lanes: they must merge.
  const auto t = topo();
  FlowColumns trace;
  trace.add(flow(t, 0, 8));   // lane A: machine0 slot0 <-> machine1 slot0
  trace.add(flow(t, 1, 9));   // lane B: machine0 slot1 <-> machine1 slot1
  const auto result = JobRecognizer(t).recognize(trace.view());
  EXPECT_EQ(result.num_cross_machine_clusters, 2u);
  ASSERT_EQ(result.jobs.size(), 1u);
  EXPECT_EQ(result.jobs[0].cross_machine_clusters.size(), 2u);
}

TEST(JobRecognizerTest, DifferentMachineSetsStaySeparate) {
  const auto t = topo();
  FlowColumns trace;
  trace.add(flow(t, 0, 8));    // machines {0,1}
  trace.add(flow(t, 1, 17));   // machines {0,2} - overlapping but different
  const auto result = JobRecognizer(t).recognize(trace.view());
  // Machine sets {0,1} and {0,2} differ -> no merge.
  EXPECT_EQ(result.jobs.size(), 2u);
}

TEST(JobRecognizerTest, SameMachineSetJobsAreMergedKnownLimitation) {
  // Two *different* jobs packed onto disjoint GPU halves of the same
  // machines are merged by Alg. 1 (machine sets are identical). This pins
  // the published algorithm's known limitation.
  const auto t = topo();
  FlowColumns trace;
  trace.add(flow(t, 0, 8));   // job A on slots 0-3
  trace.add(flow(t, 4, 12));  // job B on slots 4-7, same machines
  const auto result = JobRecognizer(t).recognize(trace.view());
  EXPECT_EQ(result.jobs.size(), 1u);
}

TEST(JobRecognizerTest, IntraMachineFlowsDoNotCreateJobs) {
  // A defensive case: flows between GPUs of one machine (which a switch
  // would never see) still unify but produce a single-machine job.
  const auto t = topo();
  FlowColumns trace;
  trace.add(flow(t, 0, 1));
  const auto result = JobRecognizer(t).recognize(trace.view());
  ASSERT_EQ(result.jobs.size(), 1u);
  EXPECT_EQ(result.jobs[0].machines.size(), 1u);
}

TEST(JobRecognizerTest, GpuOutsideTheTopologyThrows) {
  // The endpoint table is sized by the topology, not by the largest id in
  // the window: an LFT file can carry any uint32 id.
  const auto t = topo(2);  // GPUs 0..15
  for (const std::uint32_t bad : {16u, 1000u, 0xfffffffeu, 0xffffffffu}) {
    SCOPED_TRACE(bad);
    FlowColumns as_dst;
    as_dst.add(flow(t, 0, 8));
    FlowRecord f = flow(t, 0, 8, 1);
    f.dst = GpuId(bad);
    as_dst.add(f);
    EXPECT_THROW((void)JobRecognizer(t).recognize(as_dst.view()),
                 std::out_of_range);
    FlowColumns as_src;
    f.src = GpuId(bad);
    f.dst = GpuId(3);
    as_src.add(f);
    EXPECT_THROW((void)JobRecognizer(t).recognize(as_src.view()),
                 std::out_of_range);
  }
  // A self-flow forms no cross-machine cluster, so its id never reaches
  // the topology — as before, it is ignored rather than rejected.
  FlowColumns self;
  self.add(flow(t, 0, 8));
  FlowRecord loop = flow(t, 0, 8, 1);
  loop.src = GpuId(1000);
  loop.dst = GpuId(1000);
  self.add(loop);
  const auto result = JobRecognizer(t).recognize(self.view());
  ASSERT_EQ(result.jobs.size(), 1u);
  EXPECT_EQ(result.jobs[0].machines.size(), 2u);
}

TEST(JobRecognizerTest, JobsOrderedByFirstGpu) {
  const auto t = topo();
  FlowColumns trace;
  trace.add(flow(t, 64, 72));  // machines 8-9
  trace.add(flow(t, 0, 8));    // machines 0-1
  const auto result = JobRecognizer(t).recognize(trace.view());
  ASSERT_EQ(result.jobs.size(), 2u);
  EXPECT_LT(result.jobs[0].gpus.front(), result.jobs[1].gpus.front());
}

// Integration with the simulator: a simulated multi-job cluster is
// recognized exactly, across several job shapes (parameterized sweep).
struct RecognitionSweepParam {
  std::uint32_t tp, dp, pp;
};

class JobRecognitionSweep
    : public ::testing::TestWithParam<RecognitionSweepParam> {};

TEST_P(JobRecognitionSweep, RecognizesSimulatedJobExactly) {
  const auto p = GetParam();
  ClusterSimConfig cfg;
  cfg.topology = {.num_machines = 32, .gpus_per_machine = 8,
                  .machines_per_leaf = 4, .num_spines = 2};
  JobSimConfig job;
  job.parallelism.tp = p.tp;
  job.parallelism.dp = p.dp;
  job.parallelism.pp = p.pp;
  job.num_steps = 3;
  cfg.jobs.push_back({job, {}});
  const auto sim = run_cluster_sim(cfg);
  const auto result =
      JobRecognizer(sim.topology).recognize(sim.trace.view());
  ASSERT_EQ(result.jobs.size(), 1u);
  std::vector<GpuId> expected = sim.jobs[0].gpus;
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(result.jobs[0].gpus, expected);
  // Phase 1 produces at least one cluster per TP lane (more when DP ring
  // edges hide inside machines and split a lane), all merged by phase 2.
  EXPECT_GE(result.num_cross_machine_clusters, p.tp);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, JobRecognitionSweep,
    ::testing::Values(RecognitionSweepParam{8, 2, 2},
                      RecognitionSweepParam{8, 4, 1},
                      RecognitionSweepParam{8, 1, 4},
                      RecognitionSweepParam{4, 4, 2},
                      RecognitionSweepParam{2, 8, 2},
                      RecognitionSweepParam{1, 8, 4}));

TEST(JobRecognizerLimitationTest, InteriorRanksMaySplitJobs) {
  // tp=1, dp=16, 8 ranks per machine: some ranks' ring edges are all
  // intra-machine, so they appear only in PP-edge components spanning a
  // SUBSET of the job's machines. Alg. 1's exact machine-set merge then
  // splits the job — a pinned limitation of the published algorithm on
  // dp-heavy intra-machine layouts.
  ClusterSimConfig cfg;
  cfg.topology = {.num_machines = 32, .gpus_per_machine = 8,
                  .machines_per_leaf = 4, .num_spines = 2};
  JobSimConfig job;
  job.parallelism = {.tp = 1, .dp = 16, .pp = 2, .micro_batches = 4};
  job.num_steps = 3;
  cfg.jobs.push_back({job, {}});
  const auto sim = run_cluster_sim(cfg);
  const auto result =
      JobRecognizer(sim.topology).recognize(sim.trace.view());
  EXPECT_GT(result.jobs.size(), 1u);
}

}  // namespace
}  // namespace llmprism
