// Tests for 3D-layout inference from recovered communication structure.
#include "llmprism/core/parallelism_inference.hpp"

#include <gtest/gtest.h>

#include "llmprism/core/prism.hpp"
#include "llmprism/simulator/cluster_sim.hpp"

namespace llmprism {
namespace {

CommTypeResult synthetic_structure(
    std::initializer_list<std::vector<std::uint32_t>> dp_components,
    std::initializer_list<std::pair<std::uint32_t, std::uint32_t>> pp_pairs,
    std::initializer_list<std::pair<std::uint32_t, std::uint32_t>> dp_pairs =
        {}) {
  CommTypeResult r;
  for (const auto& component : dp_components) {
    std::vector<GpuId> gpus;
    for (const std::uint32_t g : component) gpus.emplace_back(g);
    r.dp_components.push_back(std::move(gpus));
  }
  for (const auto& [a, b] : pp_pairs) {
    PairClassification p;
    p.pair = GpuPair(GpuId(a), GpuId(b));
    p.type = CommType::kPP;
    r.pairs.push_back(p);
  }
  for (const auto& [a, b] : dp_pairs) {
    PairClassification p;
    p.pair = GpuPair(GpuId(a), GpuId(b));
    p.type = CommType::kDP;
    r.pairs.push_back(p);
  }
  return r;
}

CommTypeResult with_ring_edges(
    std::initializer_list<std::vector<std::uint32_t>> dp_components) {
  // Complete each component with its ring cycle edges.
  CommTypeResult r = synthetic_structure(dp_components, {});
  for (const auto& component : dp_components) {
    const std::vector<std::uint32_t> ids(component);
    for (std::size_t i = 0; i < ids.size(); ++i) {
      if (ids.size() == 2 && i == 1) break;  // single link for 2-rings
      PairClassification p;
      p.pair = GpuPair(GpuId(ids[i]), GpuId(ids[(i + 1) % ids.size()]));
      p.type = CommType::kDP;
      r.pairs.push_back(p);
    }
  }
  return r;
}

TEST(InferParallelismTest, PureDp) {
  const auto comm = synthetic_structure({{0, 8, 16, 24}}, {});
  const auto inf = infer_parallelism(32, comm);
  EXPECT_EQ(inf.dp, 4u);
  EXPECT_EQ(inf.pp, 1u);
  EXPECT_EQ(inf.tp, 8u);
  EXPECT_TRUE(inf.dp_groups_uniform);
  EXPECT_TRUE(inf.divides_world);
}

TEST(InferParallelismTest, DpAndPpChains) {
  // 2 DP components of size 2, one PP chain of 2 stages: world 32 ->
  // tp = 32 / (2*2) = 8.
  const auto comm =
      synthetic_structure({{0, 8}, {16, 24}}, {{0, 16}, {8, 24}});
  const auto inf = infer_parallelism(32, comm);
  EXPECT_EQ(inf.dp, 2u);
  EXPECT_EQ(inf.pp, 2u);
  EXPECT_EQ(inf.tp, 8u);
}

TEST(InferParallelismTest, LongPipelineChain) {
  // One chain 0-8-16-24-32 (pp=5), no DP.
  const auto comm =
      synthetic_structure({}, {{0, 8}, {8, 16}, {16, 24}, {24, 32}});
  const auto inf = infer_parallelism(40, comm);
  EXPECT_EQ(inf.pp, 5u);
  EXPECT_EQ(inf.dp, 1u);
  EXPECT_EQ(inf.tp, 8u);
  EXPECT_TRUE(inf.pp_chains_uniform);
}

TEST(InferParallelismTest, NonUniformGroupsFlagged) {
  const auto comm = synthetic_structure({{0, 8}, {16, 24, 32}}, {});
  const auto inf = infer_parallelism(40, comm);
  EXPECT_FALSE(inf.dp_groups_uniform);
}

TEST(InferParallelismTest, NonDividingWorldFallsBack) {
  const auto comm = synthetic_structure({{0, 8, 16}}, {});
  const auto inf = infer_parallelism(32, comm);  // 32 % 3 != 0
  EXPECT_EQ(inf.tp, 1u);
  EXPECT_FALSE(inf.divides_world);
}

TEST(InferParallelismTest, BranchyPpGraphFlagged) {
  // A "chain" with a degree-3 node is not a simple path.
  const auto comm =
      synthetic_structure({}, {{0, 8}, {8, 16}, {8, 24}});
  const auto inf = infer_parallelism(32, comm);
  EXPECT_FALSE(inf.pp_chains_uniform);
}

TEST(InferParallelismTest, EmptyStructure) {
  const auto inf = infer_parallelism(8, CommTypeResult{});
  EXPECT_EQ(inf.dp, 1u);
  EXPECT_EQ(inf.pp, 1u);
  EXPECT_EQ(inf.tp, 8u);
  EXPECT_EQ(inf.micro_batches, 0u);
}

TEST(InferParallelismTest, MicroBatchesFromFlowCounts) {
  auto comm = synthetic_structure({{0, 8}, {16, 24}}, {{0, 16}, {8, 24}});
  // 10 steps, 6 micro-batches -> 120 flows per PP pair.
  for (auto& p : comm.pairs) p.num_flows = 120;
  std::vector<GpuTimeline> timelines(1);
  timelines[0].gpu = GpuId(0);
  for (int k = 0; k < 10; ++k) {
    timelines[0].steps.push_back(
        {static_cast<std::size_t>(k), k * kSecond, (k + 1) * kSecond,
         k * kSecond, (k + 1) * kSecond});
  }
  const auto inf = infer_parallelism(32, comm, std::span(timelines));
  EXPECT_EQ(inf.micro_batches, 6u);
}

// End-to-end: the Prism pipeline recovers the simulated configs exactly.
struct InferenceSweepParam {
  std::uint32_t tp, dp, pp, mb;
};

class InferenceSweep : public ::testing::TestWithParam<InferenceSweepParam> {};

TEST_P(InferenceSweep, RecoversSimulatedLayout) {
  const auto p = GetParam();
  ClusterSimConfig cfg;
  cfg.topology = {.num_machines = 16, .gpus_per_machine = 8,
                  .machines_per_leaf = 4, .num_spines = 2};
  JobSimConfig job;
  job.parallelism = {.tp = p.tp, .dp = p.dp, .pp = p.pp,
                     .micro_batches = p.mb};
  job.num_steps = 10;
  cfg.jobs.push_back({job, {}});
  const auto sim = run_cluster_sim(cfg);
  const Prism prism(sim.topology);
  const auto report = prism.analyze(sim.trace.view());
  ASSERT_EQ(report.jobs.size(), 1u);
  const InferredParallelism& inf = report.jobs[0].inferred;
  EXPECT_EQ(inf.tp, p.tp);
  EXPECT_EQ(inf.dp, p.dp);
  EXPECT_EQ(inf.pp, p.pp);
  EXPECT_TRUE(inf.dp_groups_uniform);
  EXPECT_TRUE(inf.dp_groups_complete);
  EXPECT_TRUE(inf.divides_world);
  if (p.pp > 1) {
    EXPECT_EQ(inf.micro_batches, p.mb);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, InferenceSweep,
    ::testing::Values(InferenceSweepParam{8, 2, 2, 4},
                      InferenceSweepParam{8, 4, 1, 4},
                      InferenceSweepParam{8, 2, 4, 6},
                      InferenceSweepParam{4, 8, 2, 4},
                      InferenceSweepParam{8, 8, 2, 8}));

TEST(InferenceFlagTest, PathArcComponentFlaggedIncomplete) {
  // A 4-node DP component with only 3 edges (a path) is an open arc of a
  // larger ring whose other links hid inside machines.
  const auto comm = synthetic_structure({{0, 8, 16, 24}}, {},
                                        {{0, 8}, {8, 16}, {16, 24}});
  const auto inf = infer_parallelism(32, comm);
  EXPECT_FALSE(inf.dp_groups_complete);
}

TEST(InferenceFlagTest, CycleComponentIsComplete) {
  const auto comm = with_ring_edges({{0, 8, 16, 24}, {1, 9, 17, 25}});
  const auto inf = infer_parallelism(32, comm);
  EXPECT_TRUE(inf.dp_groups_complete);
  EXPECT_EQ(inf.dp, 4u);
}

TEST(InferenceFlagTest, TwoMemberGroupsAreComplete) {
  const auto comm = with_ring_edges({{0, 8}, {16, 24}});
  const auto inf = infer_parallelism(32, comm);
  EXPECT_TRUE(inf.dp_groups_complete);
  EXPECT_EQ(inf.dp, 2u);
}

TEST(InferenceLimitationTest, IntraMachineRingHopsAreAmbiguous) {
  // tp=2, dp=8 packs 4 DP members of each group per machine: half the ring
  // links hide inside machines and each true dp=8 group appears as two
  // 4-member components. The visible stride-1 + stride-3 edges happen to
  // form 4-cycles, so the layout is structurally indistinguishable from a
  // genuine tp=4/dp=4 job at the flow level. What IS exact is the
  // (tp x dp) plane: world / pp.
  ClusterSimConfig cfg;
  cfg.topology = {.num_machines = 16, .gpus_per_machine = 8,
                  .machines_per_leaf = 4, .num_spines = 2};
  JobSimConfig job;
  job.parallelism = {.tp = 2, .dp = 8, .pp = 2, .micro_batches = 4};
  job.num_steps = 10;
  cfg.jobs.push_back({job, {}});
  const auto sim = run_cluster_sim(cfg);
  const Prism prism(sim.topology);
  const auto report = prism.analyze(sim.trace.view());
  ASSERT_EQ(report.jobs.size(), 1u);
  const InferredParallelism& inf = report.jobs[0].inferred;
  EXPECT_EQ(inf.pp, 2u);
  EXPECT_EQ(inf.tp * inf.dp, 2u * 8u);  // the plane is exact
  EXPECT_EQ(8u % inf.dp, 0u);           // dp is a divisor of the truth
}

}  // namespace
}  // namespace llmprism
