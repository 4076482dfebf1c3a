// Unit tests for Alg. 2: communication-type identification.
#include "llmprism/core/comm_type.hpp"

#include <gtest/gtest.h>

#include "llmprism/baseline/eval.hpp"
#include "llmprism/simulator/cluster_sim.hpp"
#include "trace_stages.hpp"

namespace llmprism {
namespace {

// Build a synthetic per-pair trace: `steps` bursts; PP pairs send
// `flows_per_step` equal-size flows; DP pairs send flows of `sizes`.
void add_pair_flows(FlowColumns& trace, std::uint32_t a, std::uint32_t b,
                    int steps, const std::vector<std::uint64_t>& sizes,
                    int repeats_per_size = 4, TimeNs step_period = 2 * kSecond,
                    TimeNs flow_spacing = kMillisecond) {
  for (int k = 0; k < steps; ++k) {
    TimeNs t = k * step_period;
    for (const std::uint64_t size : sizes) {
      for (int r = 0; r < repeats_per_size; ++r) {
        FlowRecord f;
        f.start_time = t;
        f.src = GpuId(a);
        f.dst = GpuId(b);
        f.bytes = size;
        f.duration = 100;
        trace.add(f);
        t += flow_spacing;
      }
    }
  }
}

TEST(CommTypeIdentifierTest, CountDistinctSizesWithTolerance) {
  const CommTypeIdentifier id;
  EXPECT_EQ(id.count_distinct_sizes({}), 0u);
  EXPECT_EQ(id.count_distinct_sizes({100}), 1u);
  EXPECT_EQ(id.count_distinct_sizes({100, 102, 104}), 1u);  // within 5%
  EXPECT_EQ(id.count_distinct_sizes({100, 200}), 2u);
  EXPECT_EQ(id.count_distinct_sizes({100, 104, 120, 250, 255}), 3u);
  // The tolerance is inclusive: 5% above a cluster's base still joins it.
  EXPECT_EQ(id.count_distinct_sizes({100, 105}), 1u);
  EXPECT_EQ(id.count_distinct_sizes({100, 106}), 2u);
}

TEST(CommTypeIdentifierTest, SingleSizePairIsPP) {
  FlowColumns trace;
  add_pair_flows(trace, 0, 8, 6, {1 << 20}, 8);
  trace.sort();
  const auto result = identify(CommTypeIdentifier{}, trace);
  ASSERT_EQ(result.pairs.size(), 1u);
  EXPECT_EQ(result.pairs[0].type, CommType::kPP);
  EXPECT_TRUE(result.dp_components.empty());
}

TEST(CommTypeIdentifierTest, MultiSizePairIsDP) {
  FlowColumns trace;
  add_pair_flows(trace, 0, 8, 6, {1 << 20, 3 << 20, 5 << 20});
  trace.sort();
  const auto result = identify(CommTypeIdentifier{}, trace);
  ASSERT_EQ(result.pairs.size(), 1u);
  EXPECT_EQ(result.pairs[0].type, CommType::kDP);
  ASSERT_EQ(result.dp_components.size(), 1u);
  EXPECT_EQ(result.dp_components[0].size(), 2u);
}

TEST(CommTypeIdentifierTest, ModeIsRobustToOneCorruptStep) {
  // One step where the collector only captured one size must not flip a DP
  // pair: the mode over steps absorbs it.
  FlowColumns trace;
  add_pair_flows(trace, 0, 8, 5, {1 << 20, 3 << 20});
  // one extra burst far later with a single size
  add_pair_flows(trace, 0, 8, 1, {1 << 20}, 8, 2 * kSecond, kMillisecond);
  trace.sort();
  const auto result = identify(CommTypeIdentifier{}, trace);
  ASSERT_EQ(result.pairs.size(), 1u);
  EXPECT_EQ(result.pairs[0].type, CommType::kDP);
}

TEST(CommTypeIdentifierTest, MajorityCorruptStepsFlipWithoutRefinement) {
  // If MOST steps are truncated to one size, the mode says PP — this is the
  // Table I "w/o refinement" failure mode.
  FlowColumns trace;
  add_pair_flows(trace, 0, 8, 2, {1 << 20, 3 << 20});
  FlowColumns corrupt;
  add_pair_flows(corrupt, 0, 8, 5, {1 << 20}, 8);
  for (const auto& f : corrupt) {
    auto g = f;
    g.start_time += 6 * kSecond;
    trace.add(g);
  }
  trace.sort();
  // A lone pair forms no DP component, so refinement has nothing to
  // rescue it with.
  const auto result = identify(CommTypeIdentifier{}, trace);
  ASSERT_EQ(result.pairs.size(), 1u);
  EXPECT_EQ(result.pairs[0].type, CommType::kPP);
  EXPECT_EQ(result.pairs[0].pre_refinement_type, CommType::kPP);
}

TEST(CommTypeIdentifierTest, RefinementRescuesTruncatedDpPair) {
  // DP ring 0-8-16-24-0 (GPUs on distinct machines); pair (0,8) is
  // truncated to one size everywhere, the rest are healthy. Transitivity
  // over the DP component must flip (0,8) back to DP.
  FlowColumns trace;
  const std::vector<std::uint64_t> dp_sizes{1 << 20, 3 << 20};
  add_pair_flows(trace, 8, 16, 6, dp_sizes);
  add_pair_flows(trace, 16, 24, 6, dp_sizes);
  add_pair_flows(trace, 24, 0, 6, dp_sizes);
  add_pair_flows(trace, 0, 8, 6, {1 << 20});  // truncated
  trace.sort();

  const auto result = identify(CommTypeIdentifier{}, trace);
  ASSERT_EQ(result.pairs.size(), 4u);
  for (const auto& p : result.pairs) {
    EXPECT_EQ(p.type, CommType::kDP) << p.pair;
  }
  // pre-refinement label preserved for the corrupted pair
  const GpuPair corrupted(GpuId(0), GpuId(8));
  for (const auto& p : result.pairs) {
    if (p.pair == corrupted) {
      EXPECT_EQ(p.pre_refinement_type, CommType::kPP);
    }
  }
  ASSERT_EQ(result.dp_components.size(), 1u);
  EXPECT_EQ(result.dp_components[0].size(), 4u);
}

TEST(CommTypeIdentifierTest, RefinementNeverFlipsTruePpPairs) {
  // A PP pair bridging two DP components must stay PP: its endpoints are in
  // DIFFERENT components.
  FlowColumns trace;
  const std::vector<std::uint64_t> dp_sizes{1 << 20, 3 << 20};
  // DP component A: 0-8, component B: 16-24
  add_pair_flows(trace, 0, 8, 6, dp_sizes);
  add_pair_flows(trace, 16, 24, 6, dp_sizes);
  // PP pair between the components
  add_pair_flows(trace, 8, 16, 6, {2 << 20});
  trace.sort();
  const auto result = identify(CommTypeIdentifier{}, trace);
  for (const auto& p : result.pairs) {
    if (p.pair == GpuPair(GpuId(8), GpuId(16))) {
      EXPECT_EQ(p.type, CommType::kPP);
    } else {
      EXPECT_EQ(p.type, CommType::kDP);
    }
  }
  EXPECT_EQ(result.dp_components.size(), 2u);
}

TEST(CommTypeIdentifierTest, RareSizeArtifactsDoNotFlipPpPairs) {
  // A PP pair whose flows collapse into one window-wide segment (PP
  // intervals are not separable from the step gap) must not flip to DP
  // because of a couple of partially recorded flows.
  FlowColumns trace;
  for (int i = 0; i < 100; ++i) {
    FlowRecord f;
    f.start_time = i * 50 * kMillisecond;
    f.src = GpuId(0);
    f.dst = GpuId(8);
    f.bytes = 1 << 20;
    f.duration = 100;
    trace.add(f);
  }
  // two partial records (sizes cut by the collector)
  for (const TimeNs at : {13 * 50 * kMillisecond + 1,
                          77 * 50 * kMillisecond + 1}) {
    FlowRecord f;
    f.start_time = at;
    f.src = GpuId(0);
    f.dst = GpuId(8);
    f.bytes = 300'000;
    f.duration = 100;
    trace.add(f);
  }
  trace.sort();
  const auto result = identify(CommTypeIdentifier{}, trace);
  ASSERT_EQ(result.pairs.size(), 1u);
  EXPECT_EQ(result.pairs[0].type, CommType::kPP);
}

TEST(CommTypeIdentifierTest, RareSizeFilterKeepsRealDpBuckets) {
  // DP buckets each carry a solid share of the pair's flows; the filter
  // must not erase them.
  FlowColumns trace;
  add_pair_flows(trace, 0, 8, 8, {1 << 20, 3 << 20, 5 << 20}, 4);
  trace.sort();
  const auto result = identify(CommTypeIdentifier{}, trace);
  ASSERT_EQ(result.pairs.size(), 1u);
  EXPECT_EQ(result.pairs[0].type, CommType::kDP);
}

TEST(CommTypeIdentifierTest, PartialRecordsDoNotCascadeThroughRefinement) {
  // The failure the filter prevents: a PP pair flipped to DP bridges two
  // DP components and refinement then flips EVERY PP pair between the two
  // stages. Two DP groups, two PP pairs between them, one PP pair with a
  // stray partial record.
  FlowColumns trace;
  const std::vector<std::uint64_t> dp_sizes{1 << 20, 3 << 20};
  add_pair_flows(trace, 0, 8, 8, dp_sizes);      // DP group A
  add_pair_flows(trace, 16, 24, 8, dp_sizes);    // DP group B
  add_pair_flows(trace, 0, 16, 8, {2 << 20});    // PP pair 1 (A<->B)
  add_pair_flows(trace, 8, 24, 8, {2 << 20});    // PP pair 2 (A<->B)
  {
    FlowRecord f;  // one partial record on PP pair 1
    f.start_time = 3 * kSecond + 1;
    f.src = GpuId(0);
    f.dst = GpuId(16);
    f.bytes = 700'000;
    f.duration = 100;
    trace.add(f);
  }
  trace.sort();
  const auto result = identify(CommTypeIdentifier{}, trace);
  for (const auto& p : result.pairs) {
    const bool is_pp = p.pair == GpuPair(GpuId(0), GpuId(16)) ||
                       p.pair == GpuPair(GpuId(8), GpuId(24));
    EXPECT_EQ(p.type, is_pp ? CommType::kPP : CommType::kDP) << p.pair;
  }
  EXPECT_EQ(result.dp_components.size(), 2u);  // groups not bridged
}

TEST(CommTypeIdentifierTest, TypesMapMatchesPairs) {
  FlowColumns trace;
  add_pair_flows(trace, 0, 8, 4, {1 << 20});
  add_pair_flows(trace, 8, 16, 4, {1 << 20, 2 << 20});
  trace.sort();
  const auto result = identify(CommTypeIdentifier{}, trace);
  const auto types = result.types();
  EXPECT_EQ(types.size(), result.pairs.size());
  for (const auto& p : result.pairs) {
    EXPECT_EQ(types.at(p.pair), p.type);
  }
}

TEST(CommTypeIdentifierTest, EmptyTrace) {
  const auto result = identify(CommTypeIdentifier{}, FlowColumns{});
  EXPECT_TRUE(result.pairs.empty());
  EXPECT_TRUE(result.dp_components.empty());
}

TEST(CommTypeIdentifierTest, PairsSortedDeterministically) {
  FlowColumns trace;
  add_pair_flows(trace, 16, 24, 3, {1 << 20});
  add_pair_flows(trace, 0, 8, 3, {1 << 20});
  trace.sort();
  const auto result = identify(CommTypeIdentifier{}, trace);
  ASSERT_EQ(result.pairs.size(), 2u);
  EXPECT_LT(result.pairs[0].pair, result.pairs[1].pair);
}

// ---------------------------------------------------------------------------
// Simulator-driven sweep over parallelism shapes and optimizations:
// classification is perfect on clean traces.

struct CommTypeSweepParam {
  std::uint32_t tp, dp, pp;
  bool zero_overlap;
};

class CommTypeSweep : public ::testing::TestWithParam<CommTypeSweepParam> {};

TEST_P(CommTypeSweep, PerfectOnCleanTraces) {
  const auto p = GetParam();
  ClusterSimConfig cfg;
  cfg.topology = {.num_machines = 16, .gpus_per_machine = 8,
                  .machines_per_leaf = 4, .num_spines = 2};
  JobSimConfig job;
  job.parallelism.tp = p.tp;
  job.parallelism.dp = p.dp;
  job.parallelism.pp = p.pp;
  job.num_steps = 8;
  job.zero_overlap = p.zero_overlap;
  cfg.jobs.push_back({job, {}});
  const auto sim = run_cluster_sim(cfg);

  const auto result = identify(CommTypeIdentifier{}, sim.trace);
  const auto score = score_comm_type(std::span(result.pairs), sim.jobs[0]);
  EXPECT_EQ(score.missing_pairs, 0u);
  EXPECT_DOUBLE_EQ(score.accuracy(), 1.0)
      << "dp_as_pp=" << score.dp_as_pp << " pp_as_dp=" << score.pp_as_dp;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, CommTypeSweep,
    ::testing::Values(CommTypeSweepParam{8, 2, 2, false},
                      CommTypeSweepParam{8, 4, 1, false},
                      CommTypeSweepParam{8, 1, 4, false},
                      CommTypeSweepParam{4, 8, 1, false},
                      CommTypeSweepParam{2, 4, 4, false},
                      CommTypeSweepParam{8, 2, 2, true},
                      CommTypeSweepParam{4, 4, 2, true}));

}  // namespace
}  // namespace llmprism
