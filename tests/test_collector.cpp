// Tests for the packet-level ERSPAN collector substrate: packetization and
// flow-record reassembly, including the timeout/sampling artifacts the
// analysis layer must tolerate.
#include <gtest/gtest.h>

#include <numeric>

#include "llmprism/collector/collector.hpp"
#include "llmprism/collector/packetize.hpp"
#include "llmprism/core/comm_type.hpp"
#include "llmprism/baseline/eval.hpp"
#include "llmprism/simulator/cluster_sim.hpp"
#include "trace_stages.hpp"

namespace llmprism {
namespace {

ClusterTopology topo() {
  return ClusterTopology::build({.num_machines = 8, .gpus_per_machine = 8,
                                 .machines_per_leaf = 4, .num_spines = 2});
}

FlowRecord flow(const ClusterTopology& t, TimeNs at, std::uint32_t src,
                std::uint32_t dst, std::uint64_t bytes, DurationNs dur) {
  FlowRecord f;
  f.start_time = at;
  f.src = GpuId(src);
  f.dst = GpuId(dst);
  f.bytes = bytes;
  f.duration = dur;
  f.switches = t.route(GpuId(src), GpuId(dst));
  return f;
}

// ---------------------------------------------------------------------------
// packetize

TEST(PacketizeTest, ValidatesConfig) {
  Rng rng(1);
  EXPECT_THROW(packetize(FlowColumns{}, {.mtu_bytes = 0}, rng),
               std::invalid_argument);
  EXPECT_THROW(packetize(FlowColumns{}, {.max_packets_per_flow = 0}, rng),
               std::invalid_argument);
  EXPECT_THROW(packetize(FlowColumns{}, {.pacing_jitter = 1.0}, rng),
               std::invalid_argument);
}

TEST(PacketizeTest, BytesAreConserved) {
  const auto t = topo();
  FlowColumns flows;
  flows.add(flow(t, 0, 0, 8, 100'000, kMillisecond));
  Rng rng(2);
  const auto packets = packetize(flows, {}, rng);
  ASSERT_FALSE(packets.empty());
  std::uint64_t total = 0;
  for (const PacketRecord& p : packets) total += p.bytes;
  EXPECT_EQ(total, 100'000u);
}

TEST(PacketizeTest, PacketCountRespectsMtuAndCap) {
  const auto t = topo();
  Rng rng(3);
  FlowColumns small;
  small.add(flow(t, 0, 0, 8, 10'000, kMillisecond));  // 3 MTUs
  EXPECT_EQ(packetize(small, {}, rng).size(), 3u);

  FlowColumns huge;
  huge.add(flow(t, 0, 0, 8, 64ull << 20, kMillisecond));  // >> cap
  PacketizeConfig cfg;
  cfg.max_packets_per_flow = 16;
  EXPECT_EQ(packetize(huge, cfg, rng).size(), 16u);
}

TEST(PacketizeTest, PacketsSpanTheFlowDuration) {
  const auto t = topo();
  FlowColumns flows;
  flows.add(flow(t, 1000, 0, 8, 40'000, kMillisecond));
  Rng rng(4);
  const auto packets = packetize(flows, {}, rng);
  ASSERT_GE(packets.size(), 2u);
  EXPECT_EQ(packets.front().timestamp, 1000);
  EXPECT_EQ(packets.back().timestamp, 1000 + kMillisecond);
}

TEST(PacketizeTest, IntraMachineFlowsEmitNothing) {
  const auto t = topo();
  FlowColumns flows;
  flows.add(flow(t, 0, 0, 1, 100'000, kMillisecond));  // same machine
  Rng rng(5);
  EXPECT_TRUE(packetize(flows, {}, rng).empty());
}

TEST(PacketizeTest, OutputIsSorted) {
  const auto t = topo();
  FlowColumns flows;
  for (int i = 0; i < 10; ++i) {
    flows.add(flow(t, i * 100, 0, 8, 50'000, kMillisecond));
  }
  Rng rng(6);
  const auto packets = packetize(flows, {}, rng);
  EXPECT_TRUE(std::is_sorted(packets.begin(), packets.end(),
                             PacketTimestampLess{}));
}

// ---------------------------------------------------------------------------
// collect_flows

TEST(CollectorTest, ValidatesConfig) {
  const auto t = topo();
  Rng rng(7);
  EXPECT_THROW(collect_flows({}, t, {.idle_timeout = 0}, rng),
               std::invalid_argument);
  EXPECT_THROW(collect_flows({}, t, {.sampling_ratio = 0.0}, rng),
               std::invalid_argument);
  EXPECT_THROW(collect_flows({}, t, {.sampling_ratio = 1.5}, rng),
               std::invalid_argument);
}

TEST(CollectorTest, RoundTripReconstructsFlows) {
  // Two well-separated flows survive packetize -> collect intact.
  const auto t = topo();
  FlowColumns flows;
  flows.add(flow(t, 0, 0, 8, 100'000, kMillisecond));
  flows.add(flow(t, kSecond, 0, 8, 200'000, 2 * kMillisecond));
  Rng rng(8);
  const auto packets = packetize(flows, {.pacing_jitter = 0.0}, rng);
  const auto back = collect_flows(packets, t, {}, rng);
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[0].start_time, 0);
  EXPECT_EQ(back[0].bytes, 100'000u);
  EXPECT_NEAR(static_cast<double>(back[0].duration),
              static_cast<double>(kMillisecond), 1e5);
  EXPECT_EQ(back[1].bytes, 200'000u);
  EXPECT_EQ(back[0].switches, flows[0].switches);
}

TEST(CollectorTest, CoarseIdleTimeoutMergesBackToBackFlows) {
  // Two flows 2 ms apart: a 10 ms idle timeout merges them into one record
  // with summed bytes — the aggregation artifact that destroys the DP
  // multi-size signature.
  const auto t = topo();
  FlowColumns flows;
  flows.add(flow(t, 0, 0, 8, 100'000, kMillisecond));
  flows.add(flow(t, 3 * kMillisecond, 0, 8, 200'000, kMillisecond));
  Rng rng(9);
  const auto packets = packetize(flows, {.pacing_jitter = 0.0}, rng);
  CollectorConfig cfg;
  cfg.idle_timeout = 10 * kMillisecond;
  const auto merged = collect_flows(packets, t, cfg, rng);
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(merged[0].bytes, 300'000u);

  cfg.idle_timeout = 500 * kMicrosecond;
  const auto split = collect_flows(packets, t, cfg, rng);
  EXPECT_EQ(split.size(), 2u);
}

TEST(CollectorTest, ActiveTimeoutCutsLongFlows) {
  const auto t = topo();
  FlowColumns flows;
  flows.add(flow(t, 0, 0, 8, 1'000'000, kSecond));  // 1 s long flow
  Rng rng(10);
  PacketizeConfig pk;
  pk.max_packets_per_flow = 64;
  pk.pacing_jitter = 0.0;
  const auto packets = packetize(flows, pk, rng);
  CollectorConfig cfg;
  cfg.idle_timeout = 200 * kMillisecond;  // > packet gap (1s/63 = 16 ms)
  cfg.active_timeout = 250 * kMillisecond;
  const auto records = collect_flows(packets, t, cfg, rng);
  EXPECT_GE(records.size(), 3u);  // 1 s / 250 ms cuts
  std::uint64_t total = 0;
  for (const FlowRecord& f : records) total += f.bytes;
  EXPECT_EQ(total, 1'000'000u);
}

TEST(CollectorTest, DirectionsAreSeparateRecords) {
  const auto t = topo();
  FlowColumns flows;
  flows.add(flow(t, 0, 0, 8, 100'000, kMillisecond));
  flows.add(flow(t, 0, 8, 0, 100'000, kMillisecond));  // reverse direction
  Rng rng(11);
  const auto packets = packetize(flows, {.pacing_jitter = 0.0}, rng);
  const auto back = collect_flows(packets, t, {}, rng);
  EXPECT_EQ(back.size(), 2u);
}

TEST(CollectorTest, SamplingScalesBytesBack) {
  const auto t = topo();
  FlowColumns flows;
  flows.add(flow(t, 0, 0, 8, 1'000'000, kMillisecond));
  Rng rng(12);
  PacketizeConfig pk;
  pk.max_packets_per_flow = 64;
  const auto packets = packetize(flows, pk, rng);
  CollectorConfig cfg;
  cfg.sampling_ratio = 0.5;
  const auto back = collect_flows(packets, t, cfg, rng);
  std::uint64_t total = 0;
  for (const FlowRecord& f : back) total += f.bytes;
  // Unbiased in expectation; allow generous tolerance for 64-packet flows.
  EXPECT_NEAR(static_cast<double>(total), 1e6, 4e5);
}

TEST(CollectorTest, EmptyInput) {
  const auto t = topo();
  Rng rng(13);
  EXPECT_TRUE(collect_flows({}, t, {}, rng).empty());
}

// ---------------------------------------------------------------------------
// End-to-end: simulator flows -> packets -> collector records -> Alg. 2.
// With sane collector settings the full pipeline still classifies all
// pairs correctly; with a burst-coarse idle timeout the DP signature
// degrades (quantified in bench_ablation).

TEST(CollectorEndToEndTest, AnalysisSurvivesThePacketPath) {
  ClusterSimConfig cfg;
  cfg.topology = {.num_machines = 8, .gpus_per_machine = 8,
                  .machines_per_leaf = 4, .num_spines = 2};
  JobSimConfig job;
  job.parallelism = {.tp = 8, .dp = 2, .pp = 2, .micro_batches = 4};
  job.num_steps = 10;
  cfg.jobs.push_back({job, {}});
  const auto sim = run_cluster_sim(cfg);

  Rng rng(99);
  const auto packets = packetize(sim.trace, {}, rng);
  const auto records = collect_flows(packets, sim.topology, {}, rng);
  ASSERT_GT(records.size(), 0u);

  const auto result = identify(CommTypeIdentifier{}, records);
  const auto score = score_comm_type(std::span(result.pairs), sim.jobs[0]);
  EXPECT_EQ(score.missing_pairs, 0u);
  EXPECT_DOUBLE_EQ(score.accuracy(), 1.0)
      << "dp_as_pp=" << score.dp_as_pp << " pp_as_dp=" << score.pp_as_dp;
}

}  // namespace
}  // namespace llmprism
