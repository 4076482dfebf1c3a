// Unit tests for Alg. 2: communication-type identification.
#include "llmprism/core/comm_type.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "llmprism/baseline/eval.hpp"
#include "llmprism/bocd/bocd.hpp"
#include "llmprism/common/rng.hpp"
#include "llmprism/common/stats.hpp"
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
// Differential test: identify() decides a pair from its gap-candidate runs
// where that is exact, and runs BOCD only for the rest. The oracle below
// always runs segment_by_gaps() and takes the per-step mode of kept size
// clusters (Alg. 2 without the shortcut); on seeded random pairs the two
// must agree on every pre-refinement type and every artifact counter.

// The identifier's clustering constants (kSizeTolerance, kMinSizeShare in
// comm_type.cpp), restated for the oracle.
constexpr double kOracleSizeTolerance = 0.05;
constexpr double kOracleMinSizeShare = 0.03;
// The segmenter's coalescing window (kCoalesceGap in bocd.cpp).
constexpr DurationNs kOracleCoalesceGap = 200 * kMicrosecond;

struct OracleVerdict {
  CommType type = CommType::kPP;
  std::size_t steps = 0;
  CommTypeCounters counters;
};

/// Alg. 2 lines 2-12 for one pair, BOCD always on.
OracleVerdict oracle_classify(std::vector<std::pair<TimeNs, std::uint64_t>>
                                  flows) {
  std::stable_sort(flows.begin(), flows.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });
  std::vector<TimeNs> timestamps;
  std::vector<std::uint64_t> sizes;
  for (const auto& [t, b] : flows) {
    timestamps.push_back(t);
    sizes.push_back(b);
  }
  OracleVerdict v;
  const std::vector<std::size_t> starts =
      segment_by_gaps(timestamps, {}, &v.counters.segmenter);
  v.steps = starts.size();

  // Size clusters: a size joins the cluster whose smallest member it is
  // within the tolerance of; rare clusters are artifacts.
  std::vector<std::uint64_t> sorted = sizes;
  std::sort(sorted.begin(), sorted.end());
  std::vector<std::uint64_t> bases;
  std::vector<std::size_t> counts;
  for (const std::uint64_t s : sorted) {
    if (bases.empty() || static_cast<double>(s) >
                             static_cast<double>(bases.back()) *
                                 (1.0 + kOracleSizeTolerance)) {
      bases.push_back(s);
      counts.push_back(0);
    }
    ++counts.back();
  }
  std::vector<bool> kept(bases.size());
  for (std::size_t c = 0; c < bases.size(); ++c) {
    kept[c] = static_cast<double>(counts[c]) >=
              kOracleMinSizeShare * static_cast<double>(sizes.size());
    if (!kept[c]) {
      ++v.counters.artifact_size_clusters;
      v.counters.artifact_flows += counts[c];
    }
  }

  std::vector<std::int64_t> per_step;
  for (std::size_t k = 0; k < starts.size(); ++k) {
    const std::size_t end =
        k + 1 < starts.size() ? starts[k + 1] : sizes.size();
    std::set<std::size_t> seen;
    for (std::size_t i = starts[k]; i < end; ++i) {
      std::size_t c = 0;
      while (c + 1 < bases.size() && bases[c + 1] <= sizes[i]) ++c;
      if (kept[c]) seen.insert(c);
    }
    if (seen.empty()) {
      ++v.counters.artifact_segments;
    } else {
      per_step.push_back(static_cast<std::int64_t>(seen.size()));
    }
  }
  const std::int64_t mode = per_step.empty() ? 1 : stats::mode(per_step);
  v.type = mode == 1 ? CommType::kPP : CommType::kDP;
  return v;
}

/// An intra-step spacing m whose log interval sits exactly on the guard
/// when the step gap is 3(m + 1) - 1 and m is the median interval:
/// log(3(m + 1)) == log(m + 1) + log(3) in floating point.
DurationNs guard_tie_spacing() {
  for (DurationNs m = kOracleCoalesceGap + 1;; ++m) {
    const double x = static_cast<double>(m) + 1.0;
    if (std::log(3.0 * x) == std::log(x) + std::log(3.0)) return m;
  }
}

enum class PairShape {
  kEmpty,        // no flows: the pair is absent
  kOne,          // a single flow
  kTwo,          // two flows
  kPp,           // one size per step
  kDp,           // several bucket sizes per step
  kTruncatedDp,  // DP whose steps the collector often cut to one size
  kAllArtifact,  // every size cluster below the artifact share
  kGuardTie,     // step gaps on and just above the guard
  kCount
};

/// Flows (start, bytes) of one random pair.
std::vector<std::pair<TimeNs, std::uint64_t>> random_pair_flows(
    Rng& rng, PairShape shape) {
  std::vector<std::pair<TimeNs, std::uint64_t>> flows;
  const auto base = static_cast<std::uint64_t>(rng.uniform_int(100'000,
                                                               50'000'000));
  TimeNs t = rng.uniform_int(0, kSecond);
  switch (shape) {
    case PairShape::kEmpty:
    case PairShape::kCount:
      return flows;
    case PairShape::kOne:
      flows.emplace_back(t, base);
      return flows;
    case PairShape::kTwo:
      flows.emplace_back(t, base);
      flows.emplace_back(t + rng.uniform_int(0, 2 * kSecond),
                         rng.bernoulli(0.5) ? base : 3 * base);
      return flows;
    case PairShape::kAllArtifact: {
      // 35+ clusters of one flow each (every share below 3%), in random
      // size order.
      std::vector<std::uint64_t> sizes;
      for (int i = 0, n = static_cast<int>(rng.uniform_int(35, 60)); i < n;
           ++i) {
        sizes.push_back(static_cast<std::uint64_t>(
            static_cast<double>(base) * std::pow(1.2, i)));
      }
      std::shuffle(sizes.begin(), sizes.end(), rng.engine());
      for (const std::uint64_t size : sizes) {
        flows.emplace_back(t, size);
        t += rng.bernoulli(0.2) ? kSecond
                                : rng.uniform_int(1, 3) * kMillisecond;
      }
      return flows;
    }
    default:
      break;
  }

  const std::vector<std::uint64_t> buckets{base, base * 5 / 2, base * 6,
                                           base * 15};
  const std::size_t num_buckets =
      shape == PairShape::kPp
          ? 1
          : static_cast<std::size_t>(rng.uniform_int(2, 4));
  const double truncation =
      shape == PairShape::kTruncatedDp ? rng.uniform(0.2, 0.8) : 0.0;
  const double artifact_rate =
      rng.bernoulli(0.4) ? rng.uniform(0.005, 0.03) : 0.0;
  const DurationNs tie = guard_tie_spacing();
  // Grouped layout: each bucket's flows back to back, a short pause
  // between buckets. The pauses are gap candidates that a detector which
  // has learned them as normal does not take, so single-size runs merge
  // into multi-size steps.
  const bool grouped = rng.bernoulli(0.5);
  const int repeats = static_cast<int>(rng.uniform_int(2, 5));
  const int steps = static_cast<int>(rng.uniform_int(1, 12));
  for (int k = 0; k < steps; ++k) {
    const bool truncated = rng.bernoulli(truncation);
    const int n = grouped ? static_cast<int>(num_buckets) * repeats
                          : static_cast<int>(rng.uniform_int(1, 14));
    for (int i = 0; i < n; ++i) {
      const std::size_t bucket =
          truncated ? 0
          : grouped ? static_cast<std::size_t>(i / repeats) % num_buckets
                    : static_cast<std::size_t>(i) % num_buckets;
      auto bytes = static_cast<std::uint64_t>(
          static_cast<double>(buckets[bucket]) * rng.uniform(0.98, 1.02));
      if (rng.bernoulli(artifact_rate)) {
        bytes = static_cast<std::uint64_t>(static_cast<double>(base) *
                                           rng.uniform(0.01, 0.5));
      }
      flows.emplace_back(t, std::max<std::uint64_t>(bytes, 1));
      // Intra-step spacing: exactly on the coalescing window, just past
      // it, the guard-tie median, or random; now and then a sub-burst gap
      // that makes a candidate BOCD may or may not take.
      if (shape == PairShape::kGuardTie) {
        t += tie;
      } else if (grouped) {
        t += (i + 1) % repeats == 0
                 ? rng.uniform_int(4'000, 9'000) * kMicrosecond
                 : kMillisecond + rng.uniform_int(0, 50) * kMicrosecond;
      } else {
        switch (rng.uniform_int(0, 4)) {
          case 0: t += kOracleCoalesceGap; break;
          case 1: t += kOracleCoalesceGap + 1; break;
          case 2: t += rng.uniform_int(1, 400) * kMicrosecond; break;
          default: t += rng.uniform_int(1, 5) * kMillisecond; break;
        }
        if (rng.bernoulli(0.08)) t += rng.uniform_int(20, 300) * kMillisecond;
      }
    }
    if (shape == PairShape::kGuardTie) {
      // The gap interval is 3(m + 1) - 1 (on the guard) or one more.
      t += 3 * (tie + 1) - 1 - tie + (rng.bernoulli(0.5) ? 1 : 0);
    } else {
      t += rng.uniform_int(500, 2500) * kMillisecond;
    }
  }
  return flows;
}

TEST(CommTypeDifferentialTest, ShortcutMatchesAlwaysBocdOracle) {
  Rng rng(2024);
  std::size_t decided_without_bocd = 0;
  std::size_t segmented = 0;
  std::size_t guard_ties = 0;
  std::size_t coalesce_ties = 0;
  for (int round = 0; round < 60; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const bool unsorted = round % 3 == 2;
    std::vector<FlowRecord> records;
    std::map<GpuPair, std::vector<std::pair<TimeNs, std::uint64_t>>> by_pair;
    for (std::uint32_t p = 0; p < 24; ++p) {
      const auto shape = static_cast<PairShape>(
          rng.uniform_int(0, static_cast<int>(PairShape::kCount) - 1));
      const auto flows = random_pair_flows(rng, shape);
      for (const auto& [t, bytes] : flows) {
        FlowRecord f;
        f.start_time = t;
        f.src = GpuId(p);
        f.dst = GpuId(100 + p);
        f.bytes = bytes;
        f.duration = 100;
        records.push_back(f);
      }
      if (!flows.empty()) by_pair[GpuPair{GpuId(p), GpuId(100 + p)}] = flows;
      // Count the ties the series actually carries.
      std::vector<TimeNs> ts;
      for (const auto& f : flows) ts.push_back(f.first);
      std::sort(ts.begin(), ts.end());
      const GapSeries series = build_gap_series(ts);
      for (const double x : series.log_intervals) {
        guard_ties += x == series.guard;
      }
      for (std::size_t i = 1; i < ts.size(); ++i) {
        coalesce_ties += ts[i] - ts[i - 1] == kOracleCoalesceGap;
      }
    }
    if (unsorted) {
      std::shuffle(records.begin(), records.end(), rng.engine());
    } else {
      std::sort(records.begin(), records.end(), FlowStartTimeLess{});
    }
    FlowColumns trace;
    for (const FlowRecord& f : records) trace.add(f);
    ASSERT_EQ(trace.view().sorted, !unsorted || records.size() < 2);

    const CommTypeResult result = identify(CommTypeIdentifier{}, trace);
    ASSERT_EQ(result.pairs.size(), by_pair.size());
    CommTypeCounters expected;
    for (const PairClassification& pc : result.pairs) {
      SCOPED_TRACE(testing::Message() << "pair " << pc.pair.first << "-"
                                      << pc.pair.second);
      const OracleVerdict v = oracle_classify(by_pair.at(pc.pair));
      EXPECT_EQ(pc.pre_refinement_type, v.type);
      EXPECT_EQ(pc.num_flows, by_pair.at(pc.pair).size());
      if (pc.num_steps_observed == 0) {
        ++decided_without_bocd;
      } else {
        ++segmented;
        EXPECT_EQ(pc.num_steps_observed, v.steps);
      }
      expected += v.counters;
    }
    EXPECT_EQ(result.counters.artifact_size_clusters,
              expected.artifact_size_clusters);
    EXPECT_EQ(result.counters.artifact_flows, expected.artifact_flows);
    EXPECT_EQ(result.counters.artifact_segments, expected.artifact_segments);
    EXPECT_LE(result.counters.segmenter.observations,
              expected.segmenter.observations);
  }
  // The seeded pairs exercise both paths and both ties.
  EXPECT_GT(decided_without_bocd, 100u);
  EXPECT_GT(segmented, 50u);
  EXPECT_GT(guard_ties, 0u);
  EXPECT_GT(coalesce_ties, 0u);
}

TEST(CommTypeDifferentialTest, FirstFlaggableGapOpensACandidateRun) {
  // The detector may open a segment at interval recent_run_cap + 1 = 3,
  // the first it can flag. Here that interval is the step gap after a
  // truncated one-size step, and the second step carries both sizes: two
  // segments holding 1 and 2 sizes, a tie the mode breaks to PP. A
  // candidate check that missed interval 3 would see one run holding both
  // sizes and call the pair DP.
  std::vector<std::pair<TimeNs, std::uint64_t>> flows;
  constexpr std::uint64_t kA = 1 << 20;
  constexpr std::uint64_t kB = 3 << 20;
  for (int i = 0; i < 4; ++i) flows.emplace_back(i * kMillisecond, kA);
  for (int i = 0; i < 4; ++i) {
    flows.emplace_back(2 * kSecond + i * kMillisecond, i % 2 == 0 ? kA : kB);
  }
  const OracleVerdict v = oracle_classify(flows);
  ASSERT_EQ(v.steps, 2u);
  ASSERT_EQ(v.type, CommType::kPP);

  FlowColumns trace;
  for (const auto& [t, bytes] : flows) {
    FlowRecord f;
    f.start_time = t;
    f.src = GpuId(0);
    f.dst = GpuId(8);
    f.bytes = bytes;
    f.duration = 100;
    trace.add(f);
  }
  const auto result = identify(CommTypeIdentifier{}, trace);
  ASSERT_EQ(result.pairs.size(), 1u);
  EXPECT_EQ(result.pairs[0].pre_refinement_type, v.type);
  EXPECT_EQ(result.pairs[0].num_steps_observed, v.steps);
}

TEST(CommTypeDifferentialTest, DecidedPairsReportNoSteps) {
  // Every step of a clean PP pair and of a clean DP pair is one candidate
  // run: both are decided without the detector.
  FlowColumns trace;
  add_pair_flows(trace, 0, 8, 6, {1 << 20}, 8);
  add_pair_flows(trace, 16, 24, 6, {1 << 20, 3 << 20, 5 << 20});
  trace.sort();
  const auto result = identify(CommTypeIdentifier{}, trace);
  ASSERT_EQ(result.pairs.size(), 2u);
  EXPECT_EQ(result.pairs[0].pre_refinement_type, CommType::kPP);
  EXPECT_EQ(result.pairs[1].pre_refinement_type, CommType::kDP);
  for (const PairClassification& pc : result.pairs) {
    EXPECT_EQ(pc.num_steps_observed, 0u);
  }
  EXPECT_EQ(result.counters.segmenter.observations, 0u);
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
