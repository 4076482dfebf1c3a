// Unit tests for the common substrate: ids, time, disjoint set, stats, rng,
// inline vector.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <set>
#include <sstream>
#include <unordered_set>
#include <vector>

#include "llmprism/common/disjoint_set.hpp"
#include "llmprism/common/ids.hpp"
#include "llmprism/common/inline_vec.hpp"
#include "llmprism/common/rng.hpp"
#include "llmprism/common/stats.hpp"
#include "llmprism/common/time.hpp"

namespace llmprism {
namespace {

// ---------------------------------------------------------------------------
// StrongId

TEST(StrongIdTest, DefaultIsInvalid) {
  GpuId id;
  EXPECT_FALSE(id.valid());
  EXPECT_EQ(id, GpuId::invalid());
}

TEST(StrongIdTest, ValueRoundTrip) {
  GpuId id(42);
  EXPECT_TRUE(id.valid());
  EXPECT_EQ(id.value(), 42u);
}

TEST(StrongIdTest, Ordering) {
  EXPECT_LT(GpuId(1), GpuId(2));
  EXPECT_EQ(GpuId(7), GpuId(7));
  EXPECT_NE(GpuId(7), GpuId(8));
}

TEST(StrongIdTest, DistinctTagsAreDistinctTypes) {
  static_assert(!std::is_same_v<GpuId, MachineId>);
  static_assert(!std::is_same_v<SwitchId, JobId>);
}

TEST(StrongIdTest, StreamsReadably) {
  std::ostringstream oss;
  oss << GpuId(5) << ' ' << GpuId();
  EXPECT_EQ(oss.str(), "5 <invalid>");
}

TEST(StrongIdTest, HashesDistinctly) {
  std::unordered_set<GpuId> set;
  for (std::uint32_t i = 0; i < 1000; ++i) set.insert(GpuId(i));
  EXPECT_EQ(set.size(), 1000u);
}

// ---------------------------------------------------------------------------
// GpuPair

TEST(GpuPairTest, CanonicalOrder) {
  const GpuPair a(GpuId(5), GpuId(3));
  const GpuPair b(GpuId(3), GpuId(5));
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.first, GpuId(3));
  EXPECT_EQ(a.second, GpuId(5));
  EXPECT_EQ(std::hash<GpuPair>{}(a), std::hash<GpuPair>{}(b));
}

TEST(GpuPairTest, SelfPairAllowed) {
  const GpuPair p(GpuId(4), GpuId(4));
  EXPECT_EQ(p.first, p.second);
}

// ---------------------------------------------------------------------------
// Time

TEST(TimeTest, UnitConversions) {
  EXPECT_DOUBLE_EQ(to_seconds(kSecond), 1.0);
  EXPECT_DOUBLE_EQ(to_seconds(500 * kMillisecond), 0.5);
  EXPECT_DOUBLE_EQ(to_milliseconds(kSecond), 1000.0);
  EXPECT_EQ(from_seconds(2.5), 2'500'000'000);
  EXPECT_EQ(from_milliseconds(1.5), 1'500'000);
  EXPECT_EQ(kMinute, 60 * kSecond);
  EXPECT_EQ(kHour, 3600 * kSecond);
}

TEST(TimeWindowTest, ContainsIsHalfOpen) {
  const TimeWindow w{10, 20};
  EXPECT_TRUE(w.contains(10));
  EXPECT_TRUE(w.contains(19));
  EXPECT_FALSE(w.contains(20));
  EXPECT_FALSE(w.contains(9));
  EXPECT_EQ(w.length(), 10);
  EXPECT_FALSE(w.empty());
  EXPECT_TRUE((TimeWindow{5, 5}).empty());
}

// ---------------------------------------------------------------------------
// DisjointSet

TEST(DisjointSetTest, InitiallyAllSingletons) {
  DisjointSet ds(5);
  EXPECT_EQ(ds.num_sets(), 5u);
  for (std::size_t i = 0; i < 5; ++i) EXPECT_EQ(ds.find(i), i);
  EXPECT_TRUE(ds.groups().empty());  // no non-singleton groups
}

TEST(DisjointSetTest, UniteMerges) {
  DisjointSet ds(4);
  EXPECT_TRUE(ds.unite(0, 1));
  EXPECT_FALSE(ds.unite(1, 0));  // already merged
  EXPECT_TRUE(ds.same_set(0, 1));
  EXPECT_FALSE(ds.same_set(0, 2));
  EXPECT_EQ(ds.num_sets(), 3u);
  EXPECT_EQ(ds.set_size(0), 2u);
}

TEST(DisjointSetTest, TransitiveUnion) {
  DisjointSet ds(6);
  ds.unite(0, 1);
  ds.unite(2, 3);
  ds.unite(1, 2);
  EXPECT_TRUE(ds.same_set(0, 3));
  EXPECT_EQ(ds.set_size(3), 4u);
}

TEST(DisjointSetTest, GroupsAreSortedAndComplete) {
  DisjointSet ds(7);
  ds.unite(5, 2);
  ds.unite(2, 6);
  ds.unite(0, 1);
  auto groups = ds.groups();
  ASSERT_EQ(groups.size(), 2u);
  std::set<std::set<std::size_t>> as_sets;
  for (auto& g : groups) {
    EXPECT_TRUE(std::is_sorted(g.begin(), g.end()));
    as_sets.insert(std::set<std::size_t>(g.begin(), g.end()));
  }
  EXPECT_TRUE(as_sets.count({0, 1}));
  EXPECT_TRUE(as_sets.count({2, 5, 6}));
}

TEST(DisjointSetTest, GroupsWithSingletons) {
  DisjointSet ds(3);
  ds.unite(0, 1);
  EXPECT_EQ(ds.groups(true).size(), 2u);
}

TEST(DisjointSetTest, OutOfRangeThrows) {
  DisjointSet ds(3);
  EXPECT_THROW(ds.find(3), std::out_of_range);
  EXPECT_THROW(ds.unite(0, 99), std::out_of_range);
}

TEST(DisjointSetTest, LargeChainPathCompression) {
  constexpr std::size_t n = 100000;
  DisjointSet ds(n);
  for (std::size_t i = 1; i < n; ++i) ds.unite(i - 1, i);
  EXPECT_EQ(ds.num_sets(), 1u);
  EXPECT_EQ(ds.set_size(0), n);
  EXPECT_EQ(ds.find(0), ds.find(n - 1));
}

// ---------------------------------------------------------------------------
// stats

TEST(StatsTest, MeanAndVariance) {
  const std::vector<double> xs{2, 4, 4, 4, 5, 5, 7, 9};
  EXPECT_DOUBLE_EQ(stats::mean(xs), 5.0);
  EXPECT_DOUBLE_EQ(stats::variance(xs), 4.0);
  EXPECT_DOUBLE_EQ(stats::stddev(xs), 2.0);
}

TEST(StatsTest, EmptyInputsAreZero) {
  EXPECT_DOUBLE_EQ(stats::mean({}), 0.0);
  EXPECT_DOUBLE_EQ(stats::variance({}), 0.0);
  EXPECT_DOUBLE_EQ(stats::median({}), 0.0);
  EXPECT_EQ(stats::mode({}), 0);
}

TEST(StatsTest, MeanAbsDeviation) {
  const std::vector<double> xs{1, 1, 5, 5};
  EXPECT_DOUBLE_EQ(stats::mean_abs_deviation(xs), 2.0);
}

TEST(StatsTest, MedianOddEven) {
  const std::vector<double> odd{3, 1, 2};
  EXPECT_DOUBLE_EQ(stats::median(odd), 2.0);
  const std::vector<double> even{4, 1, 3, 2};
  EXPECT_DOUBLE_EQ(stats::median(even), 2.5);
}

TEST(StatsTest, Percentile) {
  std::vector<double> xs;
  for (int i = 0; i <= 100; ++i) xs.push_back(i);
  EXPECT_DOUBLE_EQ(stats::percentile(xs, 0), 0.0);
  EXPECT_DOUBLE_EQ(stats::percentile(xs, 50), 50.0);
  EXPECT_DOUBLE_EQ(stats::percentile(xs, 100), 100.0);
  EXPECT_DOUBLE_EQ(stats::percentile(xs, 25), 25.0);
}

/// The definition percentile() must reproduce bit for bit: interpolate
/// between positions floor(idx) and ceil(idx) of a fully sorted copy.
double sorted_percentile(std::vector<double> xs, double p) {
  std::sort(xs.begin(), xs.end());
  const double idx = p / 100.0 * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(idx));
  const auto hi = static_cast<std::size_t>(std::ceil(idx));
  return xs[lo] + (xs[hi] - xs[lo]) * (idx - std::floor(idx));
}

TEST(StatsTest, PercentileBitEqualsSortedReference) {
  Rng rng(2024);
  for (int trial = 0; trial < 400; ++trial) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(1, 257));
    // Few distinct values (heavy duplicates), plus some continuous ones.
    const auto distinct = rng.uniform_int(1, 6);
    std::vector<double> xs;
    for (std::size_t i = 0; i < n; ++i) {
      xs.push_back(rng.bernoulli(0.8)
                       ? 0.1 * static_cast<double>(rng.uniform_int(1, distinct))
                       : rng.uniform(0.0, 1.0));
    }
    for (const double p : {0.0, 12.5, 50.0, 90.0, 100.0}) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(stats::percentile(xs, p)),
                std::bit_cast<std::uint64_t>(sorted_percentile(xs, p)))
          << "n=" << n << " p=" << p;
    }
  }
}

TEST(StatsTest, ModePrefersSmallerOnTies) {
  const std::vector<std::int64_t> xs{3, 3, 1, 1, 2};
  EXPECT_EQ(stats::mode(xs), 1);
}

TEST(StatsTest, ModeSingleDominant) {
  const std::vector<std::int64_t> xs{1, 4, 4, 4, 2, 4};
  EXPECT_EQ(stats::mode(xs), 4);
}

TEST(RunningStatsTest, MatchesBatch) {
  stats::RunningStats rs;
  const std::vector<double> xs{2, 4, 4, 4, 5, 5, 7, 9};
  for (double x : xs) rs.add(x);
  EXPECT_EQ(rs.count(), xs.size());
  EXPECT_NEAR(rs.mean(), stats::mean(xs), 1e-12);
  EXPECT_NEAR(rs.variance(), stats::variance(xs), 1e-12);
}

TEST(RunningStatsTest, ResetClears) {
  stats::RunningStats rs;
  rs.add(5);
  rs.reset();
  EXPECT_EQ(rs.count(), 0u);
  EXPECT_DOUBLE_EQ(rs.variance(), 0.0);
}

// ---------------------------------------------------------------------------
// Rng

TEST(RngTest, DeterministicGivenSeed) {
  Rng a(99), b(99);
  for (int i = 0; i < 20; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(0, 1), b.uniform(0, 1));
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  bool any_diff = false;
  for (int i = 0; i < 10; ++i) {
    if (a.uniform(0, 1) != b.uniform(0, 1)) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(RngTest, UniformWithinBounds) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(2.0, 3.0);
    EXPECT_GE(x, 2.0);
    EXPECT_LT(x, 3.0);
    const auto n = rng.uniform_int(-5, 5);
    EXPECT_GE(n, -5);
    EXPECT_LE(n, 5);
  }
}

TEST(RngTest, BernoulliEdgeCases) {
  Rng rng(7);
  EXPECT_FALSE(rng.bernoulli(0.0));
  EXPECT_TRUE(rng.bernoulli(1.0));
  int heads = 0;
  for (int i = 0; i < 10000; ++i) heads += rng.bernoulli(0.3);
  EXPECT_NEAR(heads / 10000.0, 0.3, 0.03);
}

TEST(RngTest, NormalMoments) {
  Rng rng(11);
  stats::RunningStats rs;
  for (int i = 0; i < 20000; ++i) rs.add(rng.normal(3.0, 2.0));
  EXPECT_NEAR(rs.mean(), 3.0, 0.1);
  EXPECT_NEAR(rs.stddev(), 2.0, 0.1);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng parent(42);
  Rng child1 = parent.fork(1);
  // A sibling fork from the same parent state differs.
  Rng parent2(42);
  (void)parent2.fork(1);
  Rng child2 = parent2.fork(2);
  bool any_diff = false;
  for (int i = 0; i < 10; ++i) {
    if (child1.uniform(0, 1) != child2.uniform(0, 1)) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

// ---------------------------------------------------------------------------
// InlineVec

TEST(InlineVecTest, PushAndIterate) {
  InlineVec<int, 4> v;
  EXPECT_TRUE(v.empty());
  v.push_back(1);
  v.push_back(2);
  v.push_back(3);
  EXPECT_EQ(v.size(), 3u);
  int sum = 0;
  for (int x : v) sum += x;
  EXPECT_EQ(sum, 6);
  EXPECT_EQ(v.front(), 1);
  EXPECT_EQ(v.back(), 3);
}

TEST(InlineVecTest, CapacityOverflowThrows) {
  InlineVec<int, 2> v{1, 2};
  EXPECT_THROW(v.push_back(3), std::length_error);
  EXPECT_THROW((InlineVec<int, 1>{1, 2}), std::length_error);
}

TEST(InlineVecTest, AtBoundsChecked) {
  InlineVec<int, 4> v{1};
  EXPECT_EQ(v.at(0), 1);
  EXPECT_THROW(v.at(1), std::out_of_range);
}

TEST(InlineVecTest, Equality) {
  const InlineVec<int, 4> a{1, 2};
  const InlineVec<int, 4> b{1, 2};
  const InlineVec<int, 4> c{1, 3};
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a == c);
}

TEST(InlineVecTest, ClearResets) {
  InlineVec<int, 4> v{1, 2, 3};
  v.clear();
  EXPECT_TRUE(v.empty());
  v.push_back(9);
  EXPECT_EQ(v.size(), 1u);
}

}  // namespace
}  // namespace llmprism
