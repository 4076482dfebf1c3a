// Unit tests for flow records, traces, their columnar form and CSV I/O.
//
// FlowTrace is the record builder; the data-plane algorithms (windowing,
// merging, dropping, sorting, the pair index) live on FlowView and
// FlowColumns. The FlowTrace* suites below build their inputs as traces
// and drive those algorithms through the trace's columns — the one path a
// trace takes into analysis.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "llmprism/common/csv.hpp"
#include "llmprism/common/thread_pool.hpp"
#include "llmprism/common/rng.hpp"
#include "llmprism/flow/io.hpp"
#include "llmprism/flow/trace.hpp"
#include "llmprism/flow/view.hpp"
#include "llmprism/obs/metrics.hpp"

namespace llmprism {
namespace {

FlowRecord make_flow(TimeNs t, std::uint32_t src, std::uint32_t dst,
                     std::uint64_t bytes = 1000, DurationNs dur = 100) {
  FlowRecord f;
  f.start_time = t;
  f.src = GpuId(src);
  f.dst = GpuId(dst);
  f.bytes = bytes;
  f.duration = dur;
  return f;
}

/// make_flow plus a 0-2 hop switch path that is a pure function of the
/// endpoints, so rows with equal sort keys stay equal records (and any
/// correct sort, stable or not, yields the same sequence).
FlowRecord make_routed_flow(TimeNs t, std::uint32_t src, std::uint32_t dst,
                            std::uint64_t bytes = 1000) {
  FlowRecord f = make_flow(t, src, dst, bytes);
  for (std::uint32_t h = 0; h < (src + dst) % 3; ++h) {
    f.switches.push_back(SwitchId(src * 10 + dst + h));
  }
  return f;
}

/// Columns must hold exactly `expected`'s records, in order, with a
/// well-formed CSR (size()+1 offsets from 0 to the hop count).
void expect_rows(const FlowColumns& cols, const FlowTrace& expected,
                 const std::string& where = "") {
  ASSERT_EQ(cols.size(), expected.size()) << where;
  for (std::size_t i = 0; i < cols.size(); ++i) {
    EXPECT_EQ(cols[i], expected[i]) << where << " pos " << i;
  }
  if (cols.switch_offsets.empty()) return;
  ASSERT_EQ(cols.switch_offsets.size(), cols.size() + 1) << where;
  EXPECT_EQ(cols.switch_offsets.front(), 0u) << where;
  EXPECT_EQ(cols.switch_offsets.back(), cols.switch_ids.size()) << where;
}

/// `n` random flows; times in [0, max_t], hops derived from the endpoints.
FlowTrace random_trace(Rng& rng, int n, int max_t) {
  FlowTrace t;
  for (int i = 0; i < n; ++i) {
    t.add(make_routed_flow(static_cast<TimeNs>(rng.uniform_int(0, max_t)),
                           static_cast<std::uint32_t>(rng.uniform_int(0, 7)),
                           static_cast<std::uint32_t>(rng.uniform_int(8, 15)),
                           static_cast<std::uint64_t>(rng.uniform_int(1, 5))));
  }
  return t;
}

// ---------------------------------------------------------------------------
// FlowRecord

TEST(FlowRecordTest, EndTimeAndPair) {
  const auto f = make_flow(100, 1, 2, 5000, 50);
  EXPECT_EQ(f.end_time(), 150);
  EXPECT_EQ(f.pair(), GpuPair(GpuId(2), GpuId(1)));
}

TEST(FlowRecordTest, BandwidthGbps) {
  // 250 bytes in 100 ns = 2000 bits / 100 ns = 20 Gb/s.
  const auto f = make_flow(0, 1, 2, 250, 100);
  EXPECT_DOUBLE_EQ(f.bandwidth_gbps(), 20.0);
  const auto zero = make_flow(0, 1, 2, 250, 0);
  EXPECT_DOUBLE_EQ(zero.bandwidth_gbps(), 0.0);
}

TEST(FlowStartTimeLessTest, OrdersByTimeThenEndpoints) {
  const FlowStartTimeLess less;
  EXPECT_TRUE(less(make_flow(1, 9, 9), make_flow(2, 0, 0)));
  EXPECT_TRUE(less(make_flow(1, 1, 5), make_flow(1, 2, 0)));
  EXPECT_FALSE(less(make_flow(1, 1, 1), make_flow(1, 1, 1)));
}

// ---------------------------------------------------------------------------
// FlowTrace

TEST(FlowTraceTest, SortAndIsSorted) {
  FlowTrace t;
  t.add(make_flow(30, 1, 2));
  t.add(make_flow(10, 1, 2));
  t.add(make_flow(20, 1, 2));
  EXPECT_FALSE(t.is_sorted());
  t.sort();
  EXPECT_TRUE(t.is_sorted());
  EXPECT_EQ(t[0].start_time, 10);
  EXPECT_EQ(t[2].start_time, 30);
}

TEST(FlowTraceTest, WindowSelectsHalfOpenRange) {
  FlowTrace t;
  for (TimeNs i = 0; i < 10; ++i) t.add(make_flow(i * 100, 1, 2));
  t.sort();
  const FlowColumns cols(t);
  const FlowView w = cols.view().window({200, 500});
  ASSERT_EQ(w.size(), 3u);
  EXPECT_EQ(w.start_ns[0], 200);
  EXPECT_EQ(w.start_ns[2], 400);
}

TEST(FlowTraceTest, WindowOnUnsortedThrows) {
  FlowTrace t;
  t.add(make_flow(30, 1, 2));
  t.add(make_flow(10, 1, 2));
  const FlowColumns cols(t);
  EXPECT_THROW((void)cols.view().window({0, 100}), std::logic_error);
}

TEST(FlowTraceTest, WindowEmptyResult) {
  FlowTrace t;
  t.add(make_flow(100, 1, 2));
  t.sort();
  EXPECT_TRUE(FlowColumns(t).view().window({200, 300}).empty());
  EXPECT_TRUE(FlowColumns{}.view().window({0, 100}).empty());
}

TEST(FlowViewTest, WindowKeepsSwitchPathsOfTheSlice) {
  // A window is a slice: its CSR offsets stay absolute into the parent's
  // hop column, so switches(i) must still name row i's own hops.
  FlowTrace t;
  for (TimeNs i = 0; i < 12; ++i) {
    t.add(make_routed_flow(i * 100, static_cast<std::uint32_t>(i % 5),
                           static_cast<std::uint32_t>(8 + i % 3)));
  }
  const FlowColumns cols(t);
  const FlowView w = cols.view().window({350, 1000});
  ASSERT_EQ(w.size(), 6u);
  for (std::size_t i = 0; i < w.size(); ++i) {
    EXPECT_EQ(w.record(i), t[i + 4]) << "row " << i;
  }
}

TEST(FlowTraceTest, SpanCoversFlows) {
  FlowTrace t;
  t.add(make_flow(100, 1, 2, 10, 50));
  t.add(make_flow(300, 1, 2, 10, 500));
  const auto s = t.span();
  EXPECT_EQ(s.begin, 100);
  EXPECT_EQ(s.end, 800);
  EXPECT_EQ(FlowTrace{}.span().length(), 0);
}

TEST(FlowTraceTest, AppendConcatenates) {
  FlowTrace a, b;
  a.add(make_flow(1, 1, 2));
  b.add(make_flow(2, 3, 4));
  a.append(b);
  EXPECT_EQ(a.size(), 2u);
}

// ---------------------------------------------------------------------------
// Sortedness cache + merge primitives (the sort-once data plane)

TEST(FlowTraceSortednessTest, InOrderAddsKeepTraceSorted) {
  FlowTrace t;
  EXPECT_TRUE(t.is_sorted());  // empty is sorted
  t.add(make_flow(10, 1, 2));
  t.add(make_flow(10, 1, 2));  // equal keys are fine
  t.add(make_flow(20, 1, 2));
  EXPECT_TRUE(t.is_sorted());
}

TEST(FlowTraceSortednessTest, OutOfOrderAddInvalidatesUntilSort) {
  FlowTrace t;
  t.add(make_flow(20, 1, 2));
  t.add(make_flow(10, 1, 2));
  EXPECT_FALSE(t.is_sorted());
  t.sort();
  EXPECT_TRUE(t.is_sorted());
  t.add(make_flow(30, 1, 2));  // in-order add after sort stays sorted
  EXPECT_TRUE(t.is_sorted());
}

TEST(FlowTraceSortednessTest, AppendTracksBoundaryOrder) {
  FlowTrace a, b;
  a.add(make_flow(1, 1, 2));
  a.add(make_flow(2, 1, 2));
  b.add(make_flow(3, 3, 4));
  a.append(b);  // ordered boundary: stays known-sorted
  EXPECT_TRUE(a.is_sorted());

  FlowTrace c;
  c.add(make_flow(0, 5, 6));
  a.append(c);  // boundary goes backwards
  EXPECT_FALSE(a.is_sorted());

  FlowTrace d, unsorted;
  d.add(make_flow(1, 1, 2));
  unsorted.add(make_flow(9, 1, 2));
  unsorted.add(make_flow(5, 1, 2));
  d.append(unsorted);  // appending an unsorted trace invalidates
  EXPECT_FALSE(d.is_sorted());
}

TEST(FlowTraceSortednessTest, VerifyCachesAPositiveScan) {
  // A trace built out of order but whose content happens to be sorted is
  // recognized by the O(N) verify, the transpose inherits the fact, and
  // windowing then works.
  std::vector<FlowRecord> flows{make_flow(1, 1, 2), make_flow(2, 1, 2)};
  const FlowTrace t(std::move(flows));
  EXPECT_TRUE(t.is_sorted());
  const FlowColumns cols(t);
  EXPECT_TRUE(cols.is_sorted());
  EXPECT_EQ(cols.view().window({0, 10}).size(), 2u);
}

TEST(FlowTraceSortednessTest, WindowResultIsBornSorted) {
  FlowTrace t;
  for (TimeNs i = 0; i < 10; ++i) t.add(make_flow(i * 100, 1, 2));
  const FlowColumns cols(t);
  const FlowView w = cols.view().window({200, 700});
  EXPECT_TRUE(w.sorted);
  EXPECT_TRUE(w.verify_sorted());
}

TEST(FlowTraceSortednessTest, PhysicalSortsAreCounted) {
  obs::Counter& sorts = obs::default_registry().counter(
      "llmprism_flowtrace_sorts_total");
  FlowTrace t;
  t.add(make_flow(10, 1, 2));
  t.add(make_flow(20, 1, 2));
  const std::uint64_t before = sorts.value();
  t.sort();  // already sorted: no physical sort
  EXPECT_EQ(sorts.value(), before);
  t.add(make_flow(5, 1, 2));
  t.sort();  // genuinely unsorted: exactly one physical sort
  EXPECT_EQ(sorts.value(), before + 1);
  t.sort();
  EXPECT_EQ(sorts.value(), before + 1);
}

TEST(FlowTraceMergeTest, MergeSortedMatchesAppendPlusSort) {
  // Randomized property test: for random runs (the incoming one unsorted
  // every other round), merging the columns is record-for-record equal to
  // appending the traces and sorting, switch paths included.
  Rng rng(321);
  for (int round = 0; round < 50; ++round) {
    FlowTrace a = random_trace(rng, rng.uniform_int(0, 40), 1000);
    FlowTrace b = random_trace(rng, rng.uniform_int(0, 40), 1000);
    a.sort();
    if (round % 2 == 0) b.sort();

    FlowTrace expected = a;
    expected.append(b);
    expected.sort();

    FlowColumns merged(a);
    merged.merge_sorted(FlowColumns(b));
    EXPECT_TRUE(merged.is_sorted());
    EXPECT_TRUE(merged.view().verify_sorted());
    expect_rows(merged, expected, "round " + std::to_string(round));
  }
}

TEST(FlowTraceMergeTest, MergeSortedRunsMatchesAppendPlusSort) {
  Rng rng(654);
  for (int round = 0; round < 25; ++round) {
    const int k = rng.uniform_int(0, 6);
    std::vector<FlowColumns> runs;
    FlowTrace expected;
    for (int r = 0; r < k; ++r) {
      FlowTrace run = random_trace(rng, rng.uniform_int(0, 30), 500);
      if (r % 2 == 0) run.sort();  // odd runs are sorted by the merge
      expected.append(run);
      runs.emplace_back(run);
    }
    expected.sort();

    const FlowColumns merged = FlowColumns::merge_sorted_runs(std::move(runs));
    EXPECT_TRUE(merged.is_sorted());
    expect_rows(merged, expected, "round " + std::to_string(round));
  }
}

TEST(FlowTraceMergeTest, MergeSortedRunsBreaksTiesByRunIndex) {
  // Three runs carrying records with identical sort keys but different
  // durations: the lower run's record must come out first.
  FlowTrace run0, run1, run2;
  run0.add(make_flow(100, 1, 2, 1000, 11));
  run1.add(make_flow(100, 1, 2, 1000, 22));
  run2.add(make_flow(50, 1, 2, 1000, 5));
  run2.add(make_flow(100, 1, 2, 1000, 33));
  std::vector<FlowColumns> runs;
  runs.emplace_back(run2);
  runs.emplace_back(run0);
  runs.emplace_back(run1);
  const FlowColumns merged = FlowColumns::merge_sorted_runs(std::move(runs));
  ASSERT_EQ(merged.size(), 4u);
  EXPECT_EQ(merged.view().duration_ns[0], 5);
  EXPECT_EQ(merged.view().duration_ns[1], 33);  // run index 0 wins the tie
  EXPECT_EQ(merged.view().duration_ns[2], 11);
  EXPECT_EQ(merged.view().duration_ns[3], 22);
}

TEST(FlowTraceMergeTest, MergeIntoEmptyAndFromEmpty) {
  FlowColumns a;
  FlowTrace b;
  b.add(make_routed_flow(1, 1, 2));
  a.merge_sorted(FlowColumns(b));  // into empty
  expect_rows(a, b);
  a.merge_sorted(FlowColumns{});  // from empty
  expect_rows(a, b);
  EXPECT_TRUE(FlowColumns::merge_sorted_runs({}).empty());
}

TEST(FlowColumnsMergeTest, AppendFastPathRebasesIncomingSwitchOffsets) {
  // `other` starts at this side's back, so merge_sorted appends instead
  // of merging: the incoming CSR offsets must be shifted by this side's
  // hop count, and a tie at the boundary keeps this side's row first.
  FlowTrace a, incoming;
  for (TimeNs i = 0; i < 4; ++i) {
    a.add(make_routed_flow(i * 10, static_cast<std::uint32_t>(i + 1), 9));
  }
  a.add(make_flow(40, 3, 9, 1000, 11));
  incoming.add(make_flow(40, 3, 9, 1000, 22));
  for (TimeNs i = 0; i < 4; ++i) {
    incoming.add(
        make_routed_flow(50 + i * 10, static_cast<std::uint32_t>(i + 1), 9));
  }
  ASSERT_TRUE(a.is_sorted());
  ASSERT_TRUE(incoming.is_sorted());

  FlowColumns merged(a);
  ASSERT_GT(merged.switch_ids.size(), 0u);
  merged.merge_sorted(FlowColumns(incoming));

  FlowTrace expected = a;
  expected.append(incoming);
  expect_rows(merged, expected);
  EXPECT_EQ(merged[4].duration, 11);  // tie: this side first
  EXPECT_EQ(merged[5].duration, 22);
}

TEST(FlowTraceDropBeforeTest, ErasesStrictPrefix) {
  FlowTrace t;
  for (TimeNs i = 0; i < 10; ++i) t.add(make_flow(i * 100, 1, 2));
  FlowColumns cols(t);
  cols.drop_before(500);
  ASSERT_EQ(cols.size(), 5u);
  EXPECT_EQ(cols.view().start_ns[0], 500);
  cols.drop_before(0);  // no-op
  EXPECT_EQ(cols.size(), 5u);
  cols.drop_before(10000);  // drops everything
  EXPECT_TRUE(cols.empty());

  FlowTrace unsorted;
  unsorted.add(make_flow(20, 1, 2));
  unsorted.add(make_flow(10, 1, 2));
  FlowColumns unsorted_cols(unsorted);
  EXPECT_THROW(unsorted_cols.drop_before(15), std::logic_error);
}

TEST(FlowColumnsDropBeforeTest, RebasesSwitchOffsetsOfTheKeptRows) {
  Rng rng(77);
  FlowTrace t = random_trace(rng, 60, 1000);
  t.sort();
  for (const TimeNs cut : {TimeNs{-1}, TimeNs{0}, TimeNs{250}, TimeNs{999},
                           TimeNs{5000}}) {
    FlowColumns cols(t);
    cols.drop_before(cut);
    FlowTrace expected;
    for (const FlowRecord& f : t) {
      if (f.start_time >= cut) expected.add(f);
    }
    expect_rows(cols, expected, "cut " + std::to_string(cut));
    EXPECT_TRUE(cols.is_sorted());
  }
}

TEST(FlowColumnsSortTest, StableArgsortKeepsEqualKeysInRowOrder) {
  // Rows whose sort keys tie but whose durations differ keep their input
  // order; one physical sort is counted, a second sort() is free.
  obs::Counter& sorts = obs::default_registry().counter(
      "llmprism_flowtrace_sorts_total");
  FlowTrace t;
  t.add(make_routed_flow(30, 1, 9));
  t.add(make_flow(10, 2, 9, 1000, 7));
  t.add(make_routed_flow(20, 4, 9));
  t.add(make_flow(10, 2, 9, 1000, 3));
  FlowColumns cols(t);
  EXPECT_FALSE(cols.is_sorted());
  const std::uint64_t before = sorts.value();
  cols.sort();
  EXPECT_EQ(sorts.value(), before + 1);
  cols.sort();
  EXPECT_EQ(sorts.value(), before + 1);

  FlowTrace expected;
  expected.add(t[1]);
  expected.add(t[3]);
  expected.add(t[2]);
  expected.add(t[0]);
  expect_rows(cols, expected);
  EXPECT_TRUE(cols.is_sorted());
}

TEST(FlowTraceIndexTest, PairIndexGroupsBothDirections) {
  FlowTrace t;
  t.add(make_flow(1, 1, 2));
  t.add(make_flow(2, 2, 1));  // reverse direction, same pair
  t.add(make_flow(3, 1, 3));
  const PairIndex idx(FlowColumns(t).view());
  ASSERT_EQ(idx.num_pairs(), 2u);
  EXPECT_EQ(idx.num_flows(), 3u);
  const std::uint32_t p12 = idx.id_of(GpuPair(GpuId(1), GpuId(2)));
  const std::uint32_t p13 = idx.id_of(GpuPair(GpuId(1), GpuId(3)));
  ASSERT_NE(p12, PairIndex::kNoPair);
  ASSERT_NE(p13, PairIndex::kNoPair);
  EXPECT_EQ(idx.positions(p12).size(), 2u);
  EXPECT_EQ(idx.positions(p13).size(), 1u);
  EXPECT_EQ(idx.id_of(GpuPair(GpuId(7), GpuId(8))), PairIndex::kNoPair);
}

TEST(FlowTraceIndexTest, PairIndexFirstAppearanceOrderAndPositions) {
  FlowTrace t;
  t.add(make_flow(1, 1, 2));
  t.add(make_flow(2, 3, 4));
  t.add(make_flow(3, 2, 1));
  t.add(make_flow(4, 1, 2));
  const PairIndex idx(FlowColumns(t).view());
  ASSERT_EQ(idx.num_pairs(), 2u);
  // Dense ids follow first appearance in the trace.
  EXPECT_EQ(idx.pair(0), GpuPair(GpuId(1), GpuId(2)));
  EXPECT_EQ(idx.pair(1), GpuPair(GpuId(3), GpuId(4)));
  // Positions stay in trace order within each pair.
  const auto pos0 = idx.positions(0);
  ASSERT_EQ(pos0.size(), 3u);
  EXPECT_EQ(pos0[0], 0u);
  EXPECT_EQ(pos0[1], 2u);
  EXPECT_EQ(pos0[2], 3u);
  // pair_of_flow inverts the index.
  const auto pof = idx.pair_of_flow();
  ASSERT_EQ(pof.size(), 4u);
  EXPECT_EQ(pof[0], 0u);
  EXPECT_EQ(pof[1], 1u);
  EXPECT_EQ(pof[2], 0u);
  EXPECT_EQ(pof[3], 0u);
}

/// The pool-built index must equal the null-pool one in every observable.
void expect_same_index(const PairIndex& got, const PairIndex& want) {
  ASSERT_EQ(got.pairs(), want.pairs());
  ASSERT_EQ(got.num_flows(), want.num_flows());
  for (std::size_t id = 0; id < want.num_pairs(); ++id) {
    const auto a = got.positions(id);
    const auto b = want.positions(id);
    ASSERT_EQ(std::vector<std::size_t>(a.begin(), a.end()),
              std::vector<std::size_t>(b.begin(), b.end()))
        << "pair " << id;
    EXPECT_EQ(got.id_of(want.pair(id)), id);
  }
  const auto a = got.pair_of_flow();
  const auto b = want.pair_of_flow();
  EXPECT_EQ(std::vector<std::uint32_t>(a.begin(), a.end()),
            std::vector<std::uint32_t>(b.begin(), b.end()));
  EXPECT_EQ(got.id_of(GpuPair(GpuId(900000), GpuId(900001))),
            PairIndex::kNoPair);
}

void expect_pool_matches_serial(const FlowTrace& trace) {
  const FlowColumns cols(trace);
  const PairIndex serial(cols.view());
  // The null-pool index against a map-of-vectors reference: ids in first
  // appearance order, positions in row order.
  std::vector<GpuPair> pairs;
  std::vector<std::vector<std::size_t>> positions;
  std::unordered_map<GpuPair, std::size_t> id_of;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const auto [it, fresh] = id_of.try_emplace(trace[i].pair(), pairs.size());
    if (fresh) {
      pairs.push_back(trace[i].pair());
      positions.emplace_back();
    }
    positions[it->second].push_back(i);
    ASSERT_EQ(serial.pair_of_flow()[i], it->second);
  }
  ASSERT_EQ(serial.pairs(), pairs);
  for (std::size_t id = 0; id < pairs.size(); ++id) {
    const auto got = serial.positions(id);
    EXPECT_EQ(std::vector<std::size_t>(got.begin(), got.end()),
              positions[id]);
  }
  for (const std::size_t lanes : {1u, 2u, 4u, 8u}) {
    SCOPED_TRACE(lanes);
    ThreadPool pool(lanes - 1);
    expect_same_index(PairIndex(cols.view(), &pool), serial);
  }
}

TEST(PairIndexPoolTest, EmptyView) {
  expect_pool_matches_serial(FlowTrace{});
  EXPECT_EQ(PairIndex(FlowColumns(FlowTrace{}).view()).num_pairs(), 0u);
}

TEST(PairIndexPoolTest, SinglePairBothDirections) {
  FlowTrace t;
  for (int i = 0; i < 40; ++i) {
    t.add(i % 3 == 0 ? make_flow(i, 5, 9) : make_flow(i, 9, 5));
  }
  expect_pool_matches_serial(t);
}

TEST(PairIndexPoolTest, UnsortedView) {
  Rng rng(17);
  const FlowTrace t = random_trace(rng, 500, 50);
  ASSERT_FALSE(FlowColumns(t).view().sorted);
  expect_pool_matches_serial(t);
}

TEST(PairIndexPoolTest, ManyPairsAcrossManyBuckets) {
  // 6,000 distinct pairs, each seen three times in a shuffled order (some
  // reversed): 18,000 rows over 512 buckets of about 12 pairs each, so
  // most buckets are out of key order and are sorted.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> rows;
  for (int pass = 0; pass < 3; ++pass) {
    for (std::uint32_t p = 0; p < 6000; ++p) {
      const std::uint32_t a = p % 80;
      const std::uint32_t b = 80 + p / 80;
      rows.emplace_back(pass == 1 ? b : a, pass == 1 ? a : b);
    }
  }
  Rng rng(5);
  for (std::size_t i = rows.size() - 1; i > 0; --i) {
    std::swap(rows[i], rows[static_cast<std::size_t>(rng.uniform_int(
                           0, static_cast<int>(i)))]);
  }
  FlowTrace t;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    t.add(make_flow(static_cast<TimeNs>(i), rows[i].first, rows[i].second));
  }
  ASSERT_EQ(PairIndex(FlowColumns(t).view()).num_pairs(), 6000u);
  expect_pool_matches_serial(t);
}

// ---------------------------------------------------------------------------
// CSV primitives

TEST(CsvTest, ParseSimpleLine) {
  const auto fields = csv::parse_line("a,b,c");
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[1], "b");
}

TEST(CsvTest, ParseQuotedFields) {
  const auto fields = csv::parse_line(R"(1,"two, three","he said ""hi""")");
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[1], "two, three");
  EXPECT_EQ(fields[2], "he said \"hi\"");
}

TEST(CsvTest, ParseEmptyFields) {
  const auto fields = csv::parse_line(",,");
  ASSERT_EQ(fields.size(), 3u);
  for (const auto& f : fields) EXPECT_TRUE(f.empty());
}

TEST(CsvTest, UnterminatedQuoteThrows) {
  EXPECT_THROW(csv::parse_line("\"oops"), std::runtime_error);
}

TEST(CsvTest, EscapeRoundTrip) {
  const std::string nasty = R"(a,"b" c)";
  const auto escaped = csv::escape_field(nasty);
  const auto parsed = csv::parse_line(escaped);
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0], nasty);
}

TEST(CsvTest, ReadAllSkipsBlankLines) {
  std::istringstream is("a,b\n\nc,d\n");
  const auto rows = csv::read_all(is);
  EXPECT_EQ(rows.size(), 2u);
}

// ---------------------------------------------------------------------------
// Flow CSV I/O

TEST(FlowIoTest, RoundTripPreservesEverything) {
  FlowTrace t;
  auto f1 = make_flow(123456789, 7, 9, 1ull << 33, 42000);
  f1.switches.push_back(SwitchId(3));
  f1.switches.push_back(SwitchId(17));
  f1.switches.push_back(SwitchId(4));
  t.add(f1);
  t.add(make_flow(-5, 0, 1));  // negative time (pre-epoch) allowed

  std::stringstream ss;
  write_csv(ss, t);
  const FlowTrace back = read_csv(ss);
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[0], t[0]);
  EXPECT_EQ(back[1], t[1]);
}

TEST(FlowIoTest, EmptyTraceRoundTrip) {
  std::stringstream ss;
  write_csv(ss, FlowTrace{});
  EXPECT_TRUE(read_csv(ss).empty());
}

TEST(FlowIoTest, MissingHeaderThrows) {
  std::istringstream is("");
  EXPECT_THROW(read_csv(is), std::runtime_error);
}

TEST(FlowIoTest, WrongFieldCountThrows) {
  std::istringstream is("start_ns,src,dst,bytes,duration_ns,switches\n1,2,3\n");
  EXPECT_THROW(read_csv(is), std::runtime_error);
}

TEST(FlowIoTest, BadNumberThrows) {
  std::istringstream is(
      "start_ns,src,dst,bytes,duration_ns,switches\n1,x,3,4,5,\n");
  EXPECT_THROW(read_csv(is), std::runtime_error);
}

TEST(FlowIoTest, EmptySwitchListParses) {
  std::istringstream is(
      "start_ns,src,dst,bytes,duration_ns,switches\n1,2,3,4,5,\n");
  const auto t = read_csv(is);
  ASSERT_EQ(t.size(), 1u);
  EXPECT_TRUE(t[0].switches.empty());
}

TEST(FlowIoTest, FileRoundTrip) {
  FlowTrace t;
  t.add(make_flow(1, 2, 3));
  const std::string path = ::testing::TempDir() + "/flows_test.csv";
  write_csv_file(path, t);
  const auto back = read_csv_file(path);
  ASSERT_EQ(back.size(), 1u);
  EXPECT_EQ(back[0], t[0]);
  EXPECT_THROW(read_csv_file("/nonexistent/nope.csv"), std::runtime_error);
}

// ---------------------------------------------------------------------------
// read_csv_checked: non-throwing parse with editor-accurate diagnostics.

TEST(FlowIoCheckedTest, ReportsPhysicalLineNumbers) {
  // Line 1: header. Line 2: blank (counts toward numbering). Line 3: bad
  // field. Line 4: good row. Line 5: wrong field count.
  std::istringstream is(
      "start_ns,src,dst,bytes,duration_ns,switches\n"
      "\n"
      "1,2,3,abc,5,\n"
      "10,2,3,4,5,\n"
      "1,2,3\n");
  const ParseResult result = read_csv_checked(is);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.lines_read, 5u);
  ASSERT_EQ(result.errors.size(), 2u);
  EXPECT_EQ(result.errors[0].line, 3u);
  EXPECT_NE(result.errors[0].message.find("bytes"), std::string::npos);
  EXPECT_EQ(result.errors[1].line, 5u);
  EXPECT_NE(result.errors[1].message.find("expected 6 fields"),
            std::string::npos);
  // The good row between the bad ones is still parsed.
  ASSERT_EQ(result.trace.size(), 1u);
  EXPECT_EQ(result.trace[0].start_time, 10);
}

TEST(FlowIoCheckedTest, CrlfLinesParse) {
  std::istringstream is(
      "start_ns,src,dst,bytes,duration_ns,switches\r\n1,2,3,4,5,\r\n");
  const ParseResult result = read_csv_checked(is);
  EXPECT_TRUE(result.ok());
  ASSERT_EQ(result.trace.size(), 1u);
  EXPECT_EQ(result.trace[0].duration, 5);
}

TEST(FlowIoCheckedTest, FinalRowWithoutNewlineParses) {
  std::istringstream is(
      "start_ns,src,dst,bytes,duration_ns,switches\n1,2,3,4,5,3;17");
  const ParseResult result = read_csv_checked(is);
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(result.lines_read, 2u);
  ASSERT_EQ(result.trace.size(), 1u);
  ASSERT_EQ(result.trace[0].switches.size(), 2u);
  EXPECT_EQ(result.trace[0].switches[1], SwitchId(17));
}

TEST(FlowIoCheckedTest, EmbeddedNulIsRejectedPerLine) {
  std::string in =
      "start_ns,src,dst,bytes,duration_ns,switches\n"
      "1,2,3,4,5,\n";
  in += std::string("6,7,8,9,") + '\0' + ",\n";  // line 3: NUL inside a row
  in += "10,2,3,4,5,\n";
  const ParseResult result = read_csv_checked(in);
  ASSERT_EQ(result.errors.size(), 1u);
  EXPECT_EQ(result.errors[0].line, 3u);
  EXPECT_NE(result.errors[0].message.find("NUL"), std::string::npos);
  // Rows around the poisoned one still parse.
  ASSERT_EQ(result.trace.size(), 2u);
  EXPECT_EQ(result.trace[1].start_time, 10);
}

TEST(FlowIoCheckedTest, TooManySwitchHopsIsRejected) {
  std::istringstream is(
      "start_ns,src,dst,bytes,duration_ns,switches\n1,2,3,4,5,1;2;3;4;5\n");
  const ParseResult result = read_csv_checked(is);
  ASSERT_EQ(result.errors.size(), 1u);
  EXPECT_NE(result.errors[0].message.find("too many switch hops"),
            std::string::npos);
  EXPECT_TRUE(result.trace.empty());
}

TEST(FlowIoCheckedTest, MissingHeaderIsAnError) {
  std::istringstream empty("");
  const ParseResult none = read_csv_checked(empty);
  ASSERT_EQ(none.errors.size(), 1u);
  EXPECT_NE(none.errors[0].message.find("missing header"), std::string::npos);

  // A non-header first line stops the parse: the file is not a flow CSV.
  std::istringstream wrong("time,from,to\n1,2,3,4,5,\n");
  const ParseResult bad = read_csv_checked(wrong);
  ASSERT_EQ(bad.errors.size(), 1u);
  EXPECT_EQ(bad.errors[0].line, 1u);
  EXPECT_NE(bad.errors[0].message.find("expected header"), std::string::npos);
  EXPECT_TRUE(bad.trace.empty());
}

TEST(FlowIoCheckedTest, ThrowingWrapperNamesFirstBadLine) {
  std::istringstream is(
      "start_ns,src,dst,bytes,duration_ns,switches\n"
      "1,x,3,4,5,\n"
      "1,2,3\n");
  try {
    (void)read_csv(is);
    FAIL() << "read_csv must throw on malformed input";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("line 2"), std::string::npos) << what;
    EXPECT_NE(what.find("+1 more bad lines"), std::string::npos) << what;
  }
}

}  // namespace
}  // namespace llmprism
