// Snapshot / restore tests (DESIGN.md §14, include/llmprism/core/
// snapshot.hpp): a warm monitor saved mid-stream and restored into a
// fresh object must continue exactly where it left off — the combined
// tick sequence renders byte-identical exports to an uninterrupted run —
// and every malformed blob must be rejected with the target unchanged
// (modeled on the LFT corrupt suite in test_lft.cpp).
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "llmprism/common/hash.hpp"
#include "llmprism/core/monitor.hpp"
#include "llmprism/core/prism.hpp"
#include "llmprism/core/session.hpp"
#include "llmprism/core/snapshot.hpp"
#include "llmprism/export/journal.hpp"
#include "llmprism/export/perfetto.hpp"
#include "llmprism/export/series.hpp"
#include "llmprism/export/view.hpp"
#include "llmprism/simulator/cluster_sim.hpp"

namespace llmprism {
namespace {

JobSimConfig job(std::uint32_t tp, std::uint32_t dp, std::uint32_t pp,
                 std::uint32_t steps) {
  JobSimConfig cfg;
  cfg.parallelism.tp = tp;
  cfg.parallelism.dp = dp;
  cfg.parallelism.pp = pp;
  cfg.parallelism.micro_batches = 4;
  cfg.num_steps = steps;
  return cfg;
}

/// Two steady jobs so every carry feature (recognition cache, comm-type
/// priors, timeline tails, EWMA baselines) accumulates real state.
const ClusterSimResult& steady_mix() {
  static const ClusterSimResult sim = [] {
    ClusterSimConfig cfg;
    cfg.topology = {.num_machines = 8, .gpus_per_machine = 8,
                    .machines_per_leaf = 4, .num_spines = 2};
    cfg.jobs.push_back({job(8, 2, 2, 16), {}});
    cfg.jobs.push_back({job(8, 4, 1, 16), {}});
    cfg.seed = 31;
    return run_cluster_sim(cfg);
  }();
  return sim;
}

MonitorConfig monitor_config() {
  MonitorConfig cfg;
  cfg.window = 2 * kSecond;
  cfg.reorder_slack = 0;
  cfg.carry_state = true;
  return cfg;
}

/// Render a tick sequence through every job-facing exporter; byte
/// equality of this string is the "continues identically" oracle.
std::string render(const std::vector<MonitorTick>& ticks) {
  PerfettoExporter perfetto;
  JobSeriesCollector series;
  IncidentJournal journal;
  for (const MonitorTick& tick : ticks) {
    const WindowExportView view = export_view(tick);
    perfetto.add_window(view);
    series.add_window(view);
    journal.add_window(view);
  }
  journal.finish();
  std::ostringstream os;
  perfetto.write(os);
  series.write_openmetrics(os);
  series.write_jsonl(os);
  journal.write_jsonl(os);
  return os.str();
}

std::string save_monitor(const OnlineMonitor& monitor) {
  std::ostringstream os;
  save_snapshot(os, monitor);
  return os.str();
}

std::span<const std::byte> bytes(const std::string& blob) {
  return {reinterpret_cast<const std::byte*>(blob.data()), blob.size()};
}

void expect_stats_equal(const MonitorStats& a, const MonitorStats& b) {
  EXPECT_EQ(a.flows_ingested, b.flows_ingested);
  EXPECT_EQ(a.flows_dropped_late, b.flows_dropped_late);
  EXPECT_EQ(a.windows_completed, b.windows_completed);
  EXPECT_EQ(a.stable_ids_created, b.stable_ids_created);
  EXPECT_EQ(a.step_alerts, b.step_alerts);
  EXPECT_EQ(a.group_alerts, b.group_alerts);
  EXPECT_EQ(a.switch_bandwidth_alerts, b.switch_bandwidth_alerts);
  EXPECT_EQ(a.switch_concurrency_alerts, b.switch_concurrency_alerts);
  EXPECT_EQ(a.job_windows, b.job_windows);
}

void expect_counters_equal(const SessionCounters& a, const SessionCounters& b) {
  EXPECT_EQ(a.windows, b.windows);
  EXPECT_EQ(a.jobs_created, b.jobs_created);
  EXPECT_EQ(a.jobs_reused, b.jobs_reused);
  EXPECT_EQ(a.jobs_invalidated, b.jobs_invalidated);
  EXPECT_EQ(a.recognition_reuses, b.recognition_reuses);
  EXPECT_EQ(a.recognition_rebuilds, b.recognition_rebuilds);
  EXPECT_EQ(a.pairs_reused, b.pairs_reused);
  EXPECT_EQ(a.pairs_reclassified, b.pairs_reclassified);
  EXPECT_EQ(a.boundary_steps_held, b.boundary_steps_held);
  EXPECT_EQ(a.boundary_steps_carried, b.boundary_steps_carried);
  EXPECT_EQ(a.ewma_step_alerts, b.ewma_step_alerts);
}

/// Split the steady trace at its midpoint timestamp: the head leaves the
/// monitor holding warm state AND a non-empty reorder buffer (flows past
/// the last closed window), both of which the snapshot must carry.
struct SplitFeed {
  FlowTrace head;
  FlowTrace tail;
};

const SplitFeed& split_feed() {
  static const SplitFeed feed = [] {
    FlowTrace trace = steady_mix().trace;
    trace.sort();
    const TimeNs mid =
        trace.span().begin + (trace.span().end - trace.span().begin) / 2;
    SplitFeed f;
    for (const FlowRecord& flow : trace) {
      (flow.start_time < mid ? f.head : f.tail).add(flow);
    }
    return f;
  }();
  return feed;
}

std::vector<MonitorTick> finish(OnlineMonitor& monitor,
                                std::vector<MonitorTick> ticks,
                                const FlowTrace& tail) {
  for (MonitorTick& tick : monitor.ingest(tail)) {
    ticks.push_back(std::move(tick));
  }
  if (auto last = monitor.flush()) ticks.push_back(std::move(*last));
  return ticks;
}

// --- round trips ----------------------------------------------------------

TEST(SnapshotTest, MonitorRestoreContinuesByteIdentical) {
  const ClusterSimResult& sim = steady_mix();
  const SplitFeed& feed = split_feed();

  // Reference: one monitor sees head + tail with no interruption.
  OnlineMonitor reference(sim.topology, monitor_config());
  auto ref_ticks = reference.ingest(feed.head);
  ref_ticks = finish(reference, std::move(ref_ticks), feed.tail);
  ASSERT_GE(ref_ticks.size(), 3u) << "mix must span several windows";

  // Interrupted: save after the head, restore into a fresh monitor.
  OnlineMonitor before(sim.topology, monitor_config());
  auto ticks = before.ingest(feed.head);
  const std::string blob = save_monitor(before);
  EXPECT_GT(blob.size(), 1000u);

  OnlineMonitor after(sim.topology, monitor_config());
  restore_snapshot(bytes(blob), after);
  ticks = finish(after, std::move(ticks), feed.tail);

  EXPECT_EQ(render(ticks), render(ref_ticks));
  expect_stats_equal(after.stats(), reference.stats());
  ASSERT_NE(after.session(), nullptr);
  ASSERT_NE(reference.session(), nullptr);
  expect_counters_equal(after.session()->counters(),
                        reference.session()->counters());
}

TEST(SnapshotTest, SaveIsDeterministic) {
  const ClusterSimResult& sim = steady_mix();
  OnlineMonitor a(sim.topology, monitor_config());
  a.ingest(split_feed().head);
  const std::string first = save_monitor(a);
  const std::string second = save_monitor(a);
  EXPECT_EQ(first, second) << "equal state must produce equal bytes";

  // And a restored monitor re-saves to the same bytes.
  OnlineMonitor b(sim.topology, monitor_config());
  restore_snapshot(bytes(first), b);
  EXPECT_EQ(save_monitor(b), first);
}

TEST(SnapshotTest, SessionRoundTripPreservesCountersAndJobs) {
  const ClusterSimResult& sim = steady_mix();
  OnlineMonitor monitor(sim.topology, monitor_config());
  monitor.ingest(split_feed().head);
  const PrismSession* warm = monitor.session();
  ASSERT_NE(warm, nullptr);
  ASSERT_GT(warm->jobs_tracked(), 0u);

  std::ostringstream os;
  save_snapshot(os, *warm);
  const std::string blob = os.str();

  PrismSession restored(monitor_config().session);
  restore_snapshot(bytes(blob), restored);
  EXPECT_EQ(restored.jobs_tracked(), warm->jobs_tracked());
  expect_counters_equal(restored.counters(), warm->counters());

  std::ostringstream again;
  save_snapshot(again, restored);
  EXPECT_EQ(again.str(), blob);
}

TEST(SnapshotTest, EmptyMonitorRoundTrips) {
  const ClusterSimResult& sim = steady_mix();
  OnlineMonitor fresh(sim.topology, monitor_config());
  const std::string blob = save_monitor(fresh);
  OnlineMonitor restored(sim.topology, monitor_config());
  restore_snapshot(bytes(blob), restored);
  expect_stats_equal(restored.stats(), fresh.stats());
  EXPECT_EQ(save_monitor(restored), blob);
}

TEST(SnapshotTest, StreamAndSpanRestoresAgree) {
  const ClusterSimResult& sim = steady_mix();
  OnlineMonitor warm(sim.topology, monitor_config());
  warm.ingest(split_feed().head);
  const std::string blob = save_monitor(warm);

  OnlineMonitor via_span(sim.topology, monitor_config());
  restore_snapshot(bytes(blob), via_span);
  OnlineMonitor via_stream(sim.topology, monitor_config());
  std::istringstream is(blob);
  restore_snapshot(is, via_stream);
  EXPECT_EQ(save_monitor(via_stream), save_monitor(via_span));
}

// LPS1 must stay byte-stable: XXH64 digests (and lengths) of a session and
// a monitor snapshot of one fixed seeded feed. SaveIsDeterministic only
// compares two saves of one build; this pins the bytes across changes.
TEST(SnapshotTest, GoldenBytes) {
  OnlineMonitor warm(steady_mix().topology, monitor_config());
  warm.ingest(split_feed().head);
  ASSERT_NE(warm.session(), nullptr);
  std::ostringstream session_blob;
  save_snapshot(session_blob, *warm.session());
  const std::string monitor_blob = save_monitor(warm);

  const auto digest = [](const std::string& blob) {
    return xxhash64(blob.data(), blob.size());
  };
  EXPECT_EQ(session_blob.str().size(), 5'509u);
  EXPECT_EQ(digest(session_blob.str()), 0x19438a76ee228d75ULL)
      << std::hex << "actual xxh64 0x" << digest(session_blob.str());
  EXPECT_EQ(monitor_blob.size(), 221'929u);
  EXPECT_EQ(digest(monitor_blob), 0x5ab0ddf8bee82dfcULL)
      << std::hex << "actual xxh64 0x" << digest(monitor_blob);
}

// --- corrupt-blob suite ---------------------------------------------------

/// Every malformed blob must throw std::runtime_error and leave the
/// target monitor byte-for-byte unchanged (strong guarantee: its own
/// re-save matches the pre-restore save).
class SnapshotCorruptTest : public ::testing::Test {
 protected:
  static const std::string& good_blob() {
    static const std::string blob = [] {
      OnlineMonitor warm(steady_mix().topology, monitor_config());
      warm.ingest(split_feed().head);
      return save_monitor(warm);
    }();
    return blob;
  }

  /// A non-empty `reason` must appear in the error message.
  void expect_rejects(const std::string& name, const std::string& blob,
                      const std::string& reason = "") {
    SCOPED_TRACE(name);
    OnlineMonitor target(steady_mix().topology, monitor_config());
    target.ingest(split_feed().head);
    const std::string before = save_monitor(target);
    try {
      restore_snapshot(bytes(blob), target);
      ADD_FAILURE() << "restore accepted the blob";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(reason), std::string::npos)
          << e.what();
    }
    EXPECT_EQ(save_monitor(target), before)
        << "failed restore must leave the target unchanged";
  }
};

TEST_F(SnapshotCorruptTest, EmptyBlob) { expect_rejects("empty", ""); }

TEST_F(SnapshotCorruptTest, TruncatedHeader) {
  expect_rejects("header", good_blob().substr(0, snapshot::kHeaderSize - 1));
}

TEST_F(SnapshotCorruptTest, TruncatedPayload) {
  const std::string& good = good_blob();
  expect_rejects("half", good.substr(0, good.size() / 2));
  expect_rejects("missing checksum", good.substr(0, good.size() - 8));
  expect_rejects("one byte short", good.substr(0, good.size() - 1));
}

TEST_F(SnapshotCorruptTest, TrailingGarbage) {
  expect_rejects("trailing", good_blob() + std::string(4, '\0'));
}

TEST_F(SnapshotCorruptTest, BadMagic) {
  std::string blob = good_blob();
  blob[0] = 'X';
  expect_rejects("magic", blob);
}

TEST_F(SnapshotCorruptTest, WrongVersion) {
  std::string blob = good_blob();
  blob[4] = static_cast<char>(snapshot::kVersion + 1);
  expect_rejects("version", blob);
}

TEST_F(SnapshotCorruptTest, WrongKind) {
  // A session blob is a valid snapshot — of the wrong kind for a monitor.
  OnlineMonitor warm(steady_mix().topology, monitor_config());
  warm.ingest(split_feed().head);
  ASSERT_NE(warm.session(), nullptr);
  std::ostringstream os;
  save_snapshot(os, *warm.session());
  expect_rejects("session blob into monitor", os.str());

  // And vice versa: a monitor blob must not restore into a session.
  PrismSession session(monitor_config().session);
  EXPECT_THROW(restore_snapshot(bytes(good_blob()), session),
               std::runtime_error);
}

TEST_F(SnapshotCorruptTest, BitFlips) {
  // Any single flipped bit lands on the XXH64 (or a validation stage that
  // fires first); sample offsets across the whole payload.
  const std::string& good = good_blob();
  for (const std::size_t at :
       {snapshot::kHeaderSize, good.size() / 4, good.size() / 2,
        3 * good.size() / 4, good.size() - 9, good.size() - 1}) {
    std::string blob = good;
    blob[at] = static_cast<char>(blob[at] ^ 0x20);
    expect_rejects("bit flip at " + std::to_string(at), blob);
  }
}

TEST_F(SnapshotCorruptTest, ConfigMismatch) {
  // The blob carries a config fingerprint: restoring into a monitor built
  // with a different window (or session tuning) must be refused.
  MonitorConfig other_window = monitor_config();
  other_window.window = kSecond;
  OnlineMonitor target(steady_mix().topology, other_window);
  EXPECT_THROW(restore_snapshot(bytes(good_blob()), target),
               std::runtime_error);

  MonitorConfig other_session = monitor_config();
  other_session.session.ewma_alpha *= 0.5;
  OnlineMonitor target2(steady_mix().topology, other_session);
  EXPECT_THROW(restore_snapshot(bytes(good_blob()), target2),
               std::runtime_error);
}

TEST_F(SnapshotCorruptTest, TopologyMismatch) {
  const ClusterTopology small = ClusterTopology::build(
      {.num_machines = 4, .gpus_per_machine = 8, .machines_per_leaf = 4,
       .num_spines = 2});
  OnlineMonitor target(small, monitor_config());
  EXPECT_THROW(restore_snapshot(bytes(good_blob()), target),
               std::runtime_error);
}

TEST_F(SnapshotCorruptTest, CarryStateMismatch) {
  // A carry-enabled blob embeds a session; a carry-less target has none.
  MonitorConfig cold = monitor_config();
  cold.carry_state = false;
  OnlineMonitor target(steady_mix().topology, cold);
  EXPECT_THROW(restore_snapshot(bytes(good_blob()), target),
               std::runtime_error);
}

// --- forged blobs: valid checksum, hostile content ------------------------
// XXH64 is not a security boundary: whoever can write the file can
// recompute it. These blobs carry a correct checksum over content the
// reader must still refuse.

std::uint64_t load_u64(const std::string& blob, std::size_t at) {
  std::uint64_t v;
  std::memcpy(&v, blob.data() + at, sizeof(v));
  return v;
}

template <typename T>
void store(std::string& blob, std::size_t at, T v) {
  std::memcpy(blob.data() + at, &v, sizeof(v));
}

/// Recompute the trailing checksum after an edit.
void reseal(std::string& blob) {
  store(blob, blob.size() - 8, xxhash64(blob.data(), blob.size() - 8));
}

/// Byte positions inside a monitor blob, found by walking the payload in
/// the order the reader parses it.
struct MonitorBlobLayout {
  std::size_t num_flows = 0;
  std::size_t start_ns = 0;        ///< first element of each column
  std::size_t src = 0;
  std::size_t switch_offsets = 0;
  std::size_t switch_ids = 0;
  std::size_t sorted = 0;          ///< the buffer's sorted flag
  std::size_t cached_gpu = 0;      ///< recognition cache: job 0's gpus[0]
};

MonitorBlobLayout layout_of(const std::string& blob) {
  MonitorBlobLayout at;
  // window, slack, carry flag, GPU count, origin flag, begin, watermark
  std::size_t pos = snapshot::kHeaderSize + 8 + 8 + 1 + 8 + 1 + 8 + 8;
  const auto column = [&](std::size_t elem_bytes) {
    const std::uint64_t n = load_u64(blob, pos);
    const std::size_t first = pos + 8;
    pos = first + n * elem_bytes;
    return first;
  };
  at.num_flows = load_u64(blob, pos);
  at.start_ns = column(8);
  at.src = column(4);
  column(4);  // dst
  column(8);  // bytes
  column(8);  // duration_ns
  at.switch_offsets = column(8);
  at.switch_ids = column(4);
  at.sorted = pos++;
  pos += 8;  // next job id
  const std::uint64_t num_ids = load_u64(blob, pos);
  pos += 8;
  for (std::uint64_t i = 0; i < num_ids; ++i) {
    column(4);  // machine set
    pos += 8;   // stable id
  }
  pos += 8 * 8;  // monitor stats
  column(16);    // per-job window counts
  pos += 1;      // session present
  pos += 4 + 4 * 8 + 11 * 8 + 8;  // session config, counters, window index
  EXPECT_EQ(blob[pos], 1) << "recognition cache must be valid";
  pos += 1;
  column(8);  // cached pair set
  EXPECT_GT(load_u64(blob, pos), 0u) << "cache must hold a job";
  pos += 8;
  at.cached_gpu = column(4);
  return at;
}

TEST_F(SnapshotCorruptTest, ForgedSwitchOffsets) {
  std::string blob = good_blob();
  const MonitorBlobLayout at = layout_of(blob);
  ASSERT_GT(at.num_flows, 0u) << "the reorder buffer must hold flows";
  store<std::uint64_t>(blob, at.switch_offsets + 8, std::uint64_t{1} << 40);
  reseal(blob);
  expect_rejects("switch_offsets[1] = 2^40", blob, "hops (max");
}

TEST_F(SnapshotCorruptTest, ForgedSortFlag) {
  std::string blob = good_blob();
  const MonitorBlobLayout at = layout_of(blob);
  ASSERT_GE(at.num_flows, 2u);
  ASSERT_EQ(blob[at.sorted], 1) << "the buffer is stored sorted";
  const std::size_t last = at.start_ns + 8 * (at.num_flows - 1);
  const std::uint64_t first_start = load_u64(blob, at.start_ns);
  const std::uint64_t last_start = load_u64(blob, last);
  ASSERT_NE(first_start, last_start);
  store(blob, at.start_ns, last_start);
  store(blob, last, first_start);
  reseal(blob);
  expect_rejects("first and last start swapped, still flagged sorted", blob,
                 "rows are not sorted");
}

TEST_F(SnapshotCorruptTest, ForgedIdOutsideTopology) {
  const ClusterTopology& topology = steady_mix().topology;
  const std::string& good = good_blob();
  const MonitorBlobLayout at = layout_of(good);
  ASSERT_GT(at.num_flows, 0u);
  ASSERT_GT(load_u64(good, at.switch_offsets + 8 * at.num_flows), 0u)
      << "the buffer must hold switch hops";

  std::string gpu = good;
  store<std::uint32_t>(gpu, at.src, topology.num_gpus());
  reseal(gpu);
  expect_rejects("buffer src = num_gpus", gpu,
                 "GPU id " + std::to_string(topology.num_gpus()) + " outside");

  std::string sw = good;
  store<std::uint32_t>(sw, at.switch_ids, topology.num_switches());
  reseal(sw);
  expect_rejects("buffer switch id = num_switches", sw,
                 "switch id " + std::to_string(topology.num_switches()) +
                     " outside");

  std::string cached = good;
  store<std::uint32_t>(cached, at.cached_gpu, 100'000);
  reseal(cached);
  expect_rejects("recognition cache GPU id 100000", cached,
                 "recognition cache: GPU id 100000");
}

// Every strict prefix of a session blob, and the blob plus one byte, must
// fail cleanly with a "snapshot: " error — also when the cut payload is
// resealed, so the checksum passes and the cursor itself meets the end.
TEST_F(SnapshotCorruptTest, EveryPrefixAndOneExtraByteFail) {
  OnlineMonitor warm(steady_mix().topology, monitor_config());
  warm.ingest(split_feed().head);
  ASSERT_NE(warm.session(), nullptr);
  std::ostringstream os;
  save_snapshot(os, *warm.session());
  const std::string good = os.str();
  const std::string payload = good.substr(0, good.size() - 8);
  PrismSession target(monitor_config().session);
  const auto expect_fails = [&](const std::string& blob) {
    try {
      restore_snapshot(bytes(blob), target);
      ADD_FAILURE() << blob.size() << " bytes accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_TRUE(std::string_view(e.what()).starts_with("snapshot: "))
          << blob.size() << " bytes: " << e.what();
    }
  };
  for (std::size_t len = 0; len <= good.size(); ++len) {
    expect_fails(len < good.size() ? good.substr(0, len) : good + '\0');
  }
  for (std::size_t len = snapshot::kHeaderSize; len <= payload.size(); ++len) {
    std::string blob =
        (len < payload.size() ? payload.substr(0, len) : payload + '\0') +
        std::string(8, '\0');
    reseal(blob);
    expect_fails(blob);
  }
}

TEST_F(SnapshotCorruptTest, FileErrors) {
  OnlineMonitor target(steady_mix().topology, monitor_config());
  EXPECT_THROW(restore_snapshot_file("/nonexistent/dir/warm.snap", target),
               std::runtime_error);
  EXPECT_THROW(save_snapshot_file("/nonexistent/dir/warm.snap", target),
               std::runtime_error);
}

}  // namespace
}  // namespace llmprism
