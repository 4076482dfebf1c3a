#include "llmprism/core/snapshot.hpp"

#include <algorithm>
#include <fstream>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "llmprism/common/byte_codec.hpp"
#include "llmprism/core/monitor.hpp"
#include "llmprism/core/session.hpp"
#include "llmprism/obs/metrics.hpp"

namespace llmprism {

namespace {

constexpr const char* kPrefix = "snapshot: ";

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error(kPrefix + what);
}

obs::Counter& snapshot_saves() {
  static obs::Counter& c = obs::default_registry().counter(
      "llmprism_snapshot_saves_total", "Warm-state snapshots written");
  return c;
}

obs::Counter& snapshot_restores() {
  static obs::Counter& c = obs::default_registry().counter(
      "llmprism_snapshot_restores_total", "Warm-state snapshots restored");
  return c;
}

using codec::ByteReader;
using codec::ByteWriter;

template <typename Id>
void write_id_vector(ByteWriter& w, const std::vector<Id>& ids) {
  w.u64(ids.size());
  for (const Id id : ids) w.u32(id.value());
}

template <typename Id>
std::vector<Id> read_id_vector(ByteReader& r) {
  const std::size_t n = r.count(4);
  std::vector<Id> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) out.emplace_back(r.u32());
  return out;
}

void write_columns(ByteWriter& w, const FlowColumns& c) {
  w.counted(c.start_ns);
  w.counted(c.src);
  w.counted(c.dst);
  w.counted(c.bytes);
  w.counted(c.duration_ns);
  w.counted(c.switch_offsets);
  w.counted(c.switch_ids);
  w.u8(c.sorted ? 1 : 0);
}

FlowColumns read_columns(ByteReader& r) {
  FlowColumns c;
  c.start_ns = r.counted<TimeNs>();
  c.src = r.counted<std::uint32_t>();
  c.dst = r.counted<std::uint32_t>();
  c.bytes = r.counted<std::uint64_t>();
  c.duration_ns = r.counted<DurationNs>();
  c.switch_offsets = r.counted<std::uint64_t>();
  c.switch_ids = r.counted<std::uint32_t>();
  c.sorted = r.u8() != 0;
  // The checksum only detects accidents; anyone who can write the file can
  // recompute it. So the columns, which the monitor indexes and
  // binary-searches by, get the same check as an LFT image's.
  if (const std::string error = c.view().column_error(); !error.empty()) {
    r.fail(error);
  }
  return c;
}

/// Write a `kind` blob: the container head, `payload(writer)`, the seal.
template <typename Payload>
void write_blob(std::ostream& os, std::uint16_t kind, Payload&& payload) {
  ByteWriter w;
  w.head(snapshot::kMagic, snapshot::kVersion, kind);
  payload(w);
  w.seal();
  os.write(w.bytes().data(), static_cast<std::streamsize>(w.bytes().size()));
  if (!os) fail("stream write failed");
  snapshot_saves().inc();
}

/// Open the container (head, seal, kind) and return a cursor over the
/// payload.
ByteReader open_blob(std::span<const std::byte> blob,
                     std::uint16_t want_kind) {
  if (blob.size() < snapshot::kHeaderSize + 8) {
    fail("truncated blob (" + std::to_string(blob.size()) + " bytes)");
  }
  ByteReader r(blob.first(blob.size() - 8), kPrefix);
  const std::uint16_t kind =
      r.head(snapshot::kMagic, snapshot::kVersion, "not a snapshot");
  codec::check_seal(blob, kPrefix);
  if (kind != want_kind) {
    fail("wrong snapshot kind " + std::to_string(kind) + " (expected " +
         std::to_string(want_kind) + ")");
  }
  return r;
}

std::string slurp(std::istream& is) {
  return {std::istreambuf_iterator<char>(is), {}};
}

}  // namespace

/// Private-member codec for PrismSession and OnlineMonitor (befriended by
/// both). All map-shaped state is serialized in sorted key order so equal
/// state always produces equal bytes; restores parse the whole payload
/// into temporaries before committing anything (strong guarantee).
struct SnapshotAccess {
  /// LPS1 records the four session tuning constants; a blob holding other
  /// values was saved by a differently tuned build and is refused.
  static void write_session_config(ByteWriter& w) {
    w.f64(kEwmaAlpha);
    w.u64(kEwmaMinSamples);
    w.i64(kBoundaryHold);
    w.u64(kEvictAfterWindows);
  }

  static void check_session_config(ByteReader& r) {
    const bool same = r.f64() == kEwmaAlpha && r.u64() == kEwmaMinSamples &&
                      r.i64() == kBoundaryHold &&
                      r.u64() == kEvictAfterWindows;
    if (!same) {
      fail(
          "session config mismatch (the blob was saved with different "
          "session tuning)");
    }
  }

  static void write_session_payload(ByteWriter& w, const PrismSession& s) {
    write_session_config(w);

    const SessionCounters& c = s.counters_;
    for (const std::uint64_t v :
         {c.windows, c.jobs_created, c.jobs_reused, c.jobs_invalidated,
          c.pairs_reused, c.pairs_reclassified, c.boundary_steps_held,
          c.boundary_steps_carried, c.ewma_step_alerts}) {
      w.u64(v);
    }
    w.u64(s.window_index_);

    // Per-job carried state, sorted by machine-set key.
    std::vector<const std::pair<const std::vector<MachineId>, SessionJobState>*>
        jobs;
    jobs.reserve(s.job_states_.size());
    for (const auto& entry : s.job_states_) jobs.push_back(&entry);
    std::sort(jobs.begin(), jobs.end(),
              [](const auto* a, const auto* b) { return a->first < b->first; });
    w.u64(jobs.size());
    for (const auto* entry : jobs) {
      write_id_vector(w, entry->first);
      const SessionJobState& state = entry->second;

      std::vector<std::pair<GpuPair, CommType>> types(
          state.comm.pre_types.begin(), state.comm.pre_types.end());
      std::sort(types.begin(), types.end());
      w.u64(types.size());
      for (const auto& [pair, type] : types) {
        w.u32(pair.first.value());
        w.u32(pair.second.value());
        w.u8(static_cast<std::uint8_t>(type));
      }

      std::vector<const std::pair<const GpuId, GpuStepCarry>*> gpus;
      gpus.reserve(state.timeline.per_gpu.size());
      for (const auto& g : state.timeline.per_gpu) gpus.push_back(&g);
      std::sort(gpus.begin(), gpus.end(), [](const auto* a, const auto* b) {
        return a->first < b->first;
      });
      w.u64(gpus.size());
      for (const auto* g : gpus) {
        w.u32(g->first.value());
        const GpuStepCarry& carry = g->second;
        w.u64(carry.held_events.size());
        for (const TimelineEvent& e : carry.held_events) {
          w.u8(static_cast<std::uint8_t>(e.kind));
          w.i64(e.start);
          w.i64(e.end);
          w.u32(e.peer.value());
        }
        w.i64(carry.prev_step_end);
        w.u8(carry.has_prev_step ? 1 : 0);
      }

      std::vector<std::pair<GpuId, EwmaBaseline>> baselines(
          state.step_baselines.begin(), state.step_baselines.end());
      std::sort(baselines.begin(), baselines.end(),
                [](const auto& a, const auto& b) { return a.first < b.first; });
      w.u64(baselines.size());
      for (const auto& [gpu, baseline] : baselines) {
        w.u32(gpu.value());
        w.f64(baseline.mean);
        w.f64(baseline.var);
        w.u64(baseline.count);
      }

      w.u64(state.last_seen_window);
    }
  }

  static void read_session_payload(ByteReader& r, PrismSession& s) {
    check_session_config(r);

    SessionCounters counters;
    for (std::uint64_t* v :
         {&counters.windows, &counters.jobs_created, &counters.jobs_reused,
          &counters.jobs_invalidated, &counters.pairs_reused,
          &counters.pairs_reclassified, &counters.boundary_steps_held,
          &counters.boundary_steps_carried, &counters.ewma_step_alerts}) {
      *v = r.u64();
    }
    const std::uint64_t window_index = r.u64();

    std::unordered_map<std::vector<MachineId>, SessionJobState, MachineSetHash>
        job_states;
    const std::size_t num_states = r.count(8);
    job_states.reserve(num_states);
    for (std::size_t i = 0; i < num_states; ++i) {
      std::vector<MachineId> machines = read_id_vector<MachineId>(r);
      SessionJobState state;

      const std::size_t num_types = r.count(9);
      state.comm.pre_types.reserve(num_types);
      for (std::size_t k = 0; k < num_types; ++k) {
        const GpuId a{r.u32()};
        const GpuId b{r.u32()};
        const std::uint8_t type = r.u8();
        if (type > static_cast<std::uint8_t>(CommType::kDP)) {
          fail("corrupt comm type " + std::to_string(type));
        }
        state.comm.pre_types.emplace(GpuPair(a, b),
                                     static_cast<CommType>(type));
      }

      const std::size_t num_gpus = r.count(8);
      state.timeline.per_gpu.reserve(num_gpus);
      for (std::size_t k = 0; k < num_gpus; ++k) {
        const GpuId gpu{r.u32()};
        GpuStepCarry carry;
        const std::size_t num_events = r.count(21);
        carry.held_events.reserve(num_events);
        for (std::size_t e = 0; e < num_events; ++e) {
          TimelineEvent event;
          const std::uint8_t kind = r.u8();
          if (kind > static_cast<std::uint8_t>(TimelineEventKind::kCompute)) {
            fail("corrupt timeline event kind " + std::to_string(kind));
          }
          event.kind = static_cast<TimelineEventKind>(kind);
          event.start = r.i64();
          event.end = r.i64();
          event.peer = GpuId{r.u32()};
          carry.held_events.push_back(event);
        }
        carry.prev_step_end = r.i64();
        carry.has_prev_step = r.u8() != 0;
        state.timeline.per_gpu.emplace(gpu, std::move(carry));
      }

      const std::size_t num_baselines = r.count(28);
      state.step_baselines.reserve(num_baselines);
      for (std::size_t k = 0; k < num_baselines; ++k) {
        const GpuId gpu{r.u32()};
        EwmaBaseline baseline;
        baseline.mean = r.f64();
        baseline.var = r.f64();
        baseline.count = r.u64();
        state.step_baselines.emplace(gpu, baseline);
      }

      state.last_seen_window = r.u64();
      job_states.emplace(std::move(machines), std::move(state));
    }

    // Fully parsed — commit.
    s.counters_ = counters;
    s.window_index_ = window_index;
    s.job_states_ = std::move(job_states);
    s.window_armed_ = false;
    s.window_end_ = 0;
    s.hold_tail_ = false;
    // Restored counts happened in another process: they are not counted
    // again, but the held states join the process's jobs_tracked total.
    s.published_ = counters;
    s.publish();
  }

  static void write_monitor_payload(ByteWriter& w, const OnlineMonitor& m) {
    // Config/topology fingerprint, verified on restore.
    w.i64(m.config_.window);
    w.i64(m.config_.reorder_slack);
    w.u8(m.config_.carry_state ? 1 : 0);
    w.u64(m.topology_.num_gpus());

    w.u8(m.window_origin_set_ ? 1 : 0);
    w.i64(m.window_begin_);
    w.i64(m.watermark_);
    write_columns(w, m.buffer_);

    w.u64(m.next_job_id_);
    std::vector<const std::pair<const std::vector<MachineId>, MonitorJobId>*>
        ids;
    ids.reserve(m.job_ids_.size());
    for (const auto& entry : m.job_ids_) ids.push_back(&entry);
    std::sort(ids.begin(), ids.end(),
              [](const auto* a, const auto* b) { return a->first < b->first; });
    w.u64(ids.size());
    for (const auto* entry : ids) {
      write_id_vector(w, entry->first);
      w.u64(entry->second);
    }

    const MonitorStats& st = m.stats_;
    for (const std::size_t v :
         {st.flows_ingested, st.flows_dropped_late, st.windows_completed,
          st.stable_ids_created, st.step_alerts, st.group_alerts,
          st.switch_bandwidth_alerts, st.switch_concurrency_alerts}) {
      w.u64(v);
    }
    std::vector<std::pair<MonitorJobId, std::size_t>> windows(
        st.job_windows.begin(), st.job_windows.end());
    std::sort(windows.begin(), windows.end());
    w.u64(windows.size());
    for (const auto& [id, n] : windows) {
      w.u64(id);
      w.u64(n);
    }

    w.u8(m.session_ ? 1 : 0);
    if (m.session_) write_session_payload(w, *m.session_);
  }

  static void read_monitor_payload(ByteReader& r, OnlineMonitor& m) {
    if (r.i64() != m.config_.window || r.i64() != m.config_.reorder_slack ||
        (r.u8() != 0) != m.config_.carry_state) {
      fail(
          "monitor config mismatch (restore into a monitor constructed with "
          "the saved window/slack/carry configuration)");
    }
    if (r.u64() != m.topology_.num_gpus()) {
      fail("topology mismatch (different GPU count)");
    }

    const bool origin_set = r.u8() != 0;
    const TimeNs window_begin = r.i64();
    const TimeNs watermark = r.i64();
    FlowColumns buffer = read_columns(r);
    if (const std::string error = m.topology_.id_error(buffer.view());
        !error.empty()) {
      fail("reorder buffer: " + error);
    }

    const MonitorJobId next_job_id = r.u64();
    std::unordered_map<std::vector<MachineId>, MonitorJobId, MachineSetHash>
        job_ids;
    const std::size_t num_ids = r.count(16);
    job_ids.reserve(num_ids);
    for (std::size_t i = 0; i < num_ids; ++i) {
      std::vector<MachineId> machines = read_id_vector<MachineId>(r);
      const MonitorJobId id = r.u64();
      job_ids.emplace(std::move(machines), id);
    }

    MonitorStats stats;
    for (std::size_t* v :
         {&stats.flows_ingested, &stats.flows_dropped_late,
          &stats.windows_completed, &stats.stable_ids_created,
          &stats.step_alerts, &stats.group_alerts,
          &stats.switch_bandwidth_alerts, &stats.switch_concurrency_alerts}) {
      *v = static_cast<std::size_t>(r.u64());
    }
    const std::size_t num_windows = r.count(16);
    stats.job_windows.reserve(num_windows);
    for (std::size_t i = 0; i < num_windows; ++i) {
      const MonitorJobId id = r.u64();
      stats.job_windows[id] = static_cast<std::size_t>(r.u64());
    }

    const bool has_session = r.u8() != 0;
    if (has_session != (m.session_ != nullptr)) {
      fail("session presence mismatch (carry_state differs)");
    }
    // The session commits only after its own payload fully parses, so a
    // corrupt tail leaves the whole monitor untouched.
    if (has_session) read_session_payload(r, *m.session_);

    m.window_origin_set_ = origin_set;
    m.window_begin_ = window_begin;
    m.watermark_ = watermark;
    m.buffer_ = std::move(buffer);
    m.next_job_id_ = next_job_id;
    m.job_ids_ = std::move(job_ids);
    m.stats_ = std::move(stats);
    // As for the session: the restored buffer joins buffered_flows, the
    // restored counts are not counted again.
    m.published_ = m.stats_;
    m.publish();
  }
};

void save_snapshot(std::ostream& os, const PrismSession& session) {
  write_blob(os, snapshot::kKindSession, [&](ByteWriter& w) {
    SnapshotAccess::write_session_payload(w, session);
  });
}

void save_snapshot(std::ostream& os, const OnlineMonitor& monitor) {
  write_blob(os, snapshot::kKindMonitor, [&](ByteWriter& w) {
    SnapshotAccess::write_monitor_payload(w, monitor);
  });
}

void restore_snapshot(std::span<const std::byte> blob, PrismSession& session) {
  ByteReader r = open_blob(blob, snapshot::kKindSession);
  SnapshotAccess::read_session_payload(r, session);
  r.expect_done();
  snapshot_restores().inc();
}

void restore_snapshot(std::span<const std::byte> blob, OnlineMonitor& monitor) {
  ByteReader r = open_blob(blob, snapshot::kKindMonitor);
  SnapshotAccess::read_monitor_payload(r, monitor);
  r.expect_done();
  snapshot_restores().inc();
}

void restore_snapshot(std::istream& is, PrismSession& session) {
  const std::string raw = slurp(is);
  restore_snapshot(std::as_bytes(std::span(raw.data(), raw.size())), session);
}

void restore_snapshot(std::istream& is, OnlineMonitor& monitor) {
  const std::string raw = slurp(is);
  restore_snapshot(std::as_bytes(std::span(raw.data(), raw.size())), monitor);
}

void save_snapshot_file(const std::string& path, const OnlineMonitor& monitor) {
  std::ofstream os(path, std::ios::binary);
  if (!os) fail("cannot open for write: " + path);
  save_snapshot(os, monitor);
}

void restore_snapshot_file(const std::string& path, OnlineMonitor& monitor) {
  std::ifstream is(path, std::ios::binary);
  if (!is) fail("cannot open for read: " + path);
  restore_snapshot(is, monitor);
}

}  // namespace llmprism
