#include "llmprism/export/perfetto.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <memory>
#include <string>
#include <unordered_map>

#include "llmprism/common/json.hpp"
#include "llmprism/core/attribution.hpp"
#include "emit.hpp"

namespace llmprism {

namespace {

using detail::write_double;
using detail::write_int;
using detail::write_us;

/// Chrome-trace slice name for a timeline event kind. "dp" reads poorly on
/// a track full of abbreviations; the rest match to_string().
[[nodiscard]] std::string_view slice_name(TimelineEventKind k) {
  return k == TimelineEventKind::kDp ? "dp_sync" : to_string(k);
}

constexpr std::size_t kNumEventKinds =
    static_cast<std::size_t>(TimelineEventKind::kCompute) + 1;

/// Bin width of the per-job comm-bytes/s counter track.
constexpr DurationNs kCounterBucket = 100 * kMillisecond;

/// write() formats into one buffer of this size and hands the stream a
/// full buffer at a time.
constexpr std::size_t kStagingBytes = 256 * 1024;

/// Room reserved per formatted slice. The longest, an event slice with a
/// peer, is 165 bytes: name and head with two 20-digit ids, two 21-byte
/// timestamps, and the peer argument.
constexpr std::size_t kMaxSliceBytes = 256;

/// The fields after the name: ,"ph":"<ph>","pid":P,"tid":T
void add_ids(std::string& out, char ph, std::uint64_t pid, std::uint64_t tid) {
  out += ",\"ph\":\"";
  out += ph;
  out += "\",\"pid\":";
  write_int(out, pid);
  out += ",\"tid\":";
  write_int(out, tid);
}

void add_ts(std::string& out, TimeNs ts) {
  out += ",\"ts\":";
  write_us(out, ts);
}

/// Grows `v` to hold `n` more elements in one allocation: exactly on first
/// use, so one window of one job costs no regrowth copies or spare pages,
/// and at least doubling after, so a long run of windows does not re-copy
/// the log every time.
template <typename T>
void reserve_more(std::vector<T>& v, std::size_t n) {
  const std::size_t want = v.size() + n;
  if (want > v.capacity()) v.reserve(std::max(want, 2 * v.capacity()));
}

[[nodiscard]] char* put(char* out, std::string_view s) {
  std::memcpy(out, s.data(), s.size());
  return out + s.size();
}

/// write()'s staging buffer: callers format at `cursor` after make_room(),
/// and each full buffer goes to the stream in one os.write.
struct Staging {
  explicit Staging(std::ostream& out)
      : os(out),
        buf(std::make_unique_for_overwrite<char[]>(kStagingBytes)),
        end(buf.get() + kStagingBytes),
        cursor(buf.get()) {}

  /// Ensures `n` <= kStagingBytes free bytes at `cursor`, writing the
  /// buffer out if needed. False once the stream has failed.
  [[nodiscard]] bool make_room(std::size_t n) {
    return static_cast<std::size_t>(end - cursor) >= n || flush();
  }

  /// Copies `s` in, a buffer-full at a time. False once the stream has
  /// failed.
  [[nodiscard]] bool append(std::string_view s) {
    while (!s.empty()) {
      if (!make_room(1)) return false;
      const std::size_t n =
          std::min(s.size(), static_cast<std::size_t>(end - cursor));
      cursor = put(cursor, s.substr(0, n));
      s.remove_prefix(n);
    }
    return true;
  }

  /// Writes the buffered bytes out. False once the stream has failed.
  bool flush() {
    os.write(buf.get(), cursor - buf.get());
    cursor = buf.get();
    return static_cast<bool>(os);
  }

  std::ostream& os;
  const std::unique_ptr<char[]> buf;
  char* const end;
  char* cursor;
};

/// Finds the reconstructed step an alert points at. The GPU -> timeline
/// index is built on the first lookup, so a job without alerts never pays
/// for it; it keeps the first timeline of a GPU, as a front-to-back scan
/// would.
class StepLookup {
 public:
  explicit StepLookup(const JobAnalysis& job) : job_(job) {}

  /// Step `step_index` on `gpu`'s timeline, or nullptr.
  [[nodiscard]] const ReconstructedStep* find(GpuId gpu,
                                              std::size_t step_index) {
    if (timelines_.empty()) {
      for (const GpuTimeline& tl : job_.timelines) {
        timelines_.emplace(tl.gpu, &tl);
      }
    }
    const auto it = timelines_.find(gpu);
    if (it == timelines_.end()) return nullptr;
    for (const ReconstructedStep& s : it->second->steps) {
      if (s.index == step_index) return &s;
    }
    return nullptr;
  }

 private:
  const JobAnalysis& job_;
  std::unordered_map<GpuId, const GpuTimeline*> timelines_;
};

}  // namespace

PerfettoExporter::PerfettoExporter(PerfettoOptions options)
    : options_(std::move(options)) {}

std::string& PerfettoExporter::next_event() {
  if (num_events_++ != 0) text_ += ',';
  text_ += "\n{\"name\":";
  return text_;
}

std::string& PerfettoExporter::begin_event(std::string_view name, char ph,
                                           std::uint64_t pid,
                                           std::uint64_t tid) {
  std::string& out = next_event();
  append_json_string(out, name);
  add_ids(out, ph, pid, tid);
  return out;
}

void PerfettoExporter::add_window(const WindowExportView& view) {
  if (view.report == nullptr) return;
  for (std::size_t j = 0; j < view.report->jobs.size(); ++j) {
    add_job_window(view, j);
  }
  add_fabric_window(view);
}

void PerfettoExporter::add_job_window(const WindowExportView& view,
                                      std::size_t j) {
  const JobAnalysis& job = view.report->jobs[j];
  const std::uint64_t sid = stable_job_id(view, j);
  // pid 0 is reserved by some viewers and pid 1 is the fabric process.
  const std::uint64_t pid = sid + 2;

  if (named_processes_.insert(pid).second) {
    std::string& e = begin_event("process_name", 'M', pid, 0);
    e += ",\"args\":{\"name\":";
    if (const auto it = options_.job_names.find(sid);
        it != options_.job_names.end()) {
      append_json_string(e, it->second);
    } else {
      // The generated name has nothing to escape.
      e += "\"job ";
      write_int(e, sid);
      e += " (tp=";
      write_int(e, job.inferred.tp);
      e += ",dp=";
      write_int(e, job.inferred.dp);
      e += ",pp=";
      write_int(e, job.inferred.pp);
      e += ")\"";
    }
    e += "}}";

    std::string& o = begin_event("process_sort_index", 'M', pid, 0);
    o += ",\"args\":{\"sort_index\":";
    write_int(o, pid);
    o += "}}";
  }

  std::size_t num_steps = 0;
  std::size_t num_timeline_events = 0;
  for (const GpuTimeline& tl : job.timelines) {
    num_steps += tl.steps.size();
    num_timeline_events += tl.events.size();
  }
  reserve_more(steps_, num_steps);
  reserve_more(events_, num_timeline_events);
  num_events_ += num_steps + num_timeline_events;

  // Per-rank tracks: tid = the cluster-wide gpu id (stable across windows),
  // displayed in rank order via thread_sort_index.
  for (const GpuTimeline& tl : job.timelines) {
    const std::uint64_t tid = tl.gpu.value();
    if (named_threads_.insert({pid, tid}).second) {
      const auto& gpus = job.job.gpus;
      const auto pos = std::lower_bound(gpus.begin(), gpus.end(), tl.gpu);
      const std::size_t rank =
          static_cast<std::size_t>(pos - gpus.begin());
      std::string& e = begin_event("thread_name", 'M', pid, tid);
      e += ",\"args\":{\"name\":\"rank ";
      write_int(e, rank);
      e += " (gpu ";
      write_int(e, tid);
      e += ")\"}}";

      std::string& o = begin_event("thread_sort_index", 'M', pid, tid);
      o += ",\"args\":{\"sort_index\":";
      write_int(o, rank);
      o += "}}";
    }

    // The track's slices follow its metadata; write() formats them there.
    for (const ReconstructedStep& st : tl.steps) {
      steps_.push_back({st.begin, st.end - st.begin, st.index});
    }
    for (const TimelineEvent& ev : tl.events) {
      events_.push_back(
          {ev.start, ev.end - ev.start, ev.peer.value(), ev.kind});
    }
    tracks_.push_back(
        {text_.size(), pid, tid, steps_.size(), events_.size()});
  }

  // k-sigma step alerts: thread-scoped instants at the flagged step's end.
  StepLookup steps(job);
  for (const StepAlert& a : job.step_alerts) {
    TimeNs ts = view.window.begin;
    if (const ReconstructedStep* s = steps.find(a.gpu, a.step_index)) {
      ts = s->end;
    }
    std::string& e = begin_event("step alert", 'i', pid, a.gpu.value());
    add_ts(e, ts);
    e += ",\"s\":\"t\",\"args\":{\"step\":";
    write_int(e, a.step_index);
    e += ",\"duration_s\":";
    write_double(e, a.duration_s);
    e += ",\"mean_s\":";
    write_double(e, a.mean_s);
    e += ",\"threshold_s\":";
    write_double(e, a.threshold_s);
    e += "}}";
  }

  // Cross-group alerts: process-scoped instants at the slow collective's
  // end (the dp_end of the flagged step on the group's first member).
  for (const GroupAlert& g : job.group_alerts) {
    TimeNs ts = view.window.begin;
    const auto& groups = job.comm_types.dp_components;
    if (g.group_index < groups.size() && !groups[g.group_index].empty()) {
      if (const ReconstructedStep* s =
              steps.find(groups[g.group_index].front(), g.step_index)) {
        ts = s->dp_end;
      }
    }
    std::string& e = begin_event("dp group alert", 'i', pid, 0);
    add_ts(e, ts);
    e += ",\"s\":\"p\",\"args\":{\"group\":";
    write_int(e, g.group_index);
    e += ",\"step\":";
    write_int(e, g.step_index);
    e += ",\"duration_s\":";
    write_double(e, g.duration_s);
    e += ",\"mean_s\":";
    write_double(e, g.mean_s);
    e += ",\"threshold_s\":";
    write_double(e, g.threshold_s);
    e += "}}";
  }

  // Per-job comm-bandwidth counter track: bytes/s per comm type, binned at
  // kCounterBucket, bins aligned to the window begin. std::map
  // keeps bin order (and hence output) deterministic. Reads the start,
  // endpoint and byte columns only; no FlowRecord is materialized.
  if (!job.trace.empty()) {
    const auto types = job.comm_types.types();
    const FlowView flows = job.trace.view();
    const TimeNs origin = view.window.begin;
    constexpr DurationNs bucket = kCounterBucket;
    struct BinBytes {
      std::uint64_t dp = 0;
      std::uint64_t pp = 0;
    };
    std::map<TimeNs, BinBytes> bins;
    // Consecutive flows mostly share a bin (the columns are time-sorted),
    // so the last bin is reused without a map lookup.
    TimeNs last_begin = 0;
    BinBytes* last = nullptr;
    for (std::size_t i = 0; i < flows.size(); ++i) {
      const TimeNs rel = flows.start_ns[i] - origin;
      const TimeNs bin =
          rel >= 0 ? rel / bucket : -((-rel + bucket - 1) / bucket);
      const TimeNs begin = origin + bin * bucket;
      if (last == nullptr || begin != last_begin) {
        last = &bins[begin];
        last_begin = begin;
      }
      const auto it = types.find(flows.pair(i));
      if (it != types.end() && it->second == CommType::kDP) {
        last->dp += flows.bytes[i];
      } else {
        last->pp += flows.bytes[i];
      }
    }
    const double per_second =
        static_cast<double>(kSecond) / static_cast<double>(bucket);
    for (const auto& [begin, b] : bins) {
      std::string& e = begin_event("comm bytes/s", 'C', pid, 0);
      add_ts(e, begin);
      e += ",\"args\":{\"dp\":";
      write_double(e, static_cast<double>(b.dp) * per_second);
      e += ",\"pp\":";
      write_double(e, static_cast<double>(b.pp) * per_second);
      e += "}}";
    }
  }
}

void PerfettoExporter::add_fabric_window(const WindowExportView& view) {
  const PrismReport& r = *view.report;
  const bool any = !r.switch_bandwidth_gbps.empty() ||
                   !r.switch_bandwidth_alerts.empty() ||
                   !r.switch_concurrency_alerts.empty();
  if (!any) return;
  constexpr std::uint64_t kFabricPid = 1;

  if (named_processes_.insert(kFabricPid).second) {
    begin_event("process_name", 'M', kFabricPid, 0) +=
        ",\"args\":{\"name\":\"fabric\"}}";
    begin_event("process_sort_index", 'M', kFabricPid, 0) +=
        ",\"args\":{\"sort_index\":1}}";
  }

  // One track per switch; tid 0 stays free for the counter samples.
  const auto name_switch = [&](SwitchId sw) -> std::uint64_t {
    const std::uint64_t tid = static_cast<std::uint64_t>(sw.value()) + 1;
    if (named_threads_.insert({kFabricPid, tid}).second) {
      std::string& e = begin_event("thread_name", 'M', kFabricPid, tid);
      e += ",\"args\":{\"name\":\"switch ";
      write_int(e, sw.value());
      e += "\"}}";
    }
    return tid;
  };

  for (const SwitchBandwidthAlert& a : r.switch_bandwidth_alerts) {
    const std::uint64_t tid = name_switch(a.switch_id);
    std::string& e =
        begin_event("switch bandwidth alert", 'i', kFabricPid, tid);
    add_ts(e, view.window.begin);
    e += ",\"s\":\"g\",\"args\":{\"bandwidth_gbps\":";
    write_double(e, a.bandwidth_gbps);
    e += ",\"mean_gbps\":";
    write_double(e, a.mean_gbps);
    e += ",\"threshold_gbps\":";
    write_double(e, a.threshold_gbps);
    e += "}}";
  }

  for (const SwitchConcurrencyAlert& a : r.switch_concurrency_alerts) {
    const std::uint64_t tid = name_switch(a.switch_id);
    std::string& e =
        begin_event("switch concurrency alert", 'i', kFabricPid, tid);
    add_ts(e, a.at);
    e += ",\"s\":\"g\",\"args\":{\"concurrent_flows\":";
    write_int(e, a.concurrent_flows);
    e += ",\"limit\":";
    write_int(e, a.limit);
    e += "}}";
  }

  // Per-switch average DP bandwidth, one counter sample per window.
  for (const auto& [sw, gbps] : r.switch_bandwidth_gbps) {
    name_switch(sw);
    // "sw<id> dp gbps" has nothing to escape.
    std::string& e = next_event();
    e += "\"sw";
    write_int(e, sw.value());
    e += " dp gbps\"";
    add_ids(e, 'C', kFabricPid, 0);
    add_ts(e, view.window.begin);
    e += ",\"args\":{\"gbps\":";
    write_double(e, gbps);
    e += "}}";
  }
}

void PerfettoExporter::write(std::ostream& os) const {
  Staging out(os);
  if (!out.append(
          "{\"schema_version\":1,\"displayTimeUnit\":\"ms\",\"traceEvents\":[")) {
    return;
  }
  std::size_t text_at = 0;
  std::size_t step = 0;
  std::size_t event = 0;
  for (const Track& track : tracks_) {
    if (!out.append(std::string_view(text_).substr(
            text_at, track.text_at - text_at))) {
      return;
    }
    text_at = track.text_at;

    // Every slice on this track starts with the same bytes up to its ts
    // value: `,\n{"name":` (a slice is never the document's first event:
    // its job's process_name precedes it), the name, the track's
    // ph/pid/tid fields and `,"ts":`. Formatted once per track, and once
    // per event kind.
    std::string ids;
    add_ids(ids, 'X', track.pid, track.tid);
    ids += ",\"ts\":";
    std::array<std::string, kNumEventKinds> heads;
    for (std::size_t k = 0; k < kNumEventKinds; ++k) {
      heads[k] = ",\n{\"name\":";
      append_json_string(heads[k],
                         slice_name(static_cast<TimelineEventKind>(k)));
      heads[k] += ids;
    }

    for (; step < track.steps_end; ++step) {
      if (!out.make_room(kMaxSliceBytes)) return;
      const StepSlice& s = steps_[step];
      // "step <k>" has nothing to escape.
      char* p = put(out.cursor, ",\n{\"name\":\"step ");
      p = write_int(p, s.index);
      *p++ = '"';
      p = put(p, ids);
      p = write_us(p, s.ts);
      p = put(p, ",\"dur\":");
      p = write_us(p, s.dur);
      *p++ = '}';
      out.cursor = p;
    }

    for (; event < track.events_end; ++event) {
      if (!out.make_room(kMaxSliceBytes)) return;
      const EventSlice& e = events_[event];
      char* p = put(out.cursor, heads[static_cast<std::size_t>(e.kind)]);
      p = write_us(p, e.ts);
      p = put(p, ",\"dur\":");
      p = write_us(p, e.dur);
      if (e.kind != TimelineEventKind::kCompute && GpuId(e.peer).valid()) {
        p = put(p, ",\"args\":{\"peer\":");
        p = write_int(p, e.peer);
        *p++ = '}';
      }
      *p++ = '}';
      out.cursor = p;
    }
  }
  if (out.append(std::string_view(text_).substr(text_at)) &&
      out.append("\n]}\n")) {
    out.flush();
  }
}

}  // namespace llmprism
