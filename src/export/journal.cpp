#include "llmprism/export/journal.hpp"

#include <algorithm>
#include <concepts>
#include <vector>

#include "llmprism/common/byte_codec.hpp"
#include "llmprism/common/hash.hpp"
#include "llmprism/core/attribution.hpp"
#include "emit.hpp"

namespace llmprism {

namespace {

using detail::write_double;
using detail::write_int;

/// Cluster-level incidents (degraded switches) are owned by no tenant.
constexpr std::uint64_t kClusterJob = ~0ULL;

/// Stable content-derived id: xxhash64 over the packed identity tuple,
/// formatted as 16 lowercase hex digits. The layout is fixed (8-byte job,
/// 1-byte kind, 8-byte identity, little-endian) so ids survive restarts
/// and are comparable across deployments.
[[nodiscard]] std::string derive_id(std::uint64_t job, std::uint8_t kind,
                                    std::uint64_t identity) {
  codec::ByteWriter w;
  w.u64(job);
  w.u8(kind);
  w.u64(identity);
  return codec::hex64(xxhash64(w.bytes().data(), w.bytes().size())).substr(2);
}

/// Append `,"<key>":<v>` for an integer or a double field.
void add_field(std::string& line, std::string_view key, std::integral auto v) {
  line += ",\"";
  line += key;
  line += "\":";
  write_int(line, v);
}

void add_field(std::string& line, std::string_view key, double v) {
  line += ",\"";
  line += key;
  line += "\":";
  write_double(line, v);
}

/// Start an entry line: {"event":"<event>","id":"<id>"
void begin_entry(std::string& line, std::string_view event,
                 std::string_view id) {
  line += "{\"event\":\"";
  line += event;
  line += "\",\"id\":\"";
  line += id;
  line += '"';
}

void add_origin(std::string& line, std::uint8_t kind, std::uint64_t identity) {
  line += ",\"kind\":\"";
  line += to_string(static_cast<CulpritKind>(kind));
  line += "\",\"origin\":{";
  switch (static_cast<CulpritKind>(kind)) {
    case CulpritKind::kRank:
      line += "\"gpu\":";
      write_int(line, identity);
      break;
    case CulpritKind::kDpGroup:
      line += "\"dp_group\":";
      write_int(line, identity);
      break;
    case CulpritKind::kSwitch:
      line += "\"switch\":";
      write_int(line, identity);
      break;
  }
  line += '}';
}

}  // namespace

std::string& IncidentJournal::next_line() {
  lines_ += '\n';
  ++num_events_;
  return lines_;
}

void IncidentJournal::emit_resolve(const Key& key, const OpenState& st,
                                   std::size_t at_window, TimeNs at_time) {
  (void)key;
  std::string& out = next_line();
  begin_entry(out, "resolve", st.id);
  add_field(out, "window", at_window);
  add_field(out, "time_ns", at_time);
  add_field(out, "first_window", st.first_window);
  add_field(out, "last_window", st.last_window);
  add_field(out, "windows_active", st.windows_active);
  add_field(out, "confidence_min", st.confidence_min);
  add_field(out, "confidence_max", st.confidence_max);
  add_field(out, "confidence_last", st.confidence_last);
  out += '}';
}

void IncidentJournal::add_window(const WindowExportView& view) {
  if (view.report == nullptr) return;
  const std::size_t w = window_index_++;
  last_window_end_ = view.window.end;

  // Deduplicate this window's incidents by identity: the same fault can
  // surface as several step-range incidents in one window.
  std::map<Key, WindowAgg> seen;
  for (const AttributedIncident& inc : view.report->attribution.incidents) {
    if (inc.culprits.empty()) continue;
    const Culprit& origin = inc.culprits.front();
    Key key;
    if (inc.job.valid()) {
      key.job = kClusterJob;  // fallback when the owning job is not found
      for (std::size_t j = 0; j < view.report->jobs.size(); ++j) {
        if (view.report->jobs[j].id == inc.job) {
          key.job = stable_job_id(view, j);
          break;
        }
      }
    } else {
      key.job = kClusterJob;
    }
    key.kind = static_cast<std::uint8_t>(origin.kind);
    switch (origin.kind) {
      case CulpritKind::kRank:
        key.identity = origin.gpu.value();
        break;
      case CulpritKind::kDpGroup:
        key.identity = origin.dp_group_index;
        break;
      case CulpritKind::kSwitch:
        key.identity = origin.switch_id.value();
        break;
    }

    const auto [it, fresh] = seen.try_emplace(key);
    WindowAgg& agg = it->second;
    if (fresh) {
      agg.step_begin = inc.step_begin;
      agg.step_end = inc.step_end;
      agg.confidence = inc.confidence;
      agg.score = origin.score;
      agg.victims = inc.victims.size();
      agg.culprits = inc.culprits.size();
    } else {
      agg.step_begin = std::min(agg.step_begin, inc.step_begin);
      agg.step_end = std::max(agg.step_end, inc.step_end);
      agg.confidence = std::max(agg.confidence, inc.confidence);
      agg.score = std::max(agg.score, origin.score);
      agg.victims += inc.victims.size();
      agg.culprits = std::max<std::uint64_t>(agg.culprits,
                                             inc.culprits.size());
    }
  }

  // Resolve incidents this window no longer reports (before its opens,
  // so a re-appearing fault reads resolve -> open, a new lifecycle).
  std::vector<Key> resolved;
  for (const auto& [key, st] : open_) {
    if (seen.contains(key)) continue;
    emit_resolve(key, st, w, view.window.begin);
    resolved.push_back(key);
  }
  for (const Key& key : resolved) open_.erase(key);

  for (const auto& [key, agg] : seen) {
    auto it = open_.find(key);
    if (it == open_.end()) {
      OpenState st;
      st.id = derive_id(key.job, key.kind, key.identity);
      st.first_window = w;
      st.last_window = w;
      st.windows_active = 1;
      st.last_seen_end = view.window.end;
      st.confidence_last = agg.confidence;
      st.confidence_min = agg.confidence;
      st.confidence_max = agg.confidence;
      st.victims_last = agg.victims;

      std::string& out = next_line();
      begin_entry(out, "open", st.id);
      add_field(out, "window", w);
      add_field(out, "time_ns", view.window.begin);
      if (key.job == kClusterJob) {
        out += ",\"job\":null";
      } else {
        add_field(out, "job", key.job);
      }
      add_origin(out, key.kind, key.identity);
      add_field(out, "score", agg.score);
      add_field(out, "step_begin", agg.step_begin);
      add_field(out, "step_end", agg.step_end);
      add_field(out, "confidence", agg.confidence);
      add_field(out, "victims", agg.victims);
      add_field(out, "culprits", agg.culprits);
      out += '}';

      open_.emplace(key, std::move(st));
    } else {
      OpenState& st = it->second;
      const double conf_delta = agg.confidence - st.confidence_last;
      const auto victims_delta =
          static_cast<std::int64_t>(agg.victims) -
          static_cast<std::int64_t>(st.victims_last);
      st.last_window = w;
      ++st.windows_active;
      st.last_seen_end = view.window.end;
      st.confidence_last = agg.confidence;
      st.confidence_min = std::min(st.confidence_min, agg.confidence);
      st.confidence_max = std::max(st.confidence_max, agg.confidence);
      st.victims_last = agg.victims;

      std::string& out = next_line();
      begin_entry(out, "update", st.id);
      add_field(out, "window", w);
      add_field(out, "time_ns", view.window.begin);
      add_field(out, "confidence", agg.confidence);
      add_field(out, "confidence_delta", conf_delta);
      add_field(out, "victims", agg.victims);
      add_field(out, "victims_delta", victims_delta);
      add_field(out, "windows_active", st.windows_active);
      add_field(out, "step_begin", agg.step_begin);
      add_field(out, "step_end", agg.step_end);
      out += '}';
    }
  }
}

void IncidentJournal::finish() {
  if (finished_) return;
  finished_ = true;
  for (const auto& [key, st] : open_) {
    emit_resolve(key, st, window_index_, last_window_end_);
  }
  open_.clear();
}

void IncidentJournal::write_jsonl(std::ostream& os) const {
  os << "{\"schema_version\":1,\"stream\":\"incident_journal\"}";
  os << lines_;
  os << '\n';
}

}  // namespace llmprism
