// Incident lifecycle journal: attribution incidents correlated across
// windows into open -> update -> resolve events.
//
// A PrismReport's incident list is amnesiac — the same straggler produces
// a fresh AttributedIncident every window, and nothing says whether a
// fault is new, ongoing, or gone. The journal keys each incident by its
// *identity* (owning job's stable monitor id, culprit kind, and the origin
// vertex — rank gpu / DP group index / switch id) and derives a stable
// 16-hex id from xxhash64 over that key, so the same fault maps to the
// same id in every window and across restarts:
//  * first window a key appears   -> "open"   (origin, step range,
//    confidence, victim count),
//  * key seen again               -> "update" (confidence / victim deltas,
//    windows active),
//  * key absent from a window (or finish()) -> "resolve" (first/last
//    window, confidence min/max/last trajectory).
// Incidents sharing a key within one window are deduplicated (step ranges
// merged, victims summed, max confidence) before lifecycle matching.
//
// Output is JSONL behind a schema_version header line; every line is an
// independently parseable JSON object. Deterministic: std::map-ordered
// keys, no wall clock — bit-identical across thread counts and warm/cold
// sessions.
#pragma once

#include <cstdint>
#include <map>
#include <ostream>
#include <string>

#include "llmprism/export/view.hpp"

namespace llmprism {

class IncidentJournal {
 public:
  /// Append one analyzed window (in time order).
  void add_window(const WindowExportView& view);

  /// End of feed: resolve every still-open incident. Idempotent.
  void finish();

  /// Write the JSONL stream: {"schema_version":1,"stream":
  /// "incident_journal"} header, then one event object per line.
  void write_jsonl(std::ostream& os) const;

  [[nodiscard]] std::size_t num_events() const { return num_events_; }
  [[nodiscard]] std::size_t num_open() const { return open_.size(); }

 private:
  /// Identity of a fault across windows. Orders the per-window iteration,
  /// so event emission is deterministic.
  struct Key {
    std::uint64_t job = 0;  ///< stable job id; ~0 for cluster-level
    std::uint8_t kind = 0;  ///< CulpritKind
    std::uint64_t identity = 0;  ///< gpu / dp_group_index / switch id

    friend auto operator<=>(const Key&, const Key&) = default;
  };

  /// One window's deduplicated view of a key.
  struct WindowAgg {
    std::size_t step_begin = 0;
    std::size_t step_end = 0;
    double confidence = 0;
    double score = 0;            ///< top culprit's blame score
    std::uint64_t victims = 0;
    std::uint64_t culprits = 0;
  };

  /// Lifecycle state of an open incident.
  struct OpenState {
    std::string id;              ///< 16-hex stable id
    std::size_t first_window = 0;
    std::size_t last_window = 0; ///< last window the key was seen in
    std::size_t windows_active = 0;
    TimeNs last_seen_end = 0;    ///< end of the last window seen in
    double confidence_last = 0;
    double confidence_min = 0;
    double confidence_max = 0;
    std::uint64_t victims_last = 0;
  };

  void emit_resolve(const Key& key, const OpenState& st,
                    std::size_t at_window, TimeNs at_time);
  std::string& next_line();

  std::size_t window_index_ = 0;  ///< windows ingested so far
  TimeNs last_window_end_ = 0;
  std::map<Key, OpenState> open_;
  std::string lines_;             ///< serialized events, '\n'-separated
  std::size_t num_events_ = 0;
  bool finished_ = false;
};

}  // namespace llmprism
