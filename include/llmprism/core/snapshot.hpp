// Warm-state snapshot / restore — the daemon's restart story.
//
// A long-running prismd carries hours of warm analysis state: comm-type
// priors, cross-window EWMA step baselines, held timeline tails, the
// monitor's reorder buffer and stable job-id map.
// Losing it on restart means every job runs cold again (and stable ids
// churn). save_snapshot serializes a PrismSession — or a whole
// OnlineMonitor, session included — to a versioned binary blob;
// restore_snapshot loads it back into an object constructed with the SAME
// configuration and topology, after which subsequent ingest produces
// reports byte-identical to an uninterrupted session (asserted in
// tests/test_snapshot.cpp and test_session_equivalence.cpp).
//
// Blob layout (little-endian):
//   0  char[4]  magic "LPS1"
//   4  u16      version        (currently 2; version 1 blobs are refused)
//   6  u16      kind           (1 = session, 2 = monitor)
//   8  payload  (kind-specific; maps serialized in sorted key order, so
//               the same state always produces the same bytes)
//   end-8  u64  XXH64 of every preceding byte (seed 0)
//
// The blob is written and read through the shared byte codec
// (common/byte_codec.hpp): its cursor, head (the kind is the tag) and
// seal, as LFT is; the reorder buffer's columns pass LFT's column check
// (FlowView::column_error). LPS1's own rules are the kind and the config
// fingerprint. Any truncated, bit-flipped, wrong-magic/version/kind, or
// config-mismatched blob fails with a std::runtime_error starting
// "snapshot: ", and the target object is left UNCHANGED (the payload is
// parsed fully before any state is committed).
#pragma once

#include <cstddef>
#include <cstdint>
#include <istream>
#include <ostream>
#include <span>
#include <string>

namespace llmprism {

class PrismSession;
class OnlineMonitor;

namespace snapshot {

inline constexpr char kMagic[4] = {'L', 'P', 'S', '1'};
inline constexpr std::uint16_t kVersion = 2;
inline constexpr std::uint16_t kKindSession = 1;
inline constexpr std::uint16_t kKindMonitor = 2;
inline constexpr std::size_t kHeaderSize = 8;

}  // namespace snapshot

/// Serialize the session's carried warm state (comm-type priors, timeline
/// tails, EWMA baselines, counters).
void save_snapshot(std::ostream& os, const PrismSession& session);
/// Serialize a monitor — reorder buffer, window clock, stable-id map,
/// lifetime stats, and (with carry_state) the embedded session.
void save_snapshot(std::ostream& os, const OnlineMonitor& monitor);

/// Restore a blob into a session/monitor constructed with the same
/// configuration (and, for the monitor, the same topology). Throws
/// std::runtime_error on any malformed blob or configuration mismatch;
/// the target is unchanged on failure.
void restore_snapshot(std::span<const std::byte> blob, PrismSession& session);
void restore_snapshot(std::span<const std::byte> blob, OnlineMonitor& monitor);
/// Stream variants: the stream is consumed to EOF (one blob per stream).
void restore_snapshot(std::istream& is, PrismSession& session);
void restore_snapshot(std::istream& is, OnlineMonitor& monitor);

/// File wrappers; throw std::runtime_error when the file cannot be
/// opened/written (and restore on any corruption).
void save_snapshot_file(const std::string& path, const OnlineMonitor& monitor);
void restore_snapshot_file(const std::string& path, OnlineMonitor& monitor);

}  // namespace llmprism
