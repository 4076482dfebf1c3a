// LFT — the LLMPrism binary flow-trace format.
//
// CSV is the interchange format a collector exports; LFT is the format the
// analyzer wants to *load*: little-endian, columnar (one section per
// FlowRecord field, Perfetto/Arrow style), with switch paths in a CSR
// layout (offsets + flat hop ids) and a "sorted" header flag so a
// time-sorted file loads born-sorted with zero re-sorts. The file is
// self-describing (magic + version + per-section byte sizes) and ends in an
// XXH64 checksum of everything before it, so truncation and bit rot are
// detected before any record is trusted.
//
// File layout (all integers little-endian; every section zero-padded to an
// 8-byte boundary so a page-aligned mapping yields aligned columns):
//
//   Header (32 bytes)
//     0   char[4]  magic "LFT1"
//     4   u16      version          (currently 1)
//     6   u16      flags            (bit 0: rows sorted by FlowStartTimeLess)
//     8   u64      num_flows
//     16  u64      num_switch_ids   (total hop entries across all flows)
//     24  u32      section_count    (currently 7)
//     28  u32      reserved         (0)
//   Section table: section_count x u64 unpadded byte sizes
//   Sections, in order:
//     0  start_ns        num_flows x i64
//     1  src             num_flows x u32
//     2  dst             num_flows x u32
//     3  bytes           num_flows x u64
//     4  duration_ns     num_flows x i64
//     5  switch_offsets  (num_flows + 1) x u64   (CSR row offsets)
//     6  switch_ids      num_switch_ids x u32    (CSR column data)
//   Trailer: u64 XXH64 of every preceding byte (seed 0)
//
// Two readers decode through the one byte codec (common/byte_codec.hpp:
// its cursor, the shared magic/version/flags head and the trailing-XXH64
// seal) and one column check (FlowView::column_error): read_lft_buffer()
// copies each section of an in-memory image out into FlowColumns (the
// daemon's chunk path; read_lft() wraps it for a stream); MappedFlowTrace
// mmaps a file and views the columns as typed spans straight into the
// mapping, materializing nothing until asked. What stays LFT's own is the
// section table and the 8-byte section padding. Every malformed input —
// truncation, bad magic/version/flags, section-size mismatch or overflow,
// checksum mismatch, broken CSR offsets, a false sorted flag — fails with
// a descriptive std::runtime_error starting "lft: ", identically through
// every reader,
// never undefined behaviour.
#pragma once

#include <cstddef>
#include <cstdint>
#include <istream>
#include <memory>
#include <ostream>
#include <span>
#include <string>
#include <string_view>

#include "llmprism/flow/view.hpp"

namespace llmprism {

namespace lft {

inline constexpr char kMagic[4] = {'L', 'F', 'T', '1'};
inline constexpr std::uint16_t kVersion = 1;
/// Rows are in FlowStartTimeLess order; a reader may trust binary-search
/// invariants without re-sorting.
inline constexpr std::uint16_t kFlagSorted = 0x1;
inline constexpr std::uint32_t kSectionCount = 7;
inline constexpr std::size_t kHeaderSize = 32;

}  // namespace lft

/// Serialize `flows` as LFT. The sorted flag records whether the rows are
/// in FlowStartTimeLess order (verified when `flows.sorted` is unknown).
void write_lft(std::ostream& os, const FlowView& flows);

/// Decode a complete in-memory LFT image (e.g. one framed daemon chunk)
/// into columns, preserving file row order; `sorted` is the validated
/// header flag, so a file written from sorted flows loads born-sorted
/// (zero physical sorts). The image may start at any address: each
/// section is copied out, never viewed in place. Throws
/// std::runtime_error on any malformed input.
[[nodiscard]] FlowColumns read_lft_buffer(std::span<const std::byte> image);

/// read_lft_buffer over a whole stream.
[[nodiscard]] FlowColumns read_lft(std::istream& is);

/// Write `flows` to `path`; throws std::runtime_error if the file cannot
/// be opened. Files are read back through MappedFlowTrace.
void write_lft_file(const std::string& path, const FlowView& flows);

/// True if `prefix` (the first bytes of a file) starts with the LFT magic.
/// Used for format auto-detection; needs at least 4 bytes to say yes.
[[nodiscard]] bool is_lft(std::string_view prefix);
/// Magic check against a file on disk; false if unreadable or too short.
[[nodiscard]] bool is_lft_file(const std::string& path);

/// Zero-copy LFT reader: maps the file (mmap on POSIX, a heap read
/// elsewhere), validates header/sections/checksum once in the constructor,
/// then exposes the columns as typed spans straight into the mapping.
///
/// Ownership/lifetime: the mapping lives exactly as long as the
/// MappedFlowTrace (RAII munmap; move-only). The spans of view() point
/// into the mapping and are invalidated by destruction or move — callers
/// that outlive the reader must copy the columns out via to_trace(). The mapping is private (MAP_PRIVATE) and read-only; the
/// file may be unlinked while mapped (POSIX keeps the pages alive).
class MappedFlowTrace {
 public:
  /// Map and validate `path`. Throws std::runtime_error if the file cannot
  /// be opened/mapped or fails any LFT validation.
  explicit MappedFlowTrace(const std::string& path);
  ~MappedFlowTrace();

  MappedFlowTrace(MappedFlowTrace&& other) noexcept;
  MappedFlowTrace& operator=(MappedFlowTrace&& other) noexcept;
  MappedFlowTrace(const MappedFlowTrace&) = delete;
  MappedFlowTrace& operator=(const MappedFlowTrace&) = delete;

  [[nodiscard]] std::size_t size() const { return view_.size(); }
  [[nodiscard]] bool empty() const { return view_.empty(); }
  /// The header's sorted flag. Validation cross-checks it against the
  /// start_ns column, so true really means FlowStartTimeLess order.
  [[nodiscard]] bool sorted() const { return view_.sorted; }
  /// Total mapped bytes (the whole file).
  [[nodiscard]] std::size_t byte_size() const { return map_size_; }

  /// The columns as typed spans straight into the mapping — the zero-copy
  /// input type of the analysis plane (see the lifetime note above).
  [[nodiscard]] FlowView view() const { return view_; }

  /// Materialize one record (FlowView::record). Bounds are the caller's
  /// contract (asserted in debug builds only — no exception branch in
  /// per-record paths).
  [[nodiscard]] FlowRecord record(std::size_t i) const;
  /// Copy the columns out of the mapping. Preserves file row order;
  /// born-sorted (no later physical sort) when the sorted flag is set.
  [[nodiscard]] FlowColumns to_trace() const;

 private:
  void reset() noexcept;

  const std::byte* base_ = nullptr;  ///< mapping base (page/heap aligned)
  std::size_t map_size_ = 0;
  bool mmapped_ = false;                     ///< true: munmap on destroy
  std::unique_ptr<std::byte[]> heap_;        ///< non-POSIX fallback storage
  FlowView view_;                            ///< validated columns
};

}  // namespace llmprism
