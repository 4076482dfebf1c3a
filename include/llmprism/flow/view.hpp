// FlowView / FlowColumns — the one flow representation (DESIGN.md §13).
//
// FlowView is a non-owning structure-of-arrays view over one window of
// flows: one span per FlowRecord field plus the switch paths in CSR form
// (offsets + flat hop ids). It is the only input type of every analysis
// stage and of every writer — constructible for free from an LFT mapping
// (the columns alias the mmap'd file, zero copies) or from FlowColumns.
// The view carries the sortedness fact its storage tracks, so
// binary-search windowing and the per-pair CSR index work without
// re-verification.
//
// FlowColumns is the one owning flow container, from producer to writer:
// the simulator, the noise and fault passes, the collector and both
// decoders emit it; the flow router gathers per-job columns into it; the
// online monitor buffers in it. Producers append records (add) or whole
// views (append); readers get a record API (size / operator[] /
// value-yielding iteration) that materializes each FlowRecord on demand,
// and an implicit FlowView conversion, the way std::string converts to
// std::string_view.
//
// Lifetime rules: a FlowView never owns storage. Views over a
// MappedFlowTrace are invalidated when the mapping is destroyed or moved;
// views over FlowColumns when the columns are destroyed or mutated.
// Results that outlive the input (JobAnalysis) therefore hold owning
// FlowColumns gathered from the view, never the view itself.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "llmprism/common/time.hpp"
#include "llmprism/flow/flow.hpp"

namespace llmprism {

class ThreadPool;

/// Non-owning SoA view of a flow window. Cheap to copy (seven spans and a
/// flag); pass by value or const reference.
struct FlowView {
  std::span<const TimeNs> start_ns;
  std::span<const std::uint32_t> src;
  std::span<const std::uint32_t> dst;
  std::span<const std::uint64_t> bytes;
  std::span<const DurationNs> duration_ns;
  /// CSR switch paths: offsets has size() + 1 entries (offsets[0] == 0);
  /// flow i traverses switch_ids[offsets[i] .. offsets[i+1]). Both spans
  /// may be empty for traces without switch information.
  std::span<const std::uint64_t> switch_offsets;
  std::span<const std::uint32_t> switch_ids;
  /// Rows are in FlowStartTimeLess order (a verified fact, not a guess:
  /// set from FlowColumns' tracked order or LFT's validated header flag).
  /// False means unknown, not known-unsorted: verify_sorted() settles it.
  bool sorted = false;

  [[nodiscard]] std::size_t size() const { return start_ns.size(); }
  [[nodiscard]] bool empty() const { return start_ns.empty(); }

  [[nodiscard]] TimeNs end_ns(std::size_t i) const {
    return start_ns[i] + duration_ns[i];
  }
  [[nodiscard]] GpuPair pair(std::size_t i) const {
    return GpuPair(GpuId(src[i]), GpuId(dst[i]));
  }
  /// Canonical unordered pair key: (min << 32) | max.
  [[nodiscard]] std::uint64_t pair_key(std::size_t i) const {
    const std::uint32_t a = src[i];
    const std::uint32_t b = dst[i];
    const std::uint32_t lo = a < b ? a : b;
    const std::uint32_t hi = a < b ? b : a;
    return (static_cast<std::uint64_t>(lo) << 32) | hi;
  }
  [[nodiscard]] std::span<const std::uint32_t> switches(std::size_t i) const {
    if (switch_offsets.empty()) return {};
    return switch_ids.subspan(switch_offsets[i],
                              switch_offsets[i + 1] - switch_offsets[i]);
  }
  /// Average bandwidth of flow i in Gbit/s (0 when the duration is 0).
  [[nodiscard]] double bandwidth_gbps(std::size_t i) const {
    if (duration_ns[i] <= 0) return 0.0;
    return static_cast<double>(bytes[i]) * 8.0 /
           static_cast<double>(duration_ns[i]);
  }

  /// Row i by value — the one SoA -> AoS conversion of the data plane.
  /// Switch paths never exceed SwitchPath capacity: column_error() and the
  /// producers both bound hops to the Clos diameter.
  [[nodiscard]] FlowRecord record(std::size_t i) const {
    FlowRecord f;
    f.start_time = start_ns[i];
    f.src = GpuId(src[i]);
    f.dst = GpuId(dst[i]);
    f.bytes = bytes[i];
    f.duration = duration_ns[i];
    for (const std::uint32_t sw : switches(i)) {
      f.switches.push_back(SwitchId(sw));
    }
    return f;
  }

  /// Subview of rows [begin, end); sortedness is inherited (a contiguous
  /// slice of a sorted sequence is sorted). CSR offsets stay absolute —
  /// switches(i) indexes them relative to the slice, so the sliced
  /// offsets/ids spans keep aliasing the parent storage.
  [[nodiscard]] FlowView slice(std::size_t begin, std::size_t end) const {
    FlowView v;
    const std::size_t n = end - begin;
    v.start_ns = start_ns.subspan(begin, n);
    v.src = src.subspan(begin, n);
    v.dst = dst.subspan(begin, n);
    v.bytes = bytes.subspan(begin, n);
    v.duration_ns = duration_ns.subspan(begin, n);
    if (!switch_offsets.empty()) {
      v.switch_offsets = switch_offsets.subspan(begin, n + 1);
      v.switch_ids = switch_ids;
    }
    v.sorted = sorted;
    return v;
  }

  /// First row with start_ns >= t (binary search; requires sorted).
  [[nodiscard]] std::size_t lower_bound_start(TimeNs t) const;

  /// Rows whose start time falls in [w.begin, w.end) — binary search over
  /// the start_ns span, zero copies. Requires a sorted view (throws
  /// std::logic_error otherwise).
  [[nodiscard]] FlowView window(TimeWindow w) const;

  /// Earliest start / latest end over all rows; {0,0} when empty (one
  /// O(N) pass: durations vary, so the last row need not end last).
  [[nodiscard]] TimeWindow time_span() const;

  /// True iff rows are in FlowStartTimeLess order (O(N) verify; settles
  /// `sorted` for storage whose order is not known).
  [[nodiscard]] bool verify_sorted() const;

  /// The one check of columns decoded from outside input (LFT images and
  /// daemon chunks, LPS1 snapshots), run before anything indexes them.
  /// Empty when the column sizes agree, the CSR switch paths are well
  /// formed — offsets start at 0, never decrease, step by at most the
  /// SwitchPath capacity and end exactly at switch_ids.size(); a view
  /// without offsets has no paths and passes — and a `sorted` claim holds
  /// (verify_sorted). Otherwise the first violation.
  [[nodiscard]] std::string column_error() const;
};

/// The owning flow container. The vectors are public — the router's
/// scatter and the monitor's merge write them directly; `sorted` follows
/// the view's meaning (true = known sorted, false = unknown). add() keeps
/// it exact, and append() as exact as the appended view's flag, so rows
/// built by producers are never "unknown" while in order.
class FlowColumns {
 public:
  [[nodiscard]] FlowView view() const {
    FlowView v;
    v.start_ns = start_ns;
    v.src = src;
    v.dst = dst;
    v.bytes = bytes;
    v.duration_ns = duration_ns;
    v.switch_offsets = switch_offsets;
    v.switch_ids = switch_ids;
    v.sorted = sorted;
    return v;
  }
  /// Implicit, like std::string to std::string_view: every stage and
  /// writer that takes a FlowView takes the columns as they are.
  operator FlowView() const { return view(); }

  [[nodiscard]] std::size_t size() const { return start_ns.size(); }
  [[nodiscard]] bool empty() const { return start_ns.empty(); }
  [[nodiscard]] bool is_sorted() const { return sorted; }

  /// Materialize row i by value (the read API report consumers iterate
  /// with; no AoS array is ever built).
  [[nodiscard]] FlowRecord operator[](std::size_t i) const {
    return view().record(i);
  }

  /// Value-yielding iterator: `for (const FlowRecord& f : columns)` binds
  /// the loop reference to the materialized temporary, with no FlowRecord
  /// array behind it.
  class const_iterator {
   public:
    using value_type = FlowRecord;
    using difference_type = std::ptrdiff_t;

    const_iterator() = default;
    const_iterator(const FlowColumns* c, std::size_t i) : c_(c), i_(i) {}
    [[nodiscard]] FlowRecord operator*() const { return (*c_)[i_]; }
    const_iterator& operator++() { ++i_; return *this; }
    const_iterator operator++(int) { auto t = *this; ++i_; return t; }
    friend bool operator==(const const_iterator&,
                           const const_iterator&) = default;

   private:
    const FlowColumns* c_ = nullptr;
    std::size_t i_ = 0;
  };
  [[nodiscard]] const_iterator begin() const { return {this, 0}; }
  [[nodiscard]] const_iterator end() const { return {this, size()}; }

  void reserve(std::size_t rows, std::size_t switch_entries = 0);
  /// Size every column for a scatter of `rows` rows and `switch_entries`
  /// hops written in place: switch_offsets gets rows + 1 entries (the
  /// first one 0), and the caller fills the rest of the offsets, the rows
  /// and `sorted`.
  void resize(std::size_t rows, std::size_t switch_entries);
  void clear();

  /// Append one record. Appending a flow that is not before the current
  /// back keeps known-sorted columns known-sorted.
  void add(const FlowRecord& f);

  /// Append every row of `v`, rebasing its switch offsets onto ours.
  /// Sortedness stays known when both sides are known-sorted and the
  /// boundary is ordered; otherwise it becomes unknown.
  void append(const FlowView& v);

  /// Append row i of `v` (including its switch hops). The caller settles
  /// `sorted` (gathers know the answer statically).
  void append_row(const FlowView& v, std::size_t i);

  /// Gather the given rows of `v` into fresh columns. `rows_sorted_subset`
  /// states that `rows` is increasing — then sortedness is inherited from
  /// `v` (a subsequence of a sorted sequence is sorted).
  [[nodiscard]] static FlowColumns gather(const FlowView& v,
                                          std::span<const std::uint32_t> rows,
                                          bool rows_sorted_subset);

  /// K-way merge of sorted runs in O(N log K) by FlowStartTimeLess. Runs
  /// are sorted first if needed; ties across runs resolve to the lower run
  /// index, so the result is deterministic in the runs' order.
  [[nodiscard]] static FlowColumns merge_sorted_runs(
      std::vector<FlowColumns> runs);

  /// Merge `other` into this storage in O(N + M) (both sides sorted first
  /// if needed); ties keep this side's rows first. An `other` that starts
  /// at or after this side's back is appended without a merge.
  void merge_sorted(FlowColumns other);

  /// Drop every row with start_ns < t (binary search + prefix erase; the
  /// remaining CSR offsets are rebased to the kept hops). Requires sorted
  /// columns: throws std::logic_error when an O(N) verify fails.
  void drop_before(TimeNs t);

  /// Sort by FlowStartTimeLess via a stable argsort + gather — the one
  /// flow sort: rows that compare equal keep their order, on every path.
  /// No-op when already sorted (after an O(N) verify when the order is
  /// unknown); a physical sort increments `llmprism_flowtrace_sorts_total`.
  void sort();

  // Column storage. switch_offsets is either empty or size()+1 entries.
  std::vector<TimeNs> start_ns;
  std::vector<std::uint32_t> src;
  std::vector<std::uint32_t> dst;
  std::vector<std::uint64_t> bytes;
  std::vector<DurationNs> duration_ns;
  std::vector<std::uint64_t> switch_offsets;
  std::vector<std::uint32_t> switch_ids;
  bool sorted = true;
};

/// The pre-columnar name of the flow container. The benchmark under
/// prismbench/ still spells it; nothing else may. It goes with the next
/// benchmark change.
using FlowTrace = FlowColumns;

/// CSR-style per-pair index over a view: unordered GPU pairs are interned
/// to dense ids in first-appearance order, and each pair's flow positions
/// live contiguously in one flat array (row order preserved within a
/// pair). Shared by comm-type identification, timeline reconstruction, and
/// noise injection, so the flows are scanned once instead of each consumer
/// rebuilding a map of vectors.
class PairIndex {
 public:
  static constexpr std::uint32_t kNoPair = 0xffffffffu;

  PairIndex() = default;
  /// Radix-partitioned grouping (per row chunk a counting pass, one prefix
  /// over (bucket, chunk), a stable scatter per chunk; then grouping per
  /// bucket range) instead of per-flow unordered_map interning: dense ids
  /// in first-appearance order, positions in row order within each pair.
  /// With a pool the passes run on it; the index is identical to the
  /// null-pool one at every lane count.
  explicit PairIndex(const FlowView& view, ThreadPool* pool = nullptr);

  [[nodiscard]] std::size_t num_pairs() const { return pairs_.size(); }
  [[nodiscard]] std::size_t num_flows() const { return pair_of_flow_.size(); }

  /// Pair for a dense id; ids run [0, num_pairs) in first-appearance order.
  [[nodiscard]] const GpuPair& pair(std::size_t id) const {
    return pairs_[id];
  }
  [[nodiscard]] const std::vector<GpuPair>& pairs() const { return pairs_; }

  /// Trace positions of a pair's flows, in trace order.
  [[nodiscard]] std::span<const std::size_t> positions(std::size_t id) const {
    return {positions_.data() + offsets_[id], offsets_[id + 1] - offsets_[id]};
  }

  /// Dense id for a pair, or kNoPair if the pair never appears.
  [[nodiscard]] std::uint32_t id_of(GpuPair p) const {
    const auto it = id_of_.find(p);
    return it == id_of_.end() ? kNoPair : it->second;
  }

  /// Per trace position, the dense id of that flow's pair.
  [[nodiscard]] std::span<const std::uint32_t> pair_of_flow() const {
    return pair_of_flow_;
  }

 private:
  std::vector<GpuPair> pairs_;                       ///< id -> pair
  std::unordered_map<GpuPair, std::uint32_t> id_of_; ///< pair -> id
  std::vector<std::size_t> offsets_;                 ///< num_pairs + 1
  std::vector<std::size_t> positions_;               ///< flat, trace order
  std::vector<std::uint32_t> pair_of_flow_;          ///< per trace position
};

}  // namespace llmprism
