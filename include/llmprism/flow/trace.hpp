// FlowTrace: the record builder of the flow data plane — an owning,
// append-only array of FlowRecords that the simulator, the CSV decoder,
// the collector and the LFT/CSV writers produce and consume.
//
// Analysis never runs on a FlowTrace: every stage takes a columnar
// FlowView (flow/view.hpp, DESIGN.md §13), and a finished trace enters the
// analysis plane through one transpose, FlowColumns(trace). FlowTrace
// caches what it knows about its own ordering, so sort() on an
// already-sorted trace is free and the transpose hands the sortedness fact
// to the view without a re-verify. Physical sorts are counted in
// `llmprism_flowtrace_sorts_total` so the sort-once discipline is
// observable, not assumed.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "llmprism/common/time.hpp"
#include "llmprism/flow/flow.hpp"

namespace llmprism {

class FlowTrace {
 public:
  FlowTrace() = default;
  explicit FlowTrace(std::vector<FlowRecord> flows);

  /// Maintains the sortedness cache incrementally: appending a flow that
  /// is not before the current back keeps a sorted trace known-sorted.
  void add(FlowRecord flow);
  void reserve(std::size_t n) { flows_.reserve(n); }

  /// Append all flows of `other`. Sortedness stays known when both sides
  /// are known-sorted and the boundary is ordered; otherwise it becomes
  /// unknown until the next verify or sort.
  void append(const FlowTrace& other);

  /// Move-append: same sortedness semantics, but `other`'s storage is
  /// stolen (wholesale when this trace is empty). Used by the parallel
  /// CSV decoder to stitch per-chunk traces without copying records.
  void append(FlowTrace&& other);

  /// Sort by start time (ordering via FlowStartTimeLess). No-op on a
  /// trace that is already sorted; a physical sort increments the
  /// process-wide `llmprism_flowtrace_sorts_total` counter.
  void sort();

  /// True iff flows are in FlowStartTimeLess order. O(1) when the cache
  /// knows; otherwise one O(N) verify whose positive result is cached.
  [[nodiscard]] bool is_sorted() const;

  [[nodiscard]] std::size_t size() const { return flows_.size(); }
  [[nodiscard]] bool empty() const { return flows_.empty(); }
  [[nodiscard]] const FlowRecord& operator[](std::size_t i) const {
    return flows_[i];
  }
  [[nodiscard]] std::span<const FlowRecord> flows() const { return flows_; }
  [[nodiscard]] auto begin() const { return flows_.begin(); }
  [[nodiscard]] auto end() const { return flows_.end(); }

  /// Earliest start / latest end over all flows; {0,0} when empty.
  [[nodiscard]] TimeWindow span() const;

 private:
  std::vector<FlowRecord> flows_;
  /// true = known sorted; false = unknown (verified on demand). Mutable
  /// so a successful is_sorted() verify can cache its result. Not a
  /// synchronization point: a FlowTrace is never mutated concurrently.
  mutable bool sorted_ = true;
};

}  // namespace llmprism
