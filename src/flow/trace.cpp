#include "llmprism/flow/trace.hpp"

#include <algorithm>
#include <utility>

#include "llmprism/obs/metrics.hpp"

namespace llmprism {

namespace {

/// Process-wide count of *physical* sorts (no-op calls on already-sorted
/// traces are free and not counted). Looked up once; the handle stays
/// valid for the registry's lifetime.
obs::Counter& sorts_counter() {
  static obs::Counter& counter = obs::default_registry().counter(
      "llmprism_flowtrace_sorts_total",
      "Physical FlowTrace sorts performed (no-op sorts on already-sorted "
      "traces are not counted)");
  return counter;
}

}  // namespace

FlowTrace::FlowTrace(std::vector<FlowRecord> flows)
    : flows_(std::move(flows)),
      sorted_(std::is_sorted(flows_.begin(), flows_.end(),
                             FlowStartTimeLess{})) {}

void FlowTrace::add(FlowRecord flow) {
  if (sorted_ && !flows_.empty() &&
      FlowStartTimeLess{}(flow, flows_.back())) {
    sorted_ = false;
  }
  flows_.push_back(std::move(flow));
}

void FlowTrace::append(const FlowTrace& other) {
  if (other.flows_.empty()) return;
  if (sorted_ &&
      !(other.sorted_ &&
        (flows_.empty() ||
         !FlowStartTimeLess{}(other.flows_.front(), flows_.back())))) {
    sorted_ = false;
  }
  flows_.insert(flows_.end(), other.flows_.begin(), other.flows_.end());
}

void FlowTrace::append(FlowTrace&& other) {
  if (other.flows_.empty()) return;
  if (flows_.empty() && flows_.capacity() < other.flows_.size()) {
    flows_ = std::move(other.flows_);
    sorted_ = other.sorted_;
  } else {
    if (sorted_ &&
        !(other.sorted_ &&
          (flows_.empty() ||
           !FlowStartTimeLess{}(other.flows_.front(), flows_.back())))) {
      sorted_ = false;
    }
    flows_.insert(flows_.end(),
                  std::make_move_iterator(other.flows_.begin()),
                  std::make_move_iterator(other.flows_.end()));
  }
  other.flows_.clear();
  other.sorted_ = true;
}

void FlowTrace::sort() {
  // Touch the counter handle even on the no-op path so the metric is
  // registered (and exported as 0) as soon as any trace enters the
  // pipeline boundary.
  obs::Counter& sorts = sorts_counter();
  if (is_sorted()) return;
  std::sort(flows_.begin(), flows_.end(), FlowStartTimeLess{});
  sorted_ = true;
  sorts.inc();
}

bool FlowTrace::is_sorted() const {
  if (sorted_) return true;
  if (std::is_sorted(flows_.begin(), flows_.end(), FlowStartTimeLess{})) {
    sorted_ = true;
  }
  return sorted_;
}

TimeWindow FlowTrace::span() const {
  if (flows_.empty()) return {};
  TimeNs lo = flows_.front().start_time;
  TimeNs hi = flows_.front().end_time();
  for (const FlowRecord& f : flows_) {
    lo = std::min(lo, f.start_time);
    hi = std::max(hi, f.end_time());
  }
  return {lo, hi};
}

}  // namespace llmprism
