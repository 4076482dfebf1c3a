#include "llmprism/simulator/faults.hpp"

#include <stdexcept>
#include <unordered_map>

namespace llmprism {

FlowColumns apply_switch_degradation(
    FlowColumns trace, const std::vector<SwitchDegradationSpec>& specs) {
  for (const SwitchDegradationSpec& s : specs) {
    if (s.bandwidth_factor <= 0.0 || s.bandwidth_factor > 1.0) {
      throw std::invalid_argument(
          "faults: bandwidth_factor must be in (0, 1]");
    }
  }

  std::unordered_map<SwitchId, std::vector<const SwitchDegradationSpec*>>
      by_switch;
  for (const SwitchDegradationSpec& s : specs) {
    by_switch[s.switch_id].push_back(&s);
  }

  // Stretching a duration moves no row: the sort keys are untouched, so
  // the durations stretch in place.
  const FlowView view = trace.view();
  for (std::size_t i = 0; i < trace.size(); ++i) {
    double factor = 1.0;
    for (const std::uint32_t sw : view.switches(i)) {
      const auto it = by_switch.find(SwitchId(sw));
      if (it == by_switch.end()) continue;
      for (const SwitchDegradationSpec* s : it->second) {
        if (s->window.contains(trace.start_ns[i])) {
          // A flow crossing several degraded hops is limited by the worst.
          factor = std::min(factor, s->bandwidth_factor);
        }
      }
    }
    if (factor < 1.0) {
      trace.duration_ns[i] = static_cast<DurationNs>(
          static_cast<double>(trace.duration_ns[i]) / factor);
    }
  }
  trace.sort();
  return trace;
}

}  // namespace llmprism
