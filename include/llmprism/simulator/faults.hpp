// Network-side fault injection applied to generated traces.
//
// A degraded switch (failing optics, congested uplink) cuts the effective
// bandwidth of every flow traversing it: flow durations stretch, so the
// observed per-flow bandwidth (bytes/duration) drops — the observable
// behind the paper's Fig. 5 switch-level diagnosis.
#pragma once

#include <vector>

#include "llmprism/common/ids.hpp"
#include "llmprism/common/rng.hpp"
#include "llmprism/common/time.hpp"
#include "llmprism/flow/view.hpp"

namespace llmprism {

struct SwitchDegradationSpec {
  SwitchId switch_id;
  TimeWindow window;        ///< when the degradation is active
  double bandwidth_factor = 0.3;  ///< remaining bandwidth fraction (0, 1]
};

/// Returns `trace` (sorted) with flow durations stretched in place by
/// 1/bandwidth_factor for flows that traverse a degraded switch while its
/// degradation window is active; pass an rvalue to avoid a copy. Throws
/// std::invalid_argument on a factor outside (0, 1].
[[nodiscard]] FlowColumns apply_switch_degradation(
    FlowColumns trace, const std::vector<SwitchDegradationSpec>& specs);

}  // namespace llmprism
