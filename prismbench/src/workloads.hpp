// Seeded workload generator.
//
// Each workload is a run of the cluster simulator (run_cluster_sim) whose
// output is written the way a collector would hand it to LLMPrism: one LFT
// window file for the batch workloads, fixed-duration LFT chunk images per
// stream for the daemon workload. The ground truth (true job GPU sets and
// the injected faults, in scoring terms) stays here, with the benchmark.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "llmprism/common/ids.hpp"
#include "llmprism/common/time.hpp"
#include "llmprism/flow/view.hpp"
#include "llmprism/simulator/ground_truth.hpp"
#include "llmprism/topology/topology.hpp"

namespace prismbench {

using namespace llmprism;

enum class FaultKind { kStraggler, kSlowRing, kDegradedSwitch };

/// One injected fault, reduced to what a verdict must name: the GPUs a
/// correct rank culprit may be (the straggler's TP stage group), the ring
/// members a correct DP-group culprit must equal, or the switch.
struct FaultTruth {
  FaultKind kind = FaultKind::kStraggler;
  std::size_t job = 0;                 ///< truth job index (rank / ring)
  std::vector<GpuId> culprit_gpus;     ///< straggler: acceptable rank culprits
  std::vector<GpuId> ring;             ///< slow ring: members, ascending
  SwitchId switch_id;                  ///< degraded switch
  std::uint32_t step_begin = 0;        ///< true steps (inclusive)
  std::uint32_t step_end = 0;
  TimeWindow time{};                   ///< wall span of those steps
};

/// A true job as the scorer needs it.
struct JobFacts {
  std::vector<GpuId> gpus;  ///< ascending
  TimeWindow active{};      ///< first step begin .. last step end
  std::size_t stream = 0;   ///< daemon stream that carries its flows
};

struct Truth {
  std::vector<JobFacts> jobs;
  std::vector<FaultTruth> faults;
};

/// A batch workload: one LFT window file plus truth.
struct BatchInput {
  std::string name;
  TopologyConfig topology;
  std::string lft_path;
  std::size_t flows = 0;
  bool exports = false;  ///< each op also renders the three exports
  Truth truth;
};

/// The daemon workload: chunk images per (slot, stream), sent open loop.
struct StreamInput {
  TopologyConfig topology;
  std::size_t streams = 2;
  DurationNs chunk = 0;        ///< simulated time per chunk
  DurationNs window = 0;       ///< daemon analysis window
  DurationNs reorder_slack = 0;
  double compression = 1.0;    ///< simulated seconds per wall second
  /// images[slot][stream]: one complete LFT image (may hold zero flows).
  std::vector<std::vector<std::string>> images;
  /// flows[slot][stream], and the first / latest flow start of each chunk
  /// (for the window-closing schedule).
  std::vector<std::vector<std::size_t>> flows;
  std::vector<std::vector<TimeNs>> first_start;
  std::vector<std::vector<TimeNs>> max_start;
  std::size_t total_flows = 0;
  Truth truth;
};

/// Generate a batch workload ("fleet-2880" or "bigjob-faults") for `seed`,
/// writing its LFT window into `dir`.
[[nodiscard]] BatchInput make_batch(const std::string& name,
                                    std::uint64_t seed,
                                    const std::string& dir);

/// Generate "stream-churn" for `seed`, sized to `feed_seconds` of wall
/// time at the workload's fixed time compression.
[[nodiscard]] StreamInput make_stream(std::uint64_t seed, double feed_seconds);

/// Cut a sorted batch window into a one-stream feed with stream-churn's
/// chunk and window geometry, sent at `compression` x real time.
[[nodiscard]] StreamInput feed_from_window(const FlowView& view,
                                           const TopologyConfig& topology,
                                           double compression);

}  // namespace prismbench
