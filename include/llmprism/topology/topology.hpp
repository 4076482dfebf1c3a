// Physical cluster topology: machines hosting GPUs, wired into a two-tier
// Clos fabric (leaf/ToR switches and spine switches).
//
// Platform providers know this topology (it is their own hardware); Alg. 1
// uses it to merge cross-machine clusters into job-level clusters, and the
// switch-level diagnosis aggregates flows per switch.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "llmprism/common/ids.hpp"
#include "llmprism/flow/flow.hpp"
#include "llmprism/flow/view.hpp"

namespace llmprism {

struct TopologyConfig {
  std::uint32_t num_machines = 0;
  std::uint32_t gpus_per_machine = 8;   ///< one NIC per GPU (RoCE convention)
  std::uint32_t machines_per_leaf = 16; ///< machines under one ToR switch
  std::uint32_t num_spines = 4;         ///< spine switches (ECMP fan-out)
};

/// Immutable cluster topology with deterministic flow routing.
///
/// Id layout:
///   GpuId      g in [0, num_gpus): machine g / gpus_per_machine
///   SwitchId   s in [0, num_leaves) are leaves; [num_leaves, +num_spines)
///              are spines.
class ClusterTopology {
 public:
  /// Validates the configuration and precomputes derived sizes.
  /// Throws std::invalid_argument on zero-sized dimensions.
  static ClusterTopology build(const TopologyConfig& config);

  [[nodiscard]] const TopologyConfig& config() const { return config_; }
  [[nodiscard]] std::uint32_t num_gpus() const { return num_gpus_; }
  [[nodiscard]] std::uint32_t num_machines() const {
    return config_.num_machines;
  }
  [[nodiscard]] std::uint32_t num_leaves() const { return num_leaves_; }
  [[nodiscard]] std::uint32_t num_spines() const { return config_.num_spines; }
  [[nodiscard]] std::uint32_t num_switches() const {
    return num_leaves_ + config_.num_spines;
  }

  [[nodiscard]] MachineId machine_of(GpuId gpu) const;
  [[nodiscard]] bool same_machine(GpuId a, GpuId b) const {
    return machine_of(a) == machine_of(b);
  }

  /// GPUs hosted on `machine`, in id order.
  [[nodiscard]] std::vector<GpuId> gpus_on(MachineId machine) const;

  /// Leaf (ToR) switch a machine is cabled to.
  [[nodiscard]] SwitchId leaf_of(MachineId machine) const;

  [[nodiscard]] bool is_leaf(SwitchId sw) const {
    return sw.value() < num_leaves_;
  }
  [[nodiscard]] bool is_spine(SwitchId sw) const {
    return sw.value() >= num_leaves_ && sw.value() < num_switches();
  }

  /// Deterministic ECMP route between two GPUs:
  ///  - same machine: empty path (traffic never reaches a switch; this is
  ///    exactly why TP communication is invisible to LLMPrism),
  ///  - same leaf: {leaf},
  ///  - otherwise: {src leaf, spine chosen by a hash of (src, dst), dst leaf}.
  [[nodiscard]] SwitchPath route(GpuId src, GpuId dst) const;

  /// Empty when every GPU id (src, dst) and switch id of `flows` lies
  /// inside this topology, otherwise the first offender. The analysis
  /// sizes and indexes dense tables by these ids, so flows from outside
  /// the program (daemon chunks, snapshot buffers) must pass this first.
  /// Requires well-formed columns (FlowView::column_error()).
  [[nodiscard]] std::string id_error(const FlowView& flows) const;

 private:
  explicit ClusterTopology(TopologyConfig config);
  void check_gpu(GpuId gpu) const;

  TopologyConfig config_;
  std::uint32_t num_gpus_ = 0;
  std::uint32_t num_leaves_ = 0;
};

}  // namespace llmprism
