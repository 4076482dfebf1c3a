#include "llmprism/topology/topology.hpp"

#include <string>

namespace llmprism {

namespace {

/// Flow-level ECMP: a pair of endpoints always hashes to the same spine,
/// mirroring 5-tuple hashing on real fabrics (stable per connection).
std::uint32_t ecmp_hash(GpuId src, GpuId dst) {
  std::uint64_t z = (static_cast<std::uint64_t>(src.value()) << 32) |
                    dst.value();
  z ^= z >> 33;
  z *= 0xff51afd7ed558ccdULL;
  z ^= z >> 33;
  z *= 0xc4ceb9fe1a85ec53ULL;
  z ^= z >> 33;
  return static_cast<std::uint32_t>(z);
}

}  // namespace

ClusterTopology ClusterTopology::build(const TopologyConfig& config) {
  if (config.num_machines == 0) {
    throw std::invalid_argument("topology: num_machines must be > 0");
  }
  if (config.gpus_per_machine == 0) {
    throw std::invalid_argument("topology: gpus_per_machine must be > 0");
  }
  if (config.machines_per_leaf == 0) {
    throw std::invalid_argument("topology: machines_per_leaf must be > 0");
  }
  if (config.num_spines == 0) {
    throw std::invalid_argument("topology: num_spines must be > 0");
  }
  return ClusterTopology(config);
}

ClusterTopology::ClusterTopology(TopologyConfig config)
    : config_(config),
      num_gpus_(config.num_machines * config.gpus_per_machine),
      num_leaves_((config.num_machines + config.machines_per_leaf - 1) /
                  config.machines_per_leaf) {}

void ClusterTopology::check_gpu(GpuId gpu) const {
  if (!gpu.valid() || gpu.value() >= num_gpus_) {
    throw std::out_of_range("topology: GPU id out of range");
  }
}

MachineId ClusterTopology::machine_of(GpuId gpu) const {
  check_gpu(gpu);
  return MachineId(gpu.value() / config_.gpus_per_machine);
}

std::vector<GpuId> ClusterTopology::gpus_on(MachineId machine) const {
  if (!machine.valid() || machine.value() >= config_.num_machines) {
    throw std::out_of_range("topology: machine id out of range");
  }
  std::vector<GpuId> out;
  out.reserve(config_.gpus_per_machine);
  const std::uint32_t base = machine.value() * config_.gpus_per_machine;
  for (std::uint32_t i = 0; i < config_.gpus_per_machine; ++i) {
    out.emplace_back(base + i);
  }
  return out;
}

SwitchId ClusterTopology::leaf_of(MachineId machine) const {
  if (!machine.valid() || machine.value() >= config_.num_machines) {
    throw std::out_of_range("topology: machine id out of range");
  }
  return SwitchId(machine.value() / config_.machines_per_leaf);
}

SwitchPath ClusterTopology::route(GpuId src, GpuId dst) const {
  check_gpu(src);
  check_gpu(dst);
  const MachineId m_src = machine_of(src);
  const MachineId m_dst = machine_of(dst);
  SwitchPath path;
  if (m_src == m_dst) return path;  // intra-machine: invisible to switches
  const SwitchId leaf_src = leaf_of(m_src);
  const SwitchId leaf_dst = leaf_of(m_dst);
  path.push_back(leaf_src);
  if (leaf_src != leaf_dst) {
    const std::uint32_t spine_idx = ecmp_hash(src, dst) % config_.num_spines;
    path.push_back(SwitchId(num_leaves_ + spine_idx));
    path.push_back(leaf_dst);
  }
  return path;
}

std::string ClusterTopology::id_error(const FlowView& flows) const {
  const auto outside = [](std::size_t flow, const char* kind,
                          std::uint32_t id, std::uint32_t count) {
    return "flow " + std::to_string(flow) + ": " + kind + " id " +
           std::to_string(id) + " outside the topology (" +
           std::to_string(count) + " " + kind + "s)";
  };
  for (std::size_t i = 0; i < flows.size(); ++i) {
    for (const std::uint32_t gpu : {flows.src[i], flows.dst[i]}) {
      if (gpu >= num_gpus_) return outside(i, "GPU", gpu, num_gpus_);
    }
    for (const std::uint32_t sw : flows.switches(i)) {
      if (sw >= num_switches()) {
        return outside(i, "switch", sw, num_switches());
      }
    }
  }
  return {};
}

}  // namespace llmprism
