#include "llmprism/simulator/cluster_sim.hpp"

#include <stdexcept>
#include <unordered_set>

#include "llmprism/common/log.hpp"

namespace llmprism {

ClusterSimResult run_cluster_sim(const ClusterSimConfig& config) {
  ClusterSimResult result{ClusterTopology::build(config.topology), {}, {}, {}};
  const ClusterTopology& topo = result.topology;
  const std::uint32_t per_machine = config.topology.gpus_per_machine;

  // ---- machine allocation ----
  std::unordered_set<MachineId> used;
  std::uint32_t next_free = 0;
  std::vector<std::vector<MachineId>> assignments;
  assignments.reserve(config.jobs.size());
  for (const ClusterJobSpec& spec : config.jobs) {
    spec.config.validate();
    const std::uint32_t world = spec.config.parallelism.world_size();
    if (world % per_machine != 0) {
      throw std::invalid_argument(
          "cluster sim: world size must be a multiple of gpus_per_machine");
    }
    const std::uint32_t need = world / per_machine;
    std::vector<MachineId> machines = spec.machines;
    if (machines.empty()) {
      while (machines.size() < need) {
        while (next_free < topo.num_machines() &&
               used.count(MachineId(next_free)) != 0) {
          ++next_free;
        }
        if (next_free >= topo.num_machines()) {
          throw std::invalid_argument(
              "cluster sim: not enough machines for all jobs");
        }
        machines.emplace_back(next_free++);
      }
    }
    for (const MachineId m : machines) {
      if (!m.valid() || m.value() >= topo.num_machines()) {
        throw std::invalid_argument("cluster sim: machine id out of range");
      }
      if (!used.insert(m).second) {
        throw std::invalid_argument(
            "cluster sim: machine assigned to two jobs");
      }
    }
    assignments.push_back(std::move(machines));
  }

  // ---- per-job generation, each with a forked random stream ----
  Rng root(config.seed);
  FlowColumns merged;
  for (std::size_t j = 0; j < config.jobs.size(); ++j) {
    const JobId job_id(static_cast<std::uint32_t>(j));
    TrainingJobSim sim(job_id, config.jobs[j].config, assignments[j], topo);
    Rng job_rng = root.fork(j + 1);
    JobSimResult job_result = sim.run(job_rng);
    if (merged.empty()) {
      merged = std::move(job_result.trace);
    } else {
      merged.append(job_result.trace);
    }
    result.jobs.push_back(std::move(job_result.truth));

    // Labelled anomalies from this job's config.
    const auto& jc = config.jobs[j].config;
    for (const StragglerSpec& s : jc.stragglers) {
      InjectedAnomaly a;
      a.kind = AnomalyKind::kStraggler;
      a.job = job_id;
      a.step_begin = s.step_begin;
      a.step_end = s.step_end;
      a.rank = RankId(s.rank);
      a.severity = s.slowdown;
      result.anomalies.push_back(a);
    }
    for (const SlowDpGroupSpec& g : jc.slow_dp_groups) {
      InjectedAnomaly a;
      a.kind = AnomalyKind::kSlowDpGroup;
      a.job = job_id;
      a.step_begin = g.step_begin;
      a.step_end = g.step_end;
      a.dp_group_index = g.pp_idx * jc.parallelism.tp + g.tp_idx;
      a.severity = g.slowdown;
      result.anomalies.push_back(a);
    }
  }
  merged.sort();

  // ---- network faults, then collection noise ----
  if (!config.switch_faults.empty()) {
    merged = apply_switch_degradation(std::move(merged), config.switch_faults);
    for (const SwitchDegradationSpec& s : config.switch_faults) {
      InjectedAnomaly a;
      a.kind = AnomalyKind::kDegradedSwitch;
      a.switch_id = s.switch_id;
      a.severity = 1.0 / s.bandwidth_factor;
      result.anomalies.push_back(a);
    }
  }
  Rng noise_rng = root.fork(0xA0153ULL);
  result.trace = apply_noise(std::move(merged), config.noise, noise_rng);

  log::info("cluster sim: ", config.jobs.size(), " jobs, ",
            result.trace.size(), " flows");
  return result;
}

}  // namespace llmprism
