// Shared helpers for the experiment-reproduction benches.
#pragma once

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "llmprism/core/comm_type.hpp"
#include "llmprism/flow/view.hpp"
#include "llmprism/simulator/cluster_sim.hpp"

namespace llmprism::bench {

/// Wall-clock stopwatch for reporting analysis cost.
class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// A 1,024-GPU tenant job in the style of the paper's §V-B evaluation
/// set: ~4 s steps, LLaMA-class message volumes.
inline JobSimConfig thousand_gpu_job(std::uint32_t tp, std::uint32_t dp,
                                     std::uint32_t pp, bool zero_overlap,
                                     std::uint32_t num_steps) {
  JobSimConfig job;
  job.parallelism = {.tp = tp, .dp = dp, .pp = pp, .micro_batches = 8};
  job.fwd_micro_batch = 90 * kMillisecond;
  job.bwd_micro_batch = 180 * kMillisecond;
  job.optimizer_time = 30 * kMillisecond;
  job.dp_total_bytes = 2ull << 30;
  // Finer ring chunking: a truncated burst (head bucket only) still leaves
  // the step divider enough inter-flow intervals to find the boundary.
  job.dp_rounds_per_bucket = 8;
  // Three NCCL-style channels: big jobs use many rings, and the denser DP
  // graph keeps groups connected under heavy per-pair corruption.
  job.dp_channels = 3;
  job.zero_overlap = zero_overlap;
  job.num_steps = num_steps;
  return job;
}

/// Collection noise calibrated so that the no-refinement accuracy follows
/// the paper's Table I shape (~96% at 1 min rising toward ~99.5% at 10 min):
/// a fifth of the pairs suffer heterogeneous burst truncation with
/// per-pair probabilities straddling 1/2, so short windows flip many pairs
/// and long windows keep only the worst-degraded ones flipped.
inline NoiseConfig table1_noise() {
  NoiseConfig noise;
  noise.degraded_pair_fraction = 0.28;
  noise.truncation_prob_min = 0.25;
  noise.truncation_prob_max = 0.47;
  noise.drop_rate = 0.01;
  noise.duplicate_rate = 0.005;
  noise.time_jitter = 50 * kMicrosecond;
  return noise;
}

/// Alg. 2 over one job's flows, classified over a fresh pair index, with
/// the per-row types kept for timeline reconstruction.
struct Classified {
  CommTypeResult comm;
  std::vector<CommType> flow_types;
};

inline Classified classify(const FlowView& flows) {
  Classified c;
  c.comm =
      CommTypeIdentifier{}.identify(flows, PairIndex(flows), &c.flow_types);
  return c;
}

inline void print_rule(int width = 78) {
  for (int i = 0; i < width; ++i) std::putchar('-');
  std::putchar('\n');
}

}  // namespace llmprism::bench
