#include "llmprism/simulator/noise.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "llmprism/flow/view.hpp"

namespace llmprism {

namespace {

/// Per-pair truncation state for degraded pairs.
struct PairDegradation {
  bool degraded = false;
  double truncation_prob = 0.0;
};

}  // namespace

std::vector<std::string> NoiseConfig::validate() const {
  std::vector<std::string> errors;
  const auto check_prob = [&errors](double p, const char* name) {
    if (p < 0.0 || p > 1.0) {
      errors.push_back("noise: " + std::string(name) +
                       " must be in [0, 1], got " + std::to_string(p));
    }
  };
  check_prob(drop_rate, "drop_rate");
  check_prob(duplicate_rate, "duplicate_rate");
  check_prob(size_jitter_rate, "size_jitter_rate");
  check_prob(partial_record_rate, "partial_record_rate");
  check_prob(degraded_pair_fraction, "degraded_pair_fraction");
  check_prob(truncation_prob_min, "truncation_prob_min");
  check_prob(truncation_prob_max, "truncation_prob_max");
  if (truncation_prob_min > truncation_prob_max) {
    errors.push_back(
        "noise: truncation_prob_min must not exceed truncation_prob_max, got " +
        std::to_string(truncation_prob_min) + " > " +
        std::to_string(truncation_prob_max));
  }
  if (size_jitter_frac < 0.0) {
    errors.push_back("noise: size_jitter_frac must be >= 0, got " +
                     std::to_string(size_jitter_frac));
  }
  if (time_jitter < 0) {
    errors.push_back("noise: time_jitter must be >= 0, got " +
                     std::to_string(time_jitter));
  }
  if (burst_gap < 0) {
    errors.push_back("noise: burst_gap must be >= 0, got " +
                     std::to_string(burst_gap));
  }
  return errors;
}

FlowColumns apply_noise(FlowColumns trace, const NoiseConfig& config,
                        Rng& rng) {
  if (const auto errors = config.validate(); !errors.empty()) {
    std::string message = "invalid noise configuration:";
    for (const std::string& e : errors) {
      message += "\n  - ";
      message += e;
    }
    throw std::invalid_argument(message);
  }
  if (!config.enabled()) {
    trace.sort();
    return trace;
  }

  const FlowView in = trace;  // valid until the input is freed below

  // ---- correlated burst truncation ----
  // Decide per pair whether it is degraded; for degraded pairs walk their
  // flows in time order, split into bursts at gaps, and with the pair's
  // truncation probability keep only flows sharing the burst head's size.
  std::vector<bool> keep(in.size(), true);
  if (config.degraded_pair_fraction > 0.0) {
    // Pairs are visited in first-appearance order (dense CSR ids), so the
    // noise realization is deterministic in the trace's content alone.
    const PairIndex pair_index(in);
    for (std::size_t id = 0; id < pair_index.num_pairs(); ++id) {
      const auto flow_idxs = pair_index.positions(id);
      PairDegradation d;
      d.degraded = rng.bernoulli(config.degraded_pair_fraction);
      if (d.degraded) {
        d.truncation_prob =
            rng.uniform(config.truncation_prob_min, config.truncation_prob_max);
      }
      if (!d.degraded) continue;

      // flow_idxs preserve trace order; a sorted trace makes them
      // chronological per pair.
      std::size_t burst_start = 0;
      while (burst_start < flow_idxs.size()) {
        std::size_t burst_end = burst_start + 1;
        while (burst_end < flow_idxs.size()) {
          const TimeNs gap = in.start_ns[flow_idxs[burst_end]] -
                             in.start_ns[flow_idxs[burst_end - 1]];
          if (gap > config.burst_gap) break;
          ++burst_end;
        }
        if (rng.bernoulli(d.truncation_prob)) {
          const std::uint64_t head_size = in.bytes[flow_idxs[burst_start]];
          for (std::size_t i = burst_start; i < burst_end; ++i) {
            if (in.bytes[flow_idxs[i]] != head_size) {
              keep[flow_idxs[i]] = false;
            }
          }
        }
        burst_start = burst_end;
      }
    }
  }

  FlowColumns out;
  out.reserve(in.size(), in.switch_ids.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    if (!keep[i]) continue;
    if (config.drop_rate > 0 && rng.bernoulli(config.drop_rate)) continue;

    FlowRecord f = in.record(i);
    if (config.partial_record_rate > 0 &&
        rng.bernoulli(config.partial_record_rate)) {
      f.bytes = static_cast<std::uint64_t>(
          std::max(1.0, static_cast<double>(f.bytes) *
                            rng.uniform(0.1, 0.9)));
      f.duration = static_cast<DurationNs>(
          static_cast<double>(f.duration) * rng.uniform(0.1, 0.9));
    }
    if (config.size_jitter_rate > 0 &&
        rng.bernoulli(config.size_jitter_rate)) {
      const double factor =
          1.0 + rng.uniform(-config.size_jitter_frac, config.size_jitter_frac);
      f.bytes = static_cast<std::uint64_t>(
          std::max(1.0, static_cast<double>(f.bytes) * factor));
    }
    if (config.time_jitter > 0) {
      f.start_time += static_cast<TimeNs>(
          rng.uniform(-static_cast<double>(config.time_jitter),
                      static_cast<double>(config.time_jitter)));
    }
    out.add(f);

    if (config.duplicate_rate > 0 &&
        rng.bernoulli(config.duplicate_rate)) {
      FlowRecord dup = f;
      // Retransmissions show up shortly after the original.
      dup.start_time += static_cast<TimeNs>(rng.uniform(0.0, 1e6));
      out.add(dup);
    }
  }
  trace = FlowColumns();  // free the input before the sort gathers a copy
  out.sort();
  return out;
}

}  // namespace llmprism
