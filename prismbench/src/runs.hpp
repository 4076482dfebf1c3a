// The three workload runners and the per-layer metric assembly.
#pragma once

#include <cstdint>
#include <string>

#include "common.hpp"
#include "replay.hpp"
#include "stream.hpp"

namespace prismbench {

/// What one run reports: the metrics plus the result-line counters.
struct Outcome {
  Metrics metrics;
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string workdir;  ///< inputs, sockets and the Chrome trace go here
};

/// fleet-2880 / bigjob-faults: end-to-end ops at 4 and 1 threads, or (with
/// trace) the stage replay plus the window replayed as a daemon feed.
void run_batch(const RunArgs& args, Outcome& out);

/// stream-churn: the open-loop daemon feed, or (with trace) the same feed
/// plus the monitor and stage replays.
void run_churn(const RunArgs& args, Outcome& out);

/// Everything the traced run measured, reduced to the per-layer metrics
/// (the same names on every workload).
struct LayerInputs {
  const Tracer* tracer = nullptr;
  const ReplayCounts* counts = nullptr;
  const MonitorReplay* monitor = nullptr;
  const StreamRun* serve = nullptr;
  const WindowSchedule* schedule = nullptr;
  double lft_open_s = 0;     ///< median map+validate (batch) / chunk parse
  std::uint64_t lft_bytes = 0;
};
void add_layer_metrics(const LayerInputs& in, Metrics& metrics);

}  // namespace prismbench
