// The serving-plane harness: an in-process serve::PrismDaemon fed LPF
// frames over its Unix ingest socket on an open-loop schedule, with a
// /statusz poller timing chunk-to-verdict latency; and the traced run's
// replay of the same chunks through an OnlineMonitor.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"
#include "llmprism/flow/view.hpp"
#include "workloads.hpp"

namespace prismbench {

/// Windows each (slot, stream) chunk closes, by the monitor's watermark
/// rule (a window closes once a flow starts past its end plus the slack).
struct WindowSchedule {
  std::vector<std::vector<std::size_t>> closes;  ///< [slot][stream]
  std::vector<TimeWindow> last_window;           ///< per stream
  std::size_t total = 0;
};
[[nodiscard]] WindowSchedule window_schedule(const StreamInput& in);

struct StreamRun {
  double setup_s = 0;                  ///< median over the set-up repeats
  double setup_ref_s = 0;              ///< the same at the reference speed
  std::vector<double> kernel_s;        ///< calibration runs during the feed
  std::vector<double> verdict_latency_s;  ///< per window, from due
  std::vector<std::size_t> verdict_slot;  ///< the closing slot of each
  std::vector<double> lateness_s;      ///< per frame: send - due
  std::vector<double> ack_rtt_s;       ///< per frame: ack - send
  std::vector<double> poll_period_s;   ///< between /statusz answers
  std::uint64_t queue_depth_max = 0;   ///< from acks
  std::uint64_t backpressure_waits = 0;
  std::uint64_t frame_errors = 0;      ///< daemon counter (/statusz)
  std::uint64_t error_acks = 0;        ///< frames answered with kError
  std::size_t frames = 0;
  std::size_t windows_expected = 0;
  std::size_t windows_published = 0;
  std::uint64_t flows = 0;             ///< flows the daemon accepted
  double analyze_s = 0;                ///< Prism::analyze seconds in shards
  std::vector<std::string> journals;   ///< per shard, at end of feed
  std::vector<std::string> last_reports;
  bool http_ok = true;                 ///< every query answered 200
};

/// Run the daemon workload: build the topology and start the daemon
/// `setup_repeats` times (the last instance serves the feed), stream every
/// chunk open loop, wait for the expected windows, read back the journals
/// and last reports, stop. Socket files are created under `socket_dir`.
/// With a `calibrator`, the kernel runs before every set-up and on the
/// sender thread after every fourth slot that closes no window.
[[nodiscard]] StreamRun run_stream(const StreamInput& in,
                                   const WindowSchedule& schedule,
                                   std::size_t shards,
                                   const std::string& socket_dir,
                                   int setup_repeats,
                                   Calibrator* calibrator = nullptr);

/// The traced replay of a feed: every chunk parsed and ingested per stream
/// by an OnlineMonitor with the daemon's config (spans "flow.lft_open",
/// "monitor.ingest", and per closed window "monitor.journal" and
/// "monitor.render" as the shard worker runs them).
struct MonitorReplay {
  std::vector<double> ingest_s;           ///< per chunk
  std::vector<std::vector<double>> service_s;  ///< [slot][stream]
  std::uint64_t windows = 0;
  std::uint64_t flows_dropped_late = 0;
  std::uint64_t recognition_reuses = 0;
  std::uint64_t recognition_rebuilds = 0;
  std::uint64_t pairs_reused = 0;
  std::uint64_t pairs_reclassified = 0;
  std::uint64_t lft_bytes = 0;
  bool schedule_ok = true;  ///< ticks per chunk matched the schedule
  /// Every closed window's flows, per stream, for the stage replay.
  std::vector<FlowColumns> stream_flows;
  std::vector<TimeWindow> windows_closed;
  std::vector<std::size_t> window_stream;
};
[[nodiscard]] MonitorReplay replay_monitor(const StreamInput& in,
                                           const WindowSchedule& schedule,
                                           Tracer& tracer);

}  // namespace prismbench
