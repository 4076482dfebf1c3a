#include "llmprism/core/monitor.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "llmprism/common/time.hpp"
#include "llmprism/obs/metrics.hpp"
#include "llmprism/obs/trace_span.hpp"

namespace llmprism {

namespace {

/// Process-wide cumulative views of every monitor's MonitorStats.
using MonitorRegistryCounters = obs::TallyCounters<MonitorStats, std::size_t>;
constexpr MonitorRegistryCounters::Field kMonitorCounters[] = {
    {"llmprism_monitor_flows_ingested_total",
     "Flows accepted into the window buffer", &MonitorStats::flows_ingested},
    {"llmprism_monitor_flows_dropped_late_total",
     "Flows discarded for arriving beyond the reorder slack",
     &MonitorStats::flows_dropped_late},
    {"llmprism_monitor_windows_completed_total",
     "Analysis windows closed and analyzed", &MonitorStats::windows_completed},
    {"llmprism_monitor_stable_ids_total",
     "Distinct stable job identities minted",
     &MonitorStats::stable_ids_created},
};

// The two level gauges are process totals: each monitor adds its own
// change, so concurrent shards sum instead of overwriting each other.
obs::Gauge& buffered_flows_gauge() {
  static obs::Gauge& g = obs::default_registry().gauge(
      "llmprism_monitor_buffered_flows", "Flows waiting in the reorder buffer");
  return g;
}

obs::Gauge& windows_in_flight_gauge() {
  static obs::Gauge& g = obs::default_registry().gauge(
      "llmprism_monitor_windows_in_flight",
      "Windows being analyzed concurrently right now");
  return g;
}

/// Still set by each monitor, so with several shards it shows the last
/// writer's lag until the metric carries a shard label.
obs::Gauge& window_lag_gauge() {
  static obs::Gauge& g = obs::default_registry().gauge(
      "llmprism_monitor_window_lag_seconds",
      "Watermark minus oldest un-analyzed window begin");
  return g;
}

}  // namespace

std::vector<std::string> MonitorConfig::validate() const {
  std::vector<std::string> errors = prism.validate();
  if (window <= 0) {
    errors.push_back("monitor: window must be positive, got " +
                     std::to_string(window));
  }
  if (reorder_slack < 0) {
    errors.push_back("monitor: reorder_slack must be >= 0, got " +
                     std::to_string(reorder_slack));
  }
  if (window > 0 && reorder_slack > window) {
    errors.push_back(
        "monitor: reorder_slack must not exceed the window (flows later than "
        "one window are already analyzed), got slack " +
        std::to_string(reorder_slack) + " vs window " + std::to_string(window));
  }
  return errors;
}

OnlineMonitor::OnlineMonitor(const ClusterTopology& topology,
                             MonitorConfig config)
    : topology_(topology),
      config_(std::move(config)),
      prism_(topology_, config_.prism) {
  if (const auto errors = config_.validate(); !errors.empty()) {
    std::string message = "invalid monitor configuration:";
    for (const std::string& e : errors) {
      message += "\n  - ";
      message += e;
    }
    throw std::invalid_argument(message);
  }
  if (config_.carry_state) {
    // Warm windows form a state chain and are analyzed sequentially; the
    // per-job fan-out INSIDE each window still uses prism_'s pool.
    session_ = std::make_unique<PrismSession>();
  } else {
    const std::size_t threads = ThreadPool::resolve(config_.prism.num_threads);
    if (threads > 1) window_pool_ = std::make_unique<ThreadPool>(threads - 1);
  }
}

OnlineMonitor::~OnlineMonitor() {
  if (published_buffered_ != 0) {
    buffered_flows_gauge().add(-static_cast<double>(published_buffered_));
  }
}

void OnlineMonitor::publish() {
  static const MonitorRegistryCounters counters(kMonitorCounters);
  counters.publish(stats_, published_);
  buffered_flows_gauge().add(static_cast<double>(buffer_.size()) -
                             static_cast<double>(published_buffered_));
  published_buffered_ = buffer_.size();
  window_lag_gauge().set(
      window_origin_set_ ? to_seconds(watermark_ - window_begin_) : 0.0);
}

MonitorJobId OnlineMonitor::stable_id_for(const RecognizedJob& job) {
  // A job's identity is its machine set: tenants keep their machines for
  // the lifetime of a job, while GPU-level membership of *observed* flows
  // fluctuates window to window. Lookups hash the machine vector in place
  // (MachineSetHash) — no key is materialized; the vector is copied only
  // when a new identity is minted.
  const auto it = job_ids_.find(job.machines);
  if (it != job_ids_.end()) return it->second;
  const MonitorJobId id = next_job_id_++;
  job_ids_.emplace(job.machines, id);
  ++stats_.stable_ids_created;
  return id;
}

void OnlineMonitor::finish_tick(MonitorTick& tick) {
  tick.job_ids.reserve(tick.report.jobs.size());
  for (const JobAnalysis& job : tick.report.jobs) {
    const MonitorJobId id = stable_id_for(job.job);
    tick.job_ids.push_back(id);
    ++stats_.job_windows[id];
  }

  ++stats_.windows_completed;
  for (const JobAnalysis& job : tick.report.jobs) {
    stats_.step_alerts += job.step_alerts.size();
    stats_.group_alerts += job.group_alerts.size();
  }
  stats_.switch_bandwidth_alerts += tick.report.switch_bandwidth_alerts.size();
  stats_.switch_concurrency_alerts +=
      tick.report.switch_concurrency_alerts.size();
}

MonitorTick OnlineMonitor::analyze_window(TimeWindow window,
                                          FlowColumns flows) {
  const obs::Span span("monitor.window");
  MonitorTick tick;
  tick.window = window;
  flows.sort();
  if (session_) {
    // Flush ends the feed: no next window will complete a held burst, so
    // the trailing step is emitted now (hold_tail = false) — together with
    // any burst the previous window held back.
    session_->begin_window(window.end, /*hold_tail=*/false);
    tick.report = prism_.analyze(flows.view(), session_.get());
  } else {
    tick.report = prism_.analyze(flows.view());
  }
  finish_tick(tick);
  return tick;
}

std::vector<MonitorTick> OnlineMonitor::ingest(const FlowView& batch) {
  const obs::Span ingest_span("monitor.ingest");
  FlowColumns accepted;
  accepted.reserve(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const TimeNs start = batch.start_ns[i];
    if (!window_origin_set_) {
      window_begin_ = start;
      window_origin_set_ = true;
      watermark_ = start;
    }
    if (start < window_begin_) {
      // Arrived later than the reorder slack allows: its window is already
      // closed and analyzed. Count and drop.
      ++stats_.flows_dropped_late;
      continue;
    }
    accepted.append_row(batch, i);
    watermark_ = std::max(watermark_, start);
    ++stats_.flows_ingested;
  }
  // append_row does not track order incrementally; settle the flag so the
  // sort below stays a no-op for in-order feeds. A sorted batch stays
  // sorted through drops (a subsequence); otherwise one O(N) verify.
  accepted.sorted = batch.sorted || accepted.view().verify_sorted();

  // At most ONE physical sort per batch: order the accepted flows, then
  // O(N) merge them into the always-sorted buffer (an in-order feed makes
  // both the sort and the merge no-op/append fast paths).
  accepted.sort();
  buffer_.merge_sorted(std::move(accepted));

  // Slice off every window whose end the watermark has safely passed, in
  // one pass of binary searches over the sorted buffer's start_ns column.
  // The slices are zero-copy FlowView subviews into the buffer; it stays
  // untouched until every window is analyzed, then the consumed prefix is
  // dropped once.
  std::vector<std::pair<TimeWindow, FlowView>> closed;
  const FlowView buffered = buffer_.view();
  while (window_origin_set_ &&
         watermark_ - config_.reorder_slack >=
             window_begin_ + config_.window) {
    const TimeWindow window{window_begin_, window_begin_ + config_.window};
    closed.emplace_back(window, buffered.window(window));
    window_begin_ = window.end;
  }

  // Analyze the closed windows, then assign stable ids and stats
  // sequentially in time order so both are independent of scheduling.
  // With warm state the windows form a chain (each consumes the carry the
  // previous one left) and MUST run sequentially in time order; stateless
  // mode analyzes them concurrently — the windows are pure functions.
  std::vector<MonitorTick> ticks(closed.size());
  const double in_flight = static_cast<double>(closed.size());
  windows_in_flight_gauge().add(in_flight);
  if (session_) {
    for (std::size_t i = 0; i < closed.size(); ++i) {
      const obs::Span window_span("monitor.window", i);
      ticks[i].window = closed[i].first;
      // Every streamed window may be continued by the next one, so its
      // trailing burst is held back (hold_tail); only flush() ends the feed.
      session_->begin_window(closed[i].first.end, /*hold_tail=*/true);
      // window() subviews are born sorted — no verify, no copy.
      ticks[i].report = prism_.analyze(closed[i].second, session_.get());
    }
  } else {
    parallel_for(window_pool_.get(), closed.size(), [&](std::size_t i) {
      const obs::Span window_span("monitor.window", i);
      ticks[i].window = closed[i].first;
      ticks[i].report = prism_.analyze(closed[i].second);
    });
  }
  if (!closed.empty()) buffer_.drop_before(window_begin_);
  windows_in_flight_gauge().add(-in_flight);
  for (MonitorTick& tick : ticks) finish_tick(tick);
  publish();
  return ticks;
}

std::optional<MonitorTick> OnlineMonitor::flush() {
  if (buffer_.empty()) return std::nullopt;
  // The buffer is kept sorted by ingest(); no sort needed here.
  const TimeWindow window{window_begin_, buffer_.view().time_span().end};
  FlowColumns flows = std::move(buffer_);
  buffer_ = FlowColumns{};
  window_begin_ = window.end;
  MonitorTick tick = analyze_window(window, std::move(flows));
  publish();
  return tick;
}

}  // namespace llmprism
