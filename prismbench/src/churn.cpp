// The daemon workload (stream-churn): two half-cluster streams sent open
// loop to a 2-shard prismd at a fixed time compression.
#include <cstdio>

#include "runs.hpp"
#include "score.hpp"

namespace prismbench {

namespace {

constexpr std::size_t kShards = 2;

/// Verdicts of both shards: journals for faults and false incidents, each
/// shard's last report for job recognition.
VerdictScore score_shards(const StreamInput& in, const WindowSchedule& sched,
                          const StreamRun& run) {
  VerdictScore total;
  for (std::size_t s = 0; s < in.streams && s < run.journals.size(); ++s) {
    total += score_stream(run.journals[s], run.last_reports[s],
                          sched.last_window[s], in.window, s, in.topology,
                          in.truth);
  }
  return total;
}

}  // namespace

void run_churn(const RunArgs& args, Outcome& out) {
  const auto t0 = Clock::now();
  const StreamInput in = make_stream(args.seed, args.seconds);
  const WindowSchedule schedule = window_schedule(in);
  std::printf("generated stream-churn: %zu flows, %zu chunks x %zu streams, "
              "%zu windows, in %.2f s\n",
              in.total_flows, in.images.size(), in.streams, schedule.total,
              seconds_since(t0));
  Metrics& m = out.metrics;

  if (args.trace) {
    const StreamRun serve = run_stream(in, schedule, kShards, args.workdir, 1);
    Tracer tracer;
    const MonitorReplay monitor = replay_monitor(in, schedule, tracer);
    const ClusterTopology topology = ClusterTopology::build(in.topology);
    ReplayCounts counts;
    for (std::size_t w = 0; w < monitor.windows_closed.size(); ++w) {
      const FlowView flows = monitor.stream_flows[monitor.window_stream[w]]
                                 .view()
                                 .window(monitor.windows_closed[w]);
      replay_window(topology, flows, tracer, counts, 1);
    }
    add_layer_metrics({.tracer = &tracer, .counts = &counts,
                       .monitor = &monitor, .serve = &serve,
                       .schedule = &schedule,
                       .lft_open_s =
                           median(tracer.durations("flow.lft_open")),
                       .lft_bytes = monitor.lft_bytes},
                      m);
    out.attempted = counts.windows + serve.frames;
    out.failed = counts.mismatches + serve.error_acks;
    out.correct = counts.mismatches == 0 && monitor.schedule_ok &&
                  serve.windows_published == schedule.total;
    m.info("replay_mismatches", static_cast<double>(counts.mismatches),
           "count");
    tracer.write_chrome_trace(args.workdir + "/trace-stream-churn.json");
    return;
  }

  Calibrator calibrator;
  reset_peak_rss();
  const StreamRun run =
      run_stream(in, schedule, kShards, args.workdir, 21, &calibrator);
  const double rss = peak_rss_mb();
  const VerdictScore score = score_shards(in, schedule, run);

  const std::uint64_t unpublished =
      run.windows_expected > run.windows_published
          ? run.windows_expected - run.windows_published
          : 0;
  out.attempted = run.frames + run.windows_expected;
  out.failed = run.error_acks + unpublished + (run.http_ok ? 0 : 1);
  out.correct = run.verdict_latency_s.size() > 0 && run.flows == in.total_flows;

  const double tail_q = tail_quantile(run.verdict_latency_s.size());
  const double flows = static_cast<double>(run.flows);
  // The feed's timings are spread over the whole run, so they are scaled to
  // the reference speed by the median of the kernel runs during the feed.
  const double to_reference =
      Calibrator::at_reference(1.0, median(run.kernel_s));
  m.e2e("setup_s", run.setup_ref_s, "s");
  // Windows differ in content, so the gated latency is the median over them.
  m.e2e("latency_s", median(run.verdict_latency_s) * to_reference, "s");
  // Shard engines run Prism at one thread, so both rates are the same
  // measurement: flows over the seconds the shards spent in analyze.
  const double analyze_ref_s = run.analyze_s * to_reference;
  m.e2e("analyze_flows_per_s", flows / analyze_ref_s, "flows/s");
  m.e2e("analyze_flows_per_s_1t", flows / analyze_ref_s, "flows/s");
  m.e2e("rss_peak_mb", rss, "MiB");
  m.e2e("jobs_exact_ratio",
        score.true_jobs == 0 ? 0.0
                             : static_cast<double>(score.exact_jobs) /
                                   static_cast<double>(score.true_jobs),
        "ratio");

  m.info("setup_wall_s", run.setup_s, "s");
  m.info("analyze_wall_flows_per_s", flows / run.analyze_s, "flows/s");
  m.info("calibration_kernel_s_p50", median(run.kernel_s), "s");
  m.info("verdict_latency_s_p50", median(run.verdict_latency_s), "s");
  m.info("verdict_latency_s_p90", percentile(run.verdict_latency_s, 0.9), "s");
  m.info("verdict_latency_s_tail", percentile(run.verdict_latency_s, tail_q),
         "s");
  m.info("verdict_latency_tail_percentile", 100.0 * tail_q, "pct");
  m.info("verdict_samples", static_cast<double>(run.verdict_latency_s.size()),
         "count");
  m.info("poll_resolution_s", median(run.poll_period_s), "s");
  m.info("poll_resolution_s_p99", percentile(run.poll_period_s, 0.99), "s");
  m.info("ingest_late_s_p90", percentile(run.lateness_s, 0.9), "s");
  m.info("queue_depth_max", static_cast<double>(run.queue_depth_max), "count");
  m.info("windows_published", static_cast<double>(run.windows_published),
         "count");
  m.info("frames", static_cast<double>(run.frames), "count");
  m.info("flows", flows, "count");
  m.info("fault_top1_ratio",
         score.faults == 0 ? 0.0
                           : static_cast<double>(score.faults_top1) /
                                 static_cast<double>(score.faults),
         "ratio");
  m.info("false_incidents", static_cast<double>(score.false_incidents),
         "count");
  m.info("incidents", static_cast<double>(score.incidents), "count");
}

}  // namespace prismbench
