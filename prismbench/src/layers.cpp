#include <algorithm>

#include "runs.hpp"

namespace prismbench {

namespace {

double ratio(double num, double den, double if_empty) {
  return den > 0 ? num / den : if_empty;
}

}  // namespace

void add_layer_metrics(const LayerInputs& in, Metrics& m) {
  const Tracer& t = *in.tracer;
  const ReplayCounts& c = *in.counts;
  const MonitorReplay& mon = *in.monitor;
  const StreamRun& serve = *in.serve;
  const auto n = [](std::uint64_t v) { return static_cast<double>(v); };

  m.layer("flow.lft_open_s", in.lft_open_s, "s");
  m.layer("flow.lft_bytes", n(in.lft_bytes), "bytes");
  m.layer("recognize.busy_s", t.busy(span::kRecognize), "s");
  m.layer("recognize.jobs", n(c.jobs), "count");
  m.layer("route.busy_s", t.busy(span::kRoute), "s");
  m.layer("route.flows_unattributed", n(c.flows_unattributed), "count");
  m.layer("pair_index.busy_s", t.busy(span::kPairIndex), "s");
  m.layer("pair_index.pairs", n(c.pairs), "count");
  m.layer("comm_type.busy_s", t.busy(span::kCommType), "s");
  m.layer("comm_type.refinement_flips", n(c.refinement_flips), "count");
  m.layer("comm_type.bocd_observations", n(c.comm_type_bocd_observations),
          "count");
  m.layer("dp_gather.busy_s", t.busy(span::kDpGather), "s");
  m.layer("timeline.busy_s", t.busy(span::kTimeline), "s");
  m.layer("timeline.steps", n(c.steps), "count");
  m.layer("timeline.bocd_observations", n(c.timeline_bocd_observations),
          "count");
  m.layer("infer.busy_s", t.busy(span::kInfer), "s");
  m.layer("diagnosis.step_group_busy_s", t.busy(span::kStepGroup), "s");
  m.layer("diagnosis.switch_busy_s", t.busy(span::kSwitch), "s");
  m.layer("diagnosis.ksigma_points", n(c.ksigma_points), "count");
  m.layer("diagnosis.alerts", n(c.alerts), "count");
  m.layer("attribution.busy_s", t.busy(span::kAttribution), "s");
  m.layer("attribution.incidents", n(c.incidents), "count");
  m.layer("attribution.explained_ratio",
          ratio(n(c.alerts_explained), n(c.alerts), 1.0), "ratio");
  m.layer("render.report_json_s", t.busy(span::kRender), "s");
  m.layer("render.report_bytes", n(c.report_bytes), "bytes");
  m.layer("export.perfetto_s", t.busy(span::kPerfetto), "s");
  m.layer("export.series_s", t.busy(span::kSeries), "s");
  m.layer("export.journal_s", t.busy(span::kJournal), "s");
  m.layer("export.bytes", n(c.export_bytes), "bytes");
  m.layer("fanout.speedup", ratio(c.analyze_1t_s, c.analyze_4t_s, 1.0), "x");
  m.layer("fanout.largest_job_share",
          ratio(n(c.largest_job_flows), n(c.flows_routed), 0.0), "ratio");
  m.layer("pipeline.coverage_ratio",
          ratio(pipeline_busy(t), c.analyze_1t_s, 0.0), "ratio");

  m.layer("monitor.ingest_busy_s_p50", percentile(mon.ingest_s, 0.5), "s");
  m.layer("monitor.ingest_busy_s_p90", percentile(mon.ingest_s, 0.9), "s");
  m.layer("monitor.windows", n(mon.windows), "count");
  m.layer("monitor.flows_dropped_late", n(mon.flows_dropped_late), "count");
  m.layer("session.recognition_reuse_ratio",
          ratio(n(mon.recognition_reuses),
                n(mon.recognition_reuses + mon.recognition_rebuilds), 0.0),
          "ratio");
  m.layer("session.pair_reuse_ratio",
          ratio(n(mon.pairs_reused),
                n(mon.pairs_reused + mon.pairs_reclassified), 0.0),
          "ratio");

  // Queue wait: verdict latency minus the replayed service time of the
  // chunk(s) that closed the window (shards serve in parallel: the slower).
  std::vector<double> waits;
  for (std::size_t i = 0; i < serve.verdict_latency_s.size(); ++i) {
    const std::size_t slot = serve.verdict_slot[i];
    double service = 0;
    for (std::size_t s = 0; s < mon.service_s[slot].size(); ++s) {
      if (in.schedule->closes[slot][s] > 0) {
        service = std::max(service, mon.service_s[slot][s]);
      }
    }
    waits.push_back(std::max(0.0, serve.verdict_latency_s[i] - service));
  }
  m.layer("serve.ack_rtt_s_p50", percentile(serve.ack_rtt_s, 0.5), "s");
  m.layer("serve.ack_rtt_s_p90", percentile(serve.ack_rtt_s, 0.9), "s");
  m.layer("serve.queue_depth_max", n(serve.queue_depth_max), "count");
  m.layer("serve.backpressure_waits", n(serve.backpressure_waits), "count");
  m.layer("serve.frame_errors", n(serve.frame_errors), "count");
  m.layer("serve.queue_wait_s_p90", percentile(waits, 0.9), "s");
}

}  // namespace prismbench
