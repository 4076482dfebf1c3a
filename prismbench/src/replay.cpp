#include "replay.hpp"

#include <sstream>
#include <utility>
#include <vector>

#include "llmprism/core/flow_router.hpp"
#include "llmprism/core/render.hpp"
#include "llmprism/export/journal.hpp"
#include "llmprism/export/perfetto.hpp"
#include "llmprism/export/series.hpp"
#include "llmprism/export/view.hpp"

namespace prismbench {

namespace {

using Scope = Tracer::Scope;

/// The report-level telemetry of one job, folded the way Prism::analyze
/// folds it (in job-id order).
void fold_job(ReportTelemetry& t, const JobAnalysis& analysis,
              const SegmenterStats& timeline_segmenter,
              const KSigmaStats& job_ksigma) {
  const CommTypeCounters& ct = analysis.comm_types.counters;
  t.pairs_classified += analysis.comm_types.pairs.size();
  for (const PairClassification& p : analysis.comm_types.pairs) {
    (p.type == CommType::kDP ? t.pairs_dp : t.pairs_pp) += 1;
  }
  t.refinement_flips += ct.refinement_flips;
  t.artifact_size_clusters += ct.artifact_size_clusters;
  t.artifact_flows += ct.artifact_flows;
  t.artifact_segments += ct.artifact_segments;
  t.bocd_observations +=
      ct.segmenter.observations + timeline_segmenter.observations;
  t.bocd_boundaries += ct.segmenter.boundaries + timeline_segmenter.boundaries;
  t.bocd_hard_resets +=
      ct.segmenter.hard_resets + timeline_segmenter.hard_resets;
  t.timelines_reconstructed += analysis.timelines.size();
  for (const GpuTimeline& tl : analysis.timelines) {
    t.timeline_events += tl.events.size();
    t.steps_reconstructed += tl.steps.size();
  }
  t.ksigma_series += job_ksigma.series;
  t.ksigma_points += job_ksigma.points;
  t.ksigma_alerts += job_ksigma.alerts;
}

std::string render(const PrismReport& report) {
  std::ostringstream os;
  write_report_json(os, report);
  return std::move(os).str();
}

bool same_counts(const ReportTelemetry& a, const ReportTelemetry& b) {
  return a.flows_total == b.flows_total && a.flows_routed == b.flows_routed &&
         a.pairs_classified == b.pairs_classified &&
         a.bocd_observations == b.bocd_observations &&
         a.steps_reconstructed == b.steps_reconstructed &&
         a.ksigma_points == b.ksigma_points &&
         a.ksigma_alerts == b.ksigma_alerts && a.incidents == b.incidents;
}

}  // namespace

void replay_window(const ClusterTopology& topology, const FlowView& view,
                   Tracer& tracer, ReplayCounts& counts, int repeats) {
  // Reference: the real pipeline at 1 and 4 threads (default config).
  PrismConfig config;
  config.num_threads = 1;
  const Prism prism_1t(topology, config);
  config.num_threads = 4;
  const Prism prism_4t(topology, config);
  PrismReport reference;
  std::vector<double> t1;
  std::vector<double> t4;
  for (int r = 0; r < repeats; ++r) {
    const auto t0 = Clock::now();
    reference = prism_1t.analyze(view);
    t1.push_back(seconds_since(t0));
  }
  for (int r = 0; r < repeats; ++r) {
    const auto t0 = Clock::now();
    const PrismReport report = prism_4t.analyze(view);
    t4.push_back(seconds_since(t0));
  }
  counts.analyze_1t_s += median(t1);
  counts.analyze_4t_s += median(t4);

  // The replay: Prism::analyze's cold path, one public call per stage.
  PrismReport report;
  const JobRecognizer recognizer(topology, config.recognition);
  {
    const Scope s(tracer, span::kRecognize);
    report.recognition = recognizer.recognize(view);
  }
  const std::size_t num_jobs = report.recognition.jobs.size();
  std::vector<FlowColumns> job_columns;
  {
    const Scope s(tracer, span::kRoute);
    const FlowRouter router(
        std::span<const RecognizedJob>(report.recognition.jobs));
    FlowRouter::ColumnarResult routed = router.route(view);
    job_columns = std::move(routed.job_columns);
    report.telemetry.flows_routed = routed.flows_routed;
    report.telemetry.flows_routed_via_dst = routed.flows_routed_via_dst;
    report.telemetry.flows_unattributed = routed.flows_unattributed;
  }
  report.telemetry.flows_total = view.size();

  const CommTypeIdentifier identifier(config.comm_type);
  const TimelineReconstructor reconstructor(config.timeline);
  const Diagnoser diagnoser(config.diagnosis);
  std::vector<JobAnalysis> analyses(num_jobs);
  std::vector<FlowColumns> job_dp_flows(num_jobs);
  std::vector<SegmenterStats> timeline_stats(num_jobs);
  std::vector<KSigmaStats> ksigma_stats(num_jobs);
  std::uint64_t largest_job = 0;
  for (std::size_t j = 0; j < num_jobs; ++j) {
    JobAnalysis& analysis = analyses[j];
    analysis.id = JobId(static_cast<std::uint32_t>(j));
    analysis.job = report.recognition.jobs[j];
    analysis.trace = std::move(job_columns[j]);
    const FlowView job_view = analysis.trace.view();
    largest_job = std::max<std::uint64_t>(largest_job, job_view.size());

    PairIndex index;
    {
      const Scope s(tracer, span::kPairIndex);
      index = PairIndex(job_view);
    }
    counts.pairs += index.num_pairs();
    std::vector<CommType> flow_types;
    {
      const Scope s(tracer, span::kCommType);
      analysis.comm_types = identifier.identify(job_view, index, &flow_types);
    }
    {
      const Scope s(tracer, span::kDpGather);
      for (std::size_t i = 0; i < job_view.size(); ++i) {
        if (flow_types[i] == CommType::kDP) {
          job_dp_flows[j].append_row(job_view, i);
        }
      }
    }
    {
      const Scope s(tracer, span::kTimeline);
      analysis.timelines = reconstructor.reconstruct_all(
          job_view, flow_types, &timeline_stats[j], TimelineCarryContext{});
    }
    {
      const Scope s(tracer, span::kStepGroup);
      analysis.step_alerts = diagnoser.cross_step(
          std::span<const GpuTimeline>(analysis.timelines), &ksigma_stats[j]);
      const auto durations = group_dp_durations(
          analysis.timelines, analysis.comm_types.dp_components);
      analysis.group_alerts = diagnoser.cross_group(durations,
                                                    &ksigma_stats[j]);
    }
    {
      const Scope s(tracer, span::kInfer);
      analysis.inferred = infer_parallelism(analysis.job.gpus.size(),
                                            analysis.comm_types,
                                            std::span(analysis.timelines));
    }
  }
  report.jobs = std::move(analyses);
  FlowColumns all_dp_flows;
  {
    const Scope s(tracer, span::kDpGather);
    all_dp_flows = FlowColumns::merge_sorted_runs(std::move(job_dp_flows));
  }
  for (std::size_t j = 0; j < num_jobs; ++j) {
    fold_job(report.telemetry, report.jobs[j], timeline_stats[j],
             ksigma_stats[j]);
    const CommTypeCounters& ct = report.jobs[j].comm_types.counters;
    counts.comm_type_bocd_observations += ct.segmenter.observations;
    counts.timeline_bocd_observations += timeline_stats[j].observations;
  }

  KSigmaStats switch_stats;
  {
    const Scope s(tracer, span::kSwitch);
    const FlowView dp_view = all_dp_flows.view();
    report.switch_bandwidth_gbps = Diagnoser::per_switch_bandwidth(dp_view);
    report.switch_bandwidth_alerts =
        diagnoser.switch_bandwidth(dp_view, &switch_stats);
    report.switch_concurrency_alerts = diagnoser.switch_concurrency(dp_view);
  }
  report.telemetry.ksigma_series += switch_stats.series;
  report.telemetry.ksigma_points += switch_stats.points;
  report.telemetry.ksigma_alerts += switch_stats.alerts;

  {
    const Scope s(tracer, span::kAttribution);
    std::vector<JobAttributionInput> inputs;
    inputs.reserve(num_jobs);
    for (const JobAnalysis& job : report.jobs) {
      inputs.push_back(JobAttributionInput{.id = job.id,
                                           .trace = &job.trace,
                                           .comm_types = &job.comm_types,
                                           .timelines = job.timelines,
                                           .step_alerts = job.step_alerts,
                                           .group_alerts = job.group_alerts});
    }
    const Attributor attributor(config.attribution);
    report.attribution = attributor.attribute(
        inputs, report.switch_bandwidth_alerts,
        report.switch_concurrency_alerts);
  }
  report.telemetry.incidents = report.attribution.incidents.size();
  report.telemetry.alerts_explained =
      report.attribution.telemetry.alerts_explained;
  report.telemetry.alerts_orphaned =
      report.attribution.telemetry.alerts_orphaned;

  std::string json;
  {
    const Scope s(tracer, span::kRender);
    json = render(report);
  }
  counts.report_bytes += json.size();

  const WindowExportView export_view{view.time_span(), &report, {}};
  {
    const Scope s(tracer, span::kPerfetto);
    PerfettoExporter perfetto;
    perfetto.add_window(export_view);
    std::ostringstream os;
    perfetto.write(os);
    counts.export_bytes += os.str().size();
  }
  {
    const Scope s(tracer, span::kSeries);
    JobSeriesCollector series;
    series.add_window(export_view);
    std::ostringstream os;
    series.write_openmetrics(os);
    counts.export_bytes += os.str().size();
  }
  {
    const Scope s(tracer, span::kJournal);
    IncidentJournal journal;
    journal.add_window(export_view);
    journal.finish();
    std::ostringstream os;
    journal.write_jsonl(os);
    counts.export_bytes += os.str().size();
  }

  const ReportTelemetry& t = report.telemetry;
  counts.jobs += num_jobs;
  counts.largest_job_flows += largest_job;
  counts.flows_routed += t.flows_routed;
  counts.flows_unattributed += t.flows_unattributed;
  counts.refinement_flips += t.refinement_flips;
  counts.steps += t.steps_reconstructed;
  counts.ksigma_points += t.ksigma_points;
  counts.alerts += t.ksigma_alerts;
  counts.incidents += t.incidents;
  counts.alerts_explained += t.alerts_explained;
  counts.windows += 1;
  if (json != render(reference) || !same_counts(t, reference.telemetry)) {
    counts.mismatches += 1;
  }
}

double pipeline_busy(const Tracer& tracer) {
  double total = 0;
  for (const char* name :
       {span::kRecognize, span::kRoute, span::kPairIndex, span::kCommType,
        span::kDpGather, span::kTimeline, span::kStepGroup, span::kInfer,
        span::kSwitch, span::kAttribution}) {
    total += tracer.busy(name);
  }
  return total;
}

}  // namespace prismbench
