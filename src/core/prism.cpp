#include "llmprism/core/prism.hpp"

#include <cassert>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "llmprism/common/log.hpp"
#include "llmprism/core/flow_router.hpp"
#include "llmprism/common/thread_pool.hpp"
#include "llmprism/obs/metrics.hpp"
#include "llmprism/obs/trace_span.hpp"

namespace llmprism {

namespace {

/// The registry counters fed from each report, one per counted
/// ReportTelemetry field. The stages keep no registry handles; their
/// tallies reach the registry only through this table (DESIGN.md §6).
using ReportCounters = obs::TallyCounters<ReportTelemetry>;
constexpr ReportCounters::Field kReportCounters[] = {
    {"llmprism_flows_routed_total", "Flows attributed to a recognized job",
     &ReportTelemetry::flows_routed},
    {"llmprism_flows_routed_via_dst_total",
     "Routed flows whose unattributed src was recovered via dst",
     &ReportTelemetry::flows_routed_via_dst},
    {"llmprism_flows_unattributed_total", "Flows no recognized job claims",
     &ReportTelemetry::flows_unattributed},
    {"llmprism_comm_type_pairs_total",
     "Communication pairs classified by Alg. 2",
     &ReportTelemetry::pairs_classified},
    {"llmprism_comm_type_refinement_flips_total",
     "PP pairs flipped to DP by the transitivity refinement",
     &ReportTelemetry::refinement_flips},
    {"llmprism_comm_type_artifact_clusters_total",
     "Rare-size clusters dropped as collector artifacts",
     &ReportTelemetry::artifact_size_clusters},
    {"llmprism_comm_type_artifact_flows_total",
     "Flows inside dropped artifact size clusters",
     &ReportTelemetry::artifact_flows},
    {"llmprism_comm_type_artifact_segments_total",
     "Steps skipped for carrying only artifact sizes",
     &ReportTelemetry::artifact_segments},
    {"llmprism_bocd_observations_total",
     "BOCD observations consumed by gap segmentation",
     &ReportTelemetry::bocd_observations},
    {"llmprism_bocd_boundaries_total",
     "Segment boundaries opened by gap segmentation",
     &ReportTelemetry::bocd_boundaries},
    {"llmprism_bocd_hard_resets_total",
     "Degenerate BOCD restarts (all hypotheses at zero likelihood)",
     &ReportTelemetry::bocd_hard_resets},
    {"llmprism_ksigma_series_total",
     "Series handed to the k-sigma rule (including abstentions)",
     &ReportTelemetry::ksigma_series},
    {"llmprism_ksigma_points_total", "Points scored by the k-sigma rule",
     &ReportTelemetry::ksigma_points},
    {"llmprism_ksigma_alerts_total", "Outliers reported by the k-sigma rule",
     &ReportTelemetry::ksigma_alerts},
    {"llmprism_incidents_total", "Attributed root-cause incidents emitted",
     &ReportTelemetry::incidents},
    {"llmprism_alerts_explained_total",
     "k-sigma alerts an attributed incident accounts for",
     &ReportTelemetry::alerts_explained},
    {"llmprism_alerts_orphaned_total",
     "k-sigma alerts no blame-propagation rule could explain",
     &ReportTelemetry::alerts_orphaned},
};

/// Add one finished analysis to the registry. A report holds one call's
/// counts, so it publishes from zero; the call may run concurrently with
/// other analyses (stateless monitor windows), so nothing is kept.
void publish(const PrismReport& report) {
  static const ReportCounters counters(kReportCounters);
  static obs::Counter& analyses = obs::default_registry().counter(
      "llmprism_analyses_total", "Prism::analyze calls completed");
  static obs::Counter& jobs = obs::default_registry().counter(
      "llmprism_jobs_recognized_total", "Training jobs recognized (Alg. 1)");
  ReportTelemetry from_zero;
  counters.publish(report.telemetry, from_zero);
  analyses.inc();
  jobs.inc(report.jobs.size());
}

obs::Histogram& analyze_seconds() {
  static obs::Histogram& h = obs::default_registry().histogram(
      "llmprism_analyze_seconds", "Wall-clock duration of Prism::analyze");
  return h;
}

/// Fold one job's stage counters into the report-level telemetry block.
/// Called in job-id order, so the totals are scheduling-independent.
void fold_job_telemetry(ReportTelemetry& t, const JobAnalysis& analysis,
                        const SegmenterStats& timeline_segmenter,
                        const KSigmaStats& job_ksigma) {
  const CommTypeCounters& ct = analysis.comm_types.counters;
  t.pairs_classified += analysis.comm_types.pairs.size();
  for (const PairClassification& p : analysis.comm_types.pairs) {
    if (p.type == CommType::kDP) {
      ++t.pairs_dp;
    } else {
      ++t.pairs_pp;
    }
  }
  t.refinement_flips += ct.refinement_flips;
  t.artifact_size_clusters += ct.artifact_size_clusters;
  t.artifact_flows += ct.artifact_flows;
  t.artifact_segments += ct.artifact_segments;

  t.bocd_observations += ct.segmenter.observations;
  t.bocd_boundaries += ct.segmenter.boundaries;
  t.bocd_hard_resets += ct.segmenter.hard_resets;
  t.bocd_observations += timeline_segmenter.observations;
  t.bocd_boundaries += timeline_segmenter.boundaries;
  t.bocd_hard_resets += timeline_segmenter.hard_resets;

  t.timelines_reconstructed += analysis.timelines.size();
  for (const GpuTimeline& tl : analysis.timelines) {
    t.timeline_events += tl.events.size();
    t.steps_reconstructed += tl.steps.size();
  }

  t.ksigma_series += job_ksigma.series;
  t.ksigma_points += job_ksigma.points;
  t.ksigma_alerts += job_ksigma.alerts;
}

/// Join a non-empty error list into one exception message.
[[noreturn]] void throw_config_errors(const std::vector<std::string>& errors) {
  std::string message = "invalid configuration:";
  for (const std::string& e : errors) {
    message += "\n  - ";
    message += e;
  }
  throw std::invalid_argument(message);
}

}  // namespace

std::vector<std::string> PrismConfig::validate() const {
  std::vector<std::string> errors;
  if (diagnosis.switch_dp_flow_limit == 0) {
    errors.push_back("diagnosis: switch_dp_flow_limit must be >= 1");
  }
  return errors;
}

Prism::Prism(const ClusterTopology& topology, PrismConfig config)
    : topology_(topology), config_(std::move(config)) {
  if (const auto errors = config_.validate(); !errors.empty()) {
    throw_config_errors(errors);
  }
  const std::size_t threads = ThreadPool::resolve(config_.num_threads);
  // The calling thread participates in every loop, so `threads - 1` workers
  // yield exactly `threads` concurrent lanes; with one thread no pool is
  // created and analyze() runs the plain in-order loop.
  if (threads > 1) pool_ = std::make_unique<ThreadPool>(threads - 1);
}

std::size_t Prism::num_threads() const {
  return pool_ ? pool_->concurrency() : 1;
}

PrismReport Prism::analyze(const FlowView& view) const {
  return analyze(view, nullptr);
}

PrismReport Prism::analyze(const FlowView& view,
                           PrismSession* session) const {
  // Sort-once boundary: everything downstream (routing, per-pair CSR
  // positions, windowing, the input-order switch samples) relies on time
  // order, so an unsorted input is sorted exactly once here — never again
  // per job.
  if (view.sorted) return analyze_sorted(view, session);
  if (view.verify_sorted()) {
    // Storage with no cached sortedness fact (e.g. an LFT written without
    // the sorted flag): one O(N) verify instead of a sort.
    FlowView sorted_view = view;
    sorted_view.sorted = true;
    return analyze_sorted(sorted_view, session);
  }
  // Boundary sort without mutating the caller's storage (it may be a
  // read-only mapping): copy the rows into owning columns, sort those.
  FlowColumns sorted;
  sorted.append(view);
  sorted.sort();
  return analyze_sorted(sorted.view(), session);
}

PrismReport Prism::analyze_sorted(const FlowView& view,
                                  PrismSession* session) const {
  PrismReport report;
  const obs::ScopedTimer analyze_timer(analyze_seconds());
  const obs::Span analyze_span("prism.analyze");

  // A caller that did not arm the session gets sane window geometry: the
  // trace's own end, with no tail hold-back (a one-shot analysis has no
  // next window to complete a held burst).
  if (session != nullptr && !session->window_armed()) {
    session->begin_window(view.time_span().end, /*hold_tail=*/false);
  }

  // (1) job recognition.
  {
    const obs::Span span("prism.recognize");
    report.recognition = JobRecognizer(topology_).recognize(view);
  }
  log::info("prism: recognized ", report.recognition.jobs.size(),
            " jobs from ", report.recognition.num_cross_machine_clusters,
            " cross-machine clusters");

  // Route each flow to its job: a dense interned GPU->job table (one load
  // per flow, no hash probes), src lookup with dst fallback, one
  // count/prefix/scatter per row chunk on the pool with input order kept
  // within each job.
  const std::size_t num_jobs = report.recognition.jobs.size();
  FlowRouter::ColumnarResult routed;
  {
    const obs::Span span("prism.route");
    const FlowRouter router(
        std::span<const RecognizedJob>(report.recognition.jobs));
    routed = router.route(view, pool_.get());
    report.telemetry.flows_routed = routed.flows_routed;
    report.telemetry.flows_routed_via_dst = routed.flows_routed_via_dst;
    report.telemetry.flows_unattributed = routed.flows_unattributed;
  }
  std::vector<FlowColumns>& job_columns = routed.job_columns;
  report.telemetry.flows_total = view.size();

  // Resolve per-job warm states sequentially before the fan-out (the map
  // may rehash on insert; references stay valid — it is node-based — but
  // the lookups themselves must not race). Each task then touches only its
  // own job's state.
  std::vector<SessionJobState*> job_states(num_jobs, nullptr);
  if (session != nullptr) {
    for (std::size_t j = 0; j < num_jobs; ++j) {
      job_states[j] = &session->job_state(report.recognition.jobs[j].machines);
    }
  }

  const CommTypeIdentifier identifier;
  const TimelineReconstructor reconstructor;
  const Diagnoser diagnoser(config_.diagnosis);

  // (2)-(4a) per-job stage, one task per recognized job. Each task owns its
  // slot in `analyses` / `job_flow_types` / the two stats vectors and
  // touches nothing else, so the result cannot depend on scheduling;
  // telemetry is folded in job-id order below and the switch sample table
  // is built in input order, so the cluster-wide stage's input is
  // independent of the thread count.
  std::vector<JobAnalysis> analyses(num_jobs);
  std::vector<std::vector<CommType>> job_flow_types(num_jobs);
  std::vector<SegmenterStats> timeline_stats(num_jobs);
  std::vector<KSigmaStats> ksigma_stats(num_jobs);
  parallel_for(pool_.get(), num_jobs, [&](std::size_t j) {
    const obs::Span job_span("prism.job", j);
    JobAnalysis& analysis = analyses[j];
    analysis.id = JobId(static_cast<std::uint32_t>(j));
    analysis.job = report.recognition.jobs[j];
    analysis.trace = std::move(job_columns[j]);
    // Routing preserved the sorted input's order, so this is O(1) on the
    // cached flag — no per-job re-sort.
    assert(analysis.trace.is_sorted() &&
           "routing must preserve the sorted input's order");
    const FlowView job_view = analysis.trace.view();

    SessionJobState* const state = job_states[j];

    // (2) parallelism strategies, over the job's CSR pair index (built
    // over row chunks on the pool); the per-flow types come back as a
    // dense vector (one CommType per trace position) shared with DP
    // collection and timeline reconstruction. With a session, last
    // window's classifications serve as warm priors.
    PairIndex pair_index;
    {
      const obs::Span span("job.pair_index", j);
      pair_index = PairIndex(job_view, pool_.get());
    }
    std::vector<CommType>& flow_types = job_flow_types[j];
    {
      const obs::Span span("job.comm_type", j);
      CommTypeCarry* const carry = state != nullptr ? &state->comm : nullptr;
      // The pool is shared with the per-job fan-out: each pair/GPU is an
      // independently claimed task, so a lone huge job still saturates the
      // pool instead of serializing on one per-job task.
      analysis.comm_types = identifier.identify(job_view, pair_index,
                                                &flow_types, carry,
                                                pool_.get());
    }

    // (3) timelines + (4) job-level diagnosis
    if (config_.reconstruct_timelines) {
      {
        const obs::Span span("job.timeline", j);
        TimelineCarryContext tctx;
        if (state != nullptr) {
          tctx.carry = &state->timeline;
          tctx.window_end = session->window_end();
          tctx.hold_tail = session->hold_tail();
        }
        analysis.timelines = reconstructor.reconstruct_all(
            job_view, flow_types, &timeline_stats[j], tctx, pool_.get());
      }
      const obs::Span span("job.diagnosis", j);
      if (state != nullptr) {
        // Per-timeline so each GPU scores against ITS carried baseline;
        // concatenation order matches the span overload's iteration order.
        for (const GpuTimeline& tl : analysis.timelines) {
          std::vector<StepAlert> alerts = diagnoser.cross_step_carried(
              tl, state->step_baselines[tl.gpu], &ksigma_stats[j],
              &state->ewma_alerts_last);
          analysis.step_alerts.insert(analysis.step_alerts.end(),
                                      alerts.begin(), alerts.end());
        }
      } else {
        analysis.step_alerts = diagnoser.cross_step(
            std::span<const GpuTimeline>(analysis.timelines),
            &ksigma_stats[j]);
      }
      const auto durations = group_dp_durations(
          analysis.timelines, analysis.comm_types.dp_components);
      analysis.group_alerts = diagnoser.cross_group(durations,
                                                    &ksigma_stats[j]);
    }

    // (2b) full 3D layout from the recovered structure
    const obs::Span infer_span("job.infer", j);
    analysis.inferred = infer_parallelism(analysis.job.gpus.size(),
                                          analysis.comm_types,
                                          std::span(analysis.timelines));
  });
  report.jobs = std::move(analyses);

  for (std::size_t j = 0; j < num_jobs; ++j) {
    fold_job_telemetry(report.telemetry, report.jobs[j], timeline_stats[j],
                       ksigma_stats[j]);
  }

  // (4) cluster-wide switch-level diagnosis over one per-switch sample
  // table, built straight from the input's DP rows over the routing
  // chunks. Each switch's slice is in input order — exactly the order of
  // the job-id-order merge of the per-job DP runs (see
  // FlowRouter::ColumnarResult::type_mask) — without copying those rows.
  KSigmaStats switch_stats;
  {
    const obs::Span span("prism.switch_diagnosis");
    SwitchDiagnosis switches = diagnoser.diagnose_switches(
        SwitchSamples(view, routed.chunk_rows,
                      routed.type_mask(job_flow_types, CommType::kDP,
                                       pool_.get()),
                      pool_.get()),
        &switch_stats, pool_.get());
    report.switch_bandwidth_gbps = std::move(switches.bandwidth_gbps);
    report.switch_bandwidth_alerts = std::move(switches.bandwidth_alerts);
    report.switch_concurrency_alerts = std::move(switches.concurrency_alerts);
  }
  report.telemetry.ksigma_series += switch_stats.series;
  report.telemetry.ksigma_points += switch_stats.points;
  report.telemetry.ksigma_alerts += switch_stats.alerts;

  // (5) root-cause attribution: propagate blame backwards from every
  // alert over the recovered dependency graph. It walks the already-merged
  // per-job results in job-id order; only the per-rank self times of a job
  // with unclaimed step alerts fan out on the pool, each rank into its own
  // slot, so the result is thread-count-invariant.
  if (config_.attribute && config_.reconstruct_timelines) {
    const obs::Span span("prism.attribute");
    std::vector<JobAttributionInput> inputs;
    inputs.reserve(num_jobs);
    for (const JobAnalysis& job : report.jobs) {
      inputs.push_back(JobAttributionInput{
          .id = job.id,
          .trace = &job.trace,
          .comm_types = &job.comm_types,
          .timelines = job.timelines,
          .step_alerts = job.step_alerts,
          .group_alerts = job.group_alerts});
    }
    const Attributor attributor;
    report.attribution =
        attributor.attribute(inputs, report.switch_bandwidth_alerts,
                             report.switch_concurrency_alerts, pool_.get());
    report.telemetry.incidents = report.attribution.incidents.size();
    report.telemetry.alerts_explained =
        report.attribution.telemetry.alerts_explained;
    report.telemetry.alerts_orphaned =
        report.attribution.telemetry.alerts_orphaned;
  }

  // Session bookkeeping: fold per-job outcomes in job-id order (so the
  // counters are scheduling-invariant), then close the window (evictions,
  // window counter, disarm).
  if (session != nullptr) {
    for (std::size_t j = 0; j < num_jobs; ++j) {
      session->fold_job(*job_states[j]);
    }
    session->finish_window();
  }

  publish(report);
  return report;
}

}  // namespace llmprism
