// The batch workloads (fleet-2880, bigjob-faults).
//
// One op is what a user of `prism analyze` waits for: map and validate the
// LFT window, Prism::analyze at 4 threads, render the report JSON, and on
// bigjob-faults also the Perfetto, series and journal exports. Each op is
// followed by Prism::analyze alone at 1 thread. Every report must be
// byte-identical to the warm-up op's, across iterations and thread counts.
#include <cstdio>
#include <memory>
#include <sstream>

#include "llmprism/core/render.hpp"
#include "llmprism/export/journal.hpp"
#include "llmprism/export/perfetto.hpp"
#include "llmprism/export/series.hpp"
#include "llmprism/export/view.hpp"
#include "llmprism/flow/lft.hpp"
#include "runs.hpp"
#include "score.hpp"

namespace prismbench {

namespace {

struct OpResult {
  double total_s = 0;
  double analyze_s = 0;
  std::string output;  ///< report JSON followed by any export bytes
  PrismReport report;
};

std::string report_json(const PrismReport& report) {
  std::ostringstream os;
  write_report_json(os, report);
  return std::move(os).str();
}

OpResult run_op(const Prism& prism, const BatchInput& in) {
  OpResult op;
  const auto t0 = Clock::now();
  const MappedFlowTrace mapped(in.lft_path);
  const FlowView view = mapped.view();
  const auto ta = Clock::now();
  op.report = prism.analyze(view);
  op.analyze_s = seconds_since(ta);
  op.output = report_json(op.report);
  if (in.exports) {
    const WindowExportView window{view.time_span(), &op.report, {}};
    PerfettoExporter perfetto;
    JobSeriesCollector series;
    IncidentJournal journal;
    perfetto.add_window(window);
    series.add_window(window);
    journal.add_window(window);
    journal.finish();
    std::ostringstream os;
    perfetto.write(os);
    series.write_openmetrics(os);
    journal.write_jsonl(os);
    op.output += std::move(os).str();
  }
  op.total_s = seconds_since(t0);
  return op;
}

void run_batch_e2e(const RunArgs& args, const BatchInput& in, Outcome& out) {
  Metrics& m = out.metrics;
  Calibrator calibrator;
  reset_peak_rss();

  // Set-up, three times: topology, both Prism instances, and one untimed
  // warm-up op (lazy initialisation lands here, not in the timed ops).
  PrismConfig config_4t;
  config_4t.num_threads = 4;
  PrismConfig config_1t;
  config_1t.num_threads = 1;
  std::unique_ptr<ClusterTopology> topology;
  std::unique_ptr<Prism> prism_4t;
  std::unique_ptr<Prism> prism_1t;
  OpResult warm;
  std::vector<double> setups;
  std::vector<double> setups_wall;
  for (int rep = 0; rep < 3; ++rep) {
    prism_4t.reset();
    prism_1t.reset();
    const double kernel_s = calibrator.run();
    const auto t0 = Clock::now();
    topology = std::make_unique<ClusterTopology>(
        ClusterTopology::build(in.topology));
    prism_4t = std::make_unique<Prism>(*topology, config_4t);
    prism_1t = std::make_unique<Prism>(*topology, config_1t);
    warm = run_op(*prism_4t, in);
    setups_wall.push_back(seconds_since(t0));
    setups.push_back(Calibrator::at_reference(setups_wall.back(), kernel_s));
  }
  const std::string& reference = warm.output;
  const std::string reference_json = report_json(warm.report);

  // Timed: a whole op at 4 threads and Prism::analyze alone at 1 thread in
  // turn, each right after a calibration kernel run, so both see the same
  // stretch of host time.
  std::vector<double> kernel_s;
  std::vector<double> op_s;
  std::vector<double> op_ref_s;
  std::vector<double> analyze_4t_s;
  std::vector<double> analyze_4t_ref_s;
  std::vector<double> analyze_1t_s;
  std::vector<double> analyze_1t_ref_s;
  const auto start = Clock::now();
  while (analyze_1t_s.size() < 3 || seconds_since(start) < args.seconds) {
    ++out.attempted;
    try {
      const double k = calibrator.run();
      const OpResult op = run_op(*prism_4t, in);
      kernel_s.push_back(k);
      op_s.push_back(op.total_s);
      op_ref_s.push_back(Calibrator::at_reference(op.total_s, k));
      analyze_4t_s.push_back(op.analyze_s);
      analyze_4t_ref_s.push_back(Calibrator::at_reference(op.analyze_s, k));
      if (op.output != reference) ++out.failed;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "op failed: %s\n", e.what());
      ++out.failed;
      if (out.failed > 3) break;
    }

    ++out.attempted;
    const MappedFlowTrace mapped(in.lft_path);
    const double k = calibrator.run();
    const auto t0 = Clock::now();
    const PrismReport report = prism_1t->analyze(mapped.view());
    analyze_1t_s.push_back(seconds_since(t0));
    analyze_1t_ref_s.push_back(
        Calibrator::at_reference(analyze_1t_s.back(), k));
    kernel_s.push_back(k);
    if (report_json(report) != reference_json) ++out.failed;
  }
  const double rss = peak_rss_mb();

  const VerdictScore score = score_report(warm.report, in.truth);
  const double flows = static_cast<double>(in.flows);
  const double tail_q = tail_quantile(op_s.size());
  // Every op repeats the same deterministic work on the same input, so the
  // spread between repetitions, and between runs, is the host's. The gated
  // timings are medians at the reference speed; the table also shows the
  // wall-clock medians, fastest repetitions and tail.
  m.e2e("setup_s", median(setups), "s");
  m.e2e("latency_s", median(op_ref_s), "s");
  m.e2e("analyze_flows_per_s", flows / median(analyze_4t_ref_s), "flows/s");
  m.e2e("analyze_flows_per_s_1t", flows / median(analyze_1t_ref_s),
        "flows/s");
  m.e2e("rss_peak_mb", rss, "MiB");
  m.e2e("jobs_exact_ratio",
        static_cast<double>(score.exact_jobs) /
            static_cast<double>(score.true_jobs),
        "ratio");

  m.info("setup_wall_s", median(setups_wall), "s");
  m.info("window_s_p50", median(op_s), "s");
  m.info("window_s_min", percentile(op_s, 0.0), "s");
  m.info("window_s_tail", percentile(op_s, tail_q), "s");
  m.info("window_tail_percentile", 100.0 * tail_q, "pct");
  m.info("window_ops", static_cast<double>(op_s.size()), "count");
  m.info("analyze_wall_flows_per_s_p50", flows / median(analyze_4t_s),
         "flows/s");
  m.info("analyze_wall_flows_per_s_1t_p50", flows / median(analyze_1t_s),
         "flows/s");
  m.info("analyze_1t_runs", static_cast<double>(analyze_1t_s.size()), "count");
  m.info("calibration_kernel_s_p50", median(kernel_s), "s");
  m.info("flows", flows, "count");
  if (score.faults > 0) {
    m.info("fault_top1_ratio",
           static_cast<double>(score.faults_top1) /
               static_cast<double>(score.faults),
           "ratio");
  }
  m.info("false_incidents", static_cast<double>(score.false_incidents),
         "count");
  m.info("incidents", static_cast<double>(score.incidents), "count");
}

void run_batch_traced(const RunArgs& args, const BatchInput& in,
                      Outcome& out) {
  const ClusterTopology topology = ClusterTopology::build(in.topology);
  Tracer tracer;
  std::vector<double> maps;
  std::uint64_t lft_bytes = 0;
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = Clock::now();
    const Tracer::Scope span(tracer, "flow.lft_map");
    const MappedFlowTrace mapped(in.lft_path);
    lft_bytes = mapped.byte_size();
    maps.push_back(seconds_since(t0));
  }
  const MappedFlowTrace mapped(in.lft_path);
  ReplayCounts counts;
  replay_window(topology, mapped.view(), tracer, counts, 3);

  // The same window as a one-stream daemon feed, for the monitor, session
  // and serve layers.
  const StreamInput feed = feed_from_window(mapped.view(), in.topology, 20.0);
  const WindowSchedule schedule = window_schedule(feed);
  const StreamRun serve = run_stream(feed, schedule, 1, args.workdir, 1);
  const MonitorReplay monitor = replay_monitor(feed, schedule, tracer);

  add_layer_metrics({.tracer = &tracer, .counts = &counts,
                     .monitor = &monitor, .serve = &serve,
                     .schedule = &schedule, .lft_open_s = median(maps),
                     .lft_bytes = lft_bytes},
                    out.metrics);
  out.attempted = counts.windows + serve.frames;
  out.failed = counts.mismatches + serve.error_acks;
  out.correct = counts.mismatches == 0 && monitor.schedule_ok &&
                serve.windows_published == schedule.total;
  out.metrics.info("replay_mismatches", static_cast<double>(counts.mismatches),
                   "count");
  tracer.write_chrome_trace(args.workdir + "/trace-" + args.workload + ".json");
}

}  // namespace

void run_batch(const RunArgs& args, Outcome& out) {
  const auto t0 = Clock::now();
  const BatchInput in = make_batch(args.workload, args.seed, args.workdir);
  // The generated window is deleted however the run ends.
  const std::unique_ptr<const char, void (*)(const char*)> cleanup(
      in.lft_path.c_str(), [](const char* path) { std::remove(path); });
  std::printf("generated %s: %zu flows in %.2f s (%s)\n", in.name.c_str(),
              in.flows, seconds_since(t0), in.lft_path.c_str());
  if (args.trace) {
    run_batch_traced(args, in, out);
  } else {
    run_batch_e2e(args, in, out);
  }
}

}  // namespace prismbench
