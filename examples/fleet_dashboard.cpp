// Fleet observability walkthrough: drive all three job-facing exports
// end-to-end on a multi-tenant simulated cluster — the pipeline a prismd
// daemon would run continuously.
//
//   flows -> OnlineMonitor -> { Perfetto trace, OpenMetrics series,
//                               incident journal }
//
// Run:  ./examples/fleet_dashboard [out_dir]
//
// Then open out_dir/fleet.perfetto.json in https://ui.perfetto.dev — each
// job is one process with per-rank tracks reconstructed purely from
// switch-mirrored flows; the straggler windows carry "step alert"
// instants. fleet.series.om is Prometheus-scrapable OpenMetrics text;
// fleet.journal.jsonl holds the open -> update -> resolve lifecycle of the
// injected fault.
#include <iostream>
#include <string>

#include "llmprism/llmprism.hpp"

using namespace llmprism;

int main(int argc, char** argv) {
  const std::string out_dir = argc > 1 ? argv[1] : ".";

  // Three tenants on one fabric; the pipeline-parallel job develops a
  // straggler for a few mid-run steps.
  ClusterSimConfig sim_config;
  sim_config.topology = {.num_machines = 24,
                         .gpus_per_machine = 8,
                         .machines_per_leaf = 4,
                         .num_spines = 2};
  sim_config.seed = 47;

  JobSimConfig small;
  small.parallelism = {.tp = 8, .dp = 2, .pp = 2, .micro_batches = 4};
  small.num_steps = 30;

  JobSimConfig wide;
  wide.parallelism = {.tp = 8, .dp = 8, .pp = 1, .micro_batches = 4};
  wide.num_steps = 30;

  JobSimConfig piped;
  piped.parallelism = {.tp = 8, .dp = 2, .pp = 4, .micro_batches = 4};
  piped.num_steps = 30;
  // A short burst inside one analysis window alerts cleanly; the
  // attributed origin is one of the faulted rank's TP siblings (TP
  // traffic never leaves the machine, so the stage is the finest
  // flow-visible unit — DESIGN.md §11).
  piped.stragglers.push_back(
      {.rank = 8, .step_begin = 12, .step_end = 14, .slowdown = 2.5});

  sim_config.jobs.push_back({small, {}});
  sim_config.jobs.push_back({wide, {}});
  sim_config.jobs.push_back({piped, {}});
  const ClusterSimResult sim = run_cluster_sim(sim_config);
  std::cout << "cluster feed: " << sim.trace.size() << " flows, "
            << sim.jobs.size() << " tenants, "
            << to_seconds(sim.trace.view().time_span().length()) << " s\n";

  // The monitored side: fixed windows, warm cross-window state.
  MonitorConfig config;
  config.window = 4 * kSecond;
  OnlineMonitor monitor(sim.topology, config);

  // One ExportConfig drives every sink — the same struct `prism monitor
  // --perfetto-out ...` and a prismd daemon consume.
  ExportConfig exports;
  exports.perfetto_out = out_dir + "/fleet.perfetto.json";
  exports.series_out = out_dir + "/fleet.series.om";
  exports.journal_out = out_dir + "/fleet.journal.jsonl";
  if (const auto errors = exports.validate(); !errors.empty()) {
    for (const std::string& e : errors) std::cerr << "bad config: " << e << '\n';
    return 1;
  }
  ExportSinks sinks(exports);

  const FlowView flows = sim.trace.view();
  const TimeWindow span = flows.time_span();
  for (TimeNs at = span.begin; at < span.end; at += kSecond) {
    for (const MonitorTick& tick :
         monitor.ingest(flows.window({at, at + kSecond}))) {
      sinks.add_window(export_view(tick));
    }
  }
  if (const auto last = monitor.flush()) sinks.add_window(export_view(*last));

  const IncidentJournal* journal = sinks.journal();
  for (const std::string& error : sinks.write_files()) {
    std::cerr << "export failed: " << error << '\n';
    return 1;
  }
  for (const std::string& path :
       {exports.perfetto_out, exports.series_out, exports.journal_out}) {
    std::cout << "wrote " << path << '\n';
  }

  std::cout << '\n'
            << monitor.stats().windows_completed << " analyzed windows, "
            << (journal ? journal->num_events() : 0) << " journal events\n";
  std::cout << "open fleet.perfetto.json in https://ui.perfetto.dev to see "
               "the reconstructed Gantt chart\n";
  return 0;
}
