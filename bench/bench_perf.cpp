// Microbenchmarks backing the paper's "lightweight / near-zero overhead"
// claim (§I, §VI): LLMPrism runs out-of-band on mirrored flows, so the only
// cost that matters is the analysis side's throughput — measured here with
// google-benchmark.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "llmprism/bocd/bocd.hpp"
#include "llmprism/common/disjoint_set.hpp"
#include "llmprism/common/rng.hpp"
#include "llmprism/common/thread_pool.hpp"
#include "llmprism/core/comm_type.hpp"
#include "llmprism/core/diagnosis.hpp"
#include "llmprism/core/flow_router.hpp"
#include "llmprism/core/job_recognition.hpp"
#include "llmprism/core/monitor.hpp"
#include "llmprism/core/prism.hpp"
#include "llmprism/core/timeline.hpp"
#include "llmprism/export/journal.hpp"
#include "llmprism/export/perfetto.hpp"
#include "llmprism/export/series.hpp"
#include "llmprism/export/view.hpp"
#include "llmprism/flow/io.hpp"
#include "llmprism/flow/lft.hpp"
#include "llmprism/flow/view.hpp"
#include "llmprism/obs/metrics.hpp"
#include "llmprism/obs/trace_span.hpp"
#include "llmprism/serve/queue.hpp"
#include "llmprism/simulator/cluster_sim.hpp"

namespace llmprism {
namespace {

ClusterSimResult& shared_cluster() {
  static ClusterSimResult result = [] {
    ClusterSimConfig cfg;
    cfg.topology = {.num_machines = 16, .gpus_per_machine = 8,
                    .machines_per_leaf = 4, .num_spines = 2};
    cfg.seed = 77;
    JobSimConfig job;
    job.parallelism = {.tp = 8, .dp = 8, .pp = 2, .micro_batches = 4};
    job.num_steps = 20;
    cfg.jobs.push_back({job, {}});
    return run_cluster_sim(cfg);
  }();
  return result;
}

void BM_BocdObserve(benchmark::State& state) {
  Rng rng(1);
  std::vector<double> xs;
  for (int i = 0; i < 4096; ++i) xs.push_back(rng.normal(5.0, 0.2));
  BocdDetector detector;
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(detector.observe(xs[i++ & 4095]));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_BocdObserve);

// The segmentation fast path: a whole series through the SoA kernel in one
// observe_batch() call on the pooled detector — what segment_by_gaps
// actually runs per series. Compare against BM_BocdObserve (the per-call
// loop) for the batch entry's overhead, which should be ~zero since both
// share one kernel.
void BM_BocdObserveBatch(benchmark::State& state) {
  Rng rng(1);
  std::vector<double> xs;
  for (int i = 0; i < 4096; ++i) xs.push_back(rng.normal(5.0, 0.2));
  std::vector<BocdReadout> readouts(xs.size());
  for (auto _ : state) {
    BocdDetector& detector = pooled_detector(BocdConfig{});
    detector.observe_batch(xs, readouts);
    benchmark::DoNotOptimize(readouts.data());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * xs.size()));
}
BENCHMARK(BM_BocdObserveBatch);

void BM_SegmentByGaps(benchmark::State& state) {
  // 50 bursts of 16 flows: the per-pair step-division workload.
  Rng rng(2);
  std::vector<TimeNs> ts;
  TimeNs t = 0;
  for (int b = 0; b < 50; ++b) {
    for (int f = 0; f < 16; ++f) {
      ts.push_back(t);
      t += kMillisecond + static_cast<TimeNs>(rng.uniform(0, 2e5));
    }
    t += 2 * kSecond;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(segment_by_gaps(ts));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * ts.size()));
}
BENCHMARK(BM_SegmentByGaps);

void BM_JobRecognition(benchmark::State& state) {
  const auto& sim = shared_cluster();
  const JobRecognizer recognizer(sim.topology);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        recognizer.recognize(sim.trace.view()));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * sim.trace.size()));
  state.counters["flows"] = static_cast<double>(sim.trace.size());
}
BENCHMARK(BM_JobRecognition);

void BM_CommTypeIdentify(benchmark::State& state) {
  const auto& sim = shared_cluster();
  const CommTypeIdentifier identifier;
  const FlowView view = sim.trace.view();
  for (auto _ : state) {
    benchmark::DoNotOptimize(identifier.identify(view, PairIndex(view)));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * sim.trace.size()));
}
BENCHMARK(BM_CommTypeIdentify);

void BM_TimelineReconstructAll(benchmark::State& state) {
  const auto& sim = shared_cluster();
  std::vector<CommType> flow_types;
  {
    const FlowView view = sim.trace.view();
    benchmark::DoNotOptimize(
        CommTypeIdentifier{}.identify(view, PairIndex(view), &flow_types));
  }
  const TimelineReconstructor reconstructor;
  for (auto _ : state) {
    benchmark::DoNotOptimize(reconstructor.reconstruct_all(
        sim.trace.view(), flow_types));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * sim.trace.size()));
}
BENCHMARK(BM_TimelineReconstructAll);

// One analysis thread, like the 1-core box bench/baseline.json was
// recorded on, so the gate compares like with like on any host.
void BM_PrismEndToEnd(benchmark::State& state) {
  const auto& sim = shared_cluster();
  PrismConfig cfg;
  cfg.num_threads = 1;
  const Prism prism(sim.topology, cfg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(prism.analyze(sim.trace.view()));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * sim.trace.size()));
  state.counters["flows"] = static_cast<double>(sim.trace.size());
  state.counters["threads"] = static_cast<double>(prism.num_threads());
  state.counters["num_cpus"] =
      static_cast<double>(std::thread::hardware_concurrency());
}
BENCHMARK(BM_PrismEndToEnd)->UseRealTime();

// --- columnar stage benches ------------------------------------------------
// The analysis plane's hot kernels over the shared single-job trace, each
// isolated on the FlowView it consumes in Prism::analyze_sorted. Together
// with BM_PrismEndToEnd and BM_PrismView these regenerate EXPERIMENTS.md's
// per-stage overhead table from one bench run.

struct StageFixture {
  FlowColumns columns;               ///< sorted SoA of the shared trace
  PairIndex index;                   ///< CSR pair index over columns
  std::vector<CommType> flow_types;  ///< final type per trace position
  FlowColumns dp_flows;              ///< DP-only rows (k-sigma input)
};

const StageFixture& stage_fixture() {
  static const StageFixture fixture = [] {
    StageFixture f;
    f.columns = shared_cluster().trace;
    f.columns.sort();
    const FlowView view = f.columns.view();
    f.index = PairIndex(view);
    benchmark::DoNotOptimize(
        CommTypeIdentifier{}.identify(view, f.index, &f.flow_types));
    for (std::size_t i = 0; i < view.size(); ++i) {
      // An in-order subsequence of a sorted view stays sorted (the
      // FlowColumns default), so no settle pass is needed.
      if (f.flow_types[i] == CommType::kDP) f.dp_flows.append_row(view, i);
    }
    return f;
  }();
  return fixture;
}

// End-to-end over the FlowView entry point (the mapped-LFT path). Now that
// the simulator emits columns, BM_PrismEndToEnd does the same work; both
// stay because the CI perf gate tracks both names.
void BM_PrismView(benchmark::State& state) {
  const auto& sim = shared_cluster();
  const Prism prism(sim.topology);
  const FlowView view = stage_fixture().columns.view();
  for (auto _ : state) {
    benchmark::DoNotOptimize(prism.analyze(view));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * view.size()));
  state.counters["flows"] = static_cast<double>(view.size());
}
BENCHMARK(BM_PrismView);

// Radix-partitioned CSR pair-index build (counting pass + prefix sum +
// stable scatter).
void BM_StagePairIndex(benchmark::State& state) {
  const FlowView view = stage_fixture().columns.view();
  for (auto _ : state) {
    const PairIndex index(view);
    benchmark::DoNotOptimize(index.num_flows());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * view.size()));
  state.counters["flows"] = static_cast<double>(view.size());
}
BENCHMARK(BM_StagePairIndex);

// Comm-type classification over the prebuilt index, including the per-flow
// type fill (exactly what the per-job fan-out runs).
void BM_StageCommType(benchmark::State& state) {
  const StageFixture& f = stage_fixture();
  const FlowView view = f.columns.view();
  const CommTypeIdentifier identifier;
  std::vector<CommType> flow_types;
  for (auto _ : state) {
    benchmark::DoNotOptimize(identifier.identify(view, f.index, &flow_types));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * view.size()));
  state.counters["flows"] = static_cast<double>(view.size());
}
BENCHMARK(BM_StageCommType);

// Timeline reconstruction from precomputed per-flow types: the columnar
// event scan, per-GPU counting gather, and BOCD step segmentation.
void BM_StageTimeline(benchmark::State& state) {
  const StageFixture& f = stage_fixture();
  const FlowView view = f.columns.view();
  const TimelineReconstructor reconstructor;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        reconstructor.reconstruct_all(view, f.flow_types, nullptr, {}));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * view.size()));
  state.counters["flows"] = static_cast<double>(view.size());
}
BENCHMARK(BM_StageTimeline);

// Columnar k-sigma switch-bandwidth extraction over the DP-only rows
// (per-switch sample gather across the CSR hop columns + outlier rule).
void BM_StageKSigma(benchmark::State& state) {
  const StageFixture& f = stage_fixture();
  const FlowView dp_view = f.dp_flows.view();
  const Diagnoser diagnoser;
  for (auto _ : state) {
    benchmark::DoNotOptimize(diagnoser.switch_bandwidth(dp_view));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * dp_view.size()));
  state.counters["dp_flows"] = static_cast<double>(dp_view.size());
}
BENCHMARK(BM_StageKSigma);

// Routing over the shared trace: per-chunk count, prefix sum and scatter
// into the job columns on a pool of Arg lanes (1 = the null-pool loop).
void BM_StageRoute(benchmark::State& state) {
  const auto& sim = shared_cluster();
  const FlowView view = stage_fixture().columns.view();
  const auto recognition = JobRecognizer(sim.topology).recognize(view);
  const FlowRouter router(
      std::span<const RecognizedJob>(recognition.jobs));
  const auto lanes = static_cast<std::size_t>(state.range(0));
  std::unique_ptr<ThreadPool> pool;
  if (lanes > 1) pool = std::make_unique<ThreadPool>(lanes - 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(router.route(view, pool.get()));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * view.size()));
  state.counters["flows"] = static_cast<double>(view.size());
}
BENCHMARK(BM_StageRoute)->Arg(1)->Arg(4)->UseRealTime();

// The whole cluster-wide switch stage over the DP-only rows, as
// Prism::analyze runs it: one per-switch sample table, then the mean, the
// percentile health check and the concurrency sweep, one task per switch
// on a pool of Arg lanes (1 = the null-pool sequential loop).
void BM_StageSwitch(benchmark::State& state) {
  const StageFixture& f = stage_fixture();
  const FlowView dp_view = f.dp_flows.view();
  const Diagnoser diagnoser;
  const auto lanes = static_cast<std::size_t>(state.range(0));
  std::unique_ptr<ThreadPool> pool;
  if (lanes > 1) pool = std::make_unique<ThreadPool>(lanes - 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(diagnoser.diagnose_switches(
        SwitchSamples(dp_view, row_chunks(dp_view.size(), pool.get()), {},
                      pool.get()),
        nullptr, pool.get()));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * dp_view.size()));
  state.counters["dp_flows"] = static_cast<double>(dp_view.size());
}
BENCHMARK(BM_StageSwitch)->Arg(1)->Arg(4)->UseRealTime();

// --- daemon ingest queue ---------------------------------------------------
// The shard ingest queue (serve/queue.hpp): N producers (first arg) against
// one consumer. The second arg is the queue capacity: 64 is the daemon
// default, where producers outrun the consumer and the full/wait path
// dominates; 32768 holds the whole run, so pushes never block and the
// measurement isolates the uncontended lock round-trip — the common case in
// a daemon whose analysis keeps up. items_per_second is end-to-end transfer
// throughput.
void BM_ServeQueue(benchmark::State& state) {
  const auto producers = static_cast<std::size_t>(state.range(0));
  const auto capacity = static_cast<std::size_t>(state.range(1));
  constexpr std::uint64_t kTotalItems = 1 << 15;
  const std::uint64_t per_producer = kTotalItems / producers;
  const std::uint64_t total = per_producer * producers;
  for (auto _ : state) {
    serve::BoundedQueue<std::uint64_t> queue(capacity);
    std::vector<std::thread> threads;
    threads.reserve(producers);
    for (std::size_t p = 0; p < producers; ++p) {
      threads.emplace_back([&queue, per_producer] {
        for (std::uint64_t i = 0; i < per_producer; ++i) {
          benchmark::DoNotOptimize(queue.push(i));
        }
      });
    }
    std::uint64_t drained = 0;
    for (std::uint64_t n = 0; n < total; ++n) {
      drained += queue.pop().has_value() ? 1 : 0;
    }
    for (std::thread& t : threads) t.join();
    benchmark::DoNotOptimize(drained);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * total));
  state.counters["producers"] = static_cast<double>(producers);
}
BENCHMARK(BM_ServeQueue)
    ->Args({1, 64})->Args({2, 64})->Args({4, 64})
    ->Args({1, 32768})->Args({4, 32768})->UseRealTime();

ClusterSimResult& shared_multi_job_cluster() {
  // Eight 16-GPU tenants (2 machines each): the multi-tenant window shape
  // the per-job fan-out is built for.
  static ClusterSimResult result = [] {
    ClusterSimConfig cfg;
    cfg.topology = {.num_machines = 16, .gpus_per_machine = 8,
                    .machines_per_leaf = 4, .num_spines = 2};
    cfg.seed = 99;
    for (int j = 0; j < 8; ++j) {
      JobSimConfig job;
      job.parallelism = {.tp = 8, .dp = 2, .pp = 1, .micro_batches = 4};
      job.num_steps = 10;
      cfg.jobs.push_back({job, {}});
    }
    return run_cluster_sim(cfg);
  }();
  return result;
}

void BM_PrismAnalyze(benchmark::State& state) {
  const auto& sim = shared_multi_job_cluster();
  PrismConfig cfg;
  cfg.num_threads = static_cast<std::size_t>(state.range(0));
  const Prism prism(sim.topology, cfg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(prism.analyze(sim.trace.view()));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * sim.trace.size()));
  state.counters["flows"] = static_cast<double>(sim.trace.size());
  state.counters["jobs"] = 8.0;
  state.counters["threads"] = static_cast<double>(prism.num_threads());
}
// Wall-clock time is the metric: the sweep records the per-job fan-out's
// speedup (items_per_second at 4 threads vs 1) in the bench trajectory.
BENCHMARK(BM_PrismAnalyze)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

// The export overhead a prismd daemon would pay per analysis window:
// the report is computed once outside the loop; each iteration renders
// all three job-facing exports (Perfetto trace, OpenMetrics series,
// incident journal) from it.
void BM_FleetExport(benchmark::State& state) {
  const auto& sim = shared_multi_job_cluster();
  MonitorConfig cfg;
  cfg.window = 500 * kMillisecond;
  cfg.reorder_slack = 100 * kMillisecond;
  cfg.prism.num_threads = 1;
  OnlineMonitor monitor(sim.topology, cfg);
  std::vector<MonitorTick> ticks = monitor.ingest(sim.trace);
  if (auto last = monitor.flush()) ticks.push_back(std::move(*last));

  std::size_t bytes = 0;
  for (auto _ : state) {
    PerfettoExporter perfetto;
    JobSeriesCollector series;
    IncidentJournal journal;
    for (const MonitorTick& tick : ticks) {
      const WindowExportView view = export_view(tick);
      perfetto.add_window(view);
      series.add_window(view);
      journal.add_window(view);
    }
    journal.finish();
    std::ostringstream os;
    perfetto.write(os);
    series.write_openmetrics(os);
    journal.write_jsonl(os);
    bytes = os.str().size();
    benchmark::DoNotOptimize(bytes);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * ticks.size()));
  state.counters["windows"] = static_cast<double>(ticks.size());
  state.counters["bytes"] = static_cast<double>(bytes);
}
BENCHMARK(BM_FleetExport);

// Perfetto serialization alone on the largest single-job fixture: the
// report is computed once outside the loop; each iteration formats every
// rank's step and event slices, the alerts and the counter track, then
// writes the document. events/s and bytes/s are the serializer's rates.
void BM_PerfettoExport(benchmark::State& state) {
  const auto& sim = shared_cluster();
  const Prism prism(sim.topology);
  const PrismReport report = prism.analyze(sim.trace.view());
  const WindowExportView view{sim.trace.view().time_span(), &report, {}};

  std::size_t events = 0;
  std::size_t bytes = 0;
  for (auto _ : state) {
    PerfettoExporter perfetto;
    perfetto.add_window(view);
    std::ostringstream os;
    perfetto.write(os);
    events = perfetto.num_events();
    bytes = static_cast<std::size_t>(os.tellp());
    benchmark::DoNotOptimize(bytes);
  }
  const auto iterations = static_cast<double>(state.iterations());
  state.counters["events_per_second"] = benchmark::Counter(
      static_cast<double>(events) * iterations, benchmark::Counter::kIsRate);
  state.counters["bytes_per_second"] = benchmark::Counter(
      static_cast<double>(bytes) * iterations, benchmark::Counter::kIsRate);
  state.counters["events"] = static_cast<double>(events);
  state.counters["bytes"] = static_cast<double>(bytes);
}
BENCHMARK(BM_PerfettoExport);

void run_monitor_ingest(benchmark::State& state, bool carry_state) {
  // The streaming hot path: the multi-tenant feed delivered in 512-flow
  // batches, windows closing as the watermark advances. Measures the
  // whole ingest loop (batch sort + merge + window slicing + analysis).
  const auto& sim = shared_multi_job_cluster();
  const std::size_t kBatch = 512;
  for (auto _ : state) {
    MonitorConfig cfg;
    // ~6 windows over the feed: enough steady-state windows for the
    // session's caches to matter in the warm variant.
    cfg.window = 500 * kMillisecond;
    cfg.reorder_slack = 100 * kMillisecond;
    cfg.prism.num_threads = 1;
    cfg.carry_state = carry_state;
    OnlineMonitor monitor(sim.topology, cfg);
    std::size_t ticks = 0;
    for (std::size_t at = 0; at < sim.trace.size(); at += kBatch) {
      ticks += monitor.ingest(sim.trace.view().slice(
                                  at, std::min(at + kBatch, sim.trace.size())))
                   .size();
    }
    ticks += monitor.flush().has_value() ? 1 : 0;
    benchmark::DoNotOptimize(ticks);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * sim.trace.size()));
  state.counters["flows"] = static_cast<double>(sim.trace.size());
}

void BM_MonitorIngest(benchmark::State& state) {
  run_monitor_ingest(state, /*carry_state=*/false);
}
BENCHMARK(BM_MonitorIngest);

// Same feed with the session engine on: windows are analyzed in sequence
// with the comm-type priors, timeline tails and EWMA baselines carried;
// recognition and routing run on every window, as in BM_MonitorIngest.
void BM_MonitorIngestWarm(benchmark::State& state) {
  run_monitor_ingest(state, /*carry_state=*/true);
}
BENCHMARK(BM_MonitorIngestWarm);

void BM_FlowMergeSorted(benchmark::State& state) {
  // K sorted column runs combined into one sorted run — the cluster-wide
  // DP merge shape. Arg = number of runs.
  const auto& sim = shared_multi_job_cluster();
  const auto k = static_cast<std::size_t>(state.range(0));
  std::vector<FlowColumns> runs;
  {
    runs.resize(k);
    for (std::size_t i = 0; i < sim.trace.size(); ++i) {
      runs[i % k].add(sim.trace[i]);
    }
    for (FlowColumns& run : runs) run.sort();
  }
  for (auto _ : state) {
    std::vector<FlowColumns> copy = runs;
    benchmark::DoNotOptimize(FlowColumns::merge_sorted_runs(std::move(copy)));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * sim.trace.size()));
}
BENCHMARK(BM_FlowMergeSorted)->Arg(2)->Arg(8);

// --- trace ingest ----------------------------------------------------------
// The collector hand-off: one multi-tenant trace serialized once, decoded
// many ways. BM_ReadCsvParallel sweeps the decoder's thread count (the
// speedup at 4 threads vs 1 is the tracked number); BM_ReadLft* pin the
// binary format's stream and zero-copy paths against it.

const std::string& shared_csv_text() {
  static const std::string text = [] {
    std::ostringstream os;
    write_csv(os, shared_multi_job_cluster().trace);
    return std::move(os).str();
  }();
  return text;
}

const std::string& shared_lft_bytes() {
  static const std::string bytes = [] {
    std::ostringstream os(std::ios::binary);
    write_lft(os, shared_multi_job_cluster().trace);
    return std::move(os).str();
  }();
  return bytes;
}

void BM_ReadCsvParallel(benchmark::State& state) {
  const std::string& text = shared_csv_text();
  CsvParseOptions options;
  options.num_threads = static_cast<std::size_t>(state.range(0));
  options.min_chunk_bytes = 64 * 1024;  // fan out even on this ~MB input
  std::size_t flows = 0;
  for (auto _ : state) {
    const ParseResult result = read_csv_checked(text, options);
    flows = result.trace.size();
    benchmark::DoNotOptimize(&result.trace);
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations() * text.size()));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * flows));
  state.counters["flows"] = static_cast<double>(flows);
}
BENCHMARK(BM_ReadCsvParallel)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

void BM_ReadLftStream(benchmark::State& state) {
  const std::string& bytes = shared_lft_bytes();
  std::size_t flows = 0;
  for (auto _ : state) {
    std::istringstream is(bytes, std::ios::binary);
    const FlowColumns trace = read_lft(is);
    flows = trace.size();
    benchmark::DoNotOptimize(&trace);
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations() * bytes.size()));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * flows));
}
BENCHMARK(BM_ReadLftStream);

void BM_ReadLftMmap(benchmark::State& state) {
  // Zero-copy load: map + validate (the checksum walks every byte, so the
  // pages are hot and the columns usable) without materializing records.
  const std::string& bytes = shared_lft_bytes();
  const std::string path = [&bytes] {
    std::string p = "/tmp/llmprism_bench_ingest.lft";
    std::ofstream os(p, std::ios::binary | std::ios::trunc);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    return p;
  }();
  std::size_t flows = 0;
  for (auto _ : state) {
    const MappedFlowTrace mapped(path);
    flows = mapped.size();
    benchmark::DoNotOptimize(mapped.view().start_ns.data());
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations() * bytes.size()));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * flows));
}
BENCHMARK(BM_ReadLftMmap);

// --- self-telemetry overhead ----------------------------------------------
// The pipeline is annotated unconditionally, so these pin the per-event
// cost: counter/histogram updates are relaxed atomics, and a disabled Span
// must be a single atomic load (the production default).

void BM_ObsCounterInc(benchmark::State& state) {
  obs::Counter counter;
  for (auto _ : state) {
    counter.inc();
    benchmark::DoNotOptimize(counter);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ObsCounterInc);

void BM_ObsHistogramObserve(benchmark::State& state) {
  obs::Histogram histogram(obs::Histogram::default_seconds_buckets());
  double v = 1e-5;
  for (auto _ : state) {
    histogram.observe(v);
    v = v < 10.0 ? v * 1.001 : 1e-5;
    benchmark::DoNotOptimize(histogram);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ObsHistogramObserve);

void BM_ObsSpanDisabled(benchmark::State& state) {
  obs::TraceCollector::instance().disable();
  for (auto _ : state) {
    const obs::Span span("bench.disabled");
    benchmark::DoNotOptimize(&span);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ObsSpanDisabled);

void BM_ObsSpanEnabled(benchmark::State& state) {
  obs::TraceCollector::instance().enable();
  for (auto _ : state) {
    const obs::Span span("bench.enabled");
    benchmark::DoNotOptimize(&span);
  }
  obs::TraceCollector::instance().disable();
  (void)obs::TraceCollector::instance().drain();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ObsSpanEnabled);

void BM_DisjointSetUnite(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(3);
  std::vector<std::pair<std::size_t, std::size_t>> edges;
  for (std::size_t i = 0; i < n; ++i) {
    edges.emplace_back(
        static_cast<std::size_t>(rng.uniform_int(0, 9999)),
        static_cast<std::size_t>(rng.uniform_int(0, 9999)));
  }
  for (auto _ : state) {
    DisjointSet ds(10000);
    for (const auto& [a, b] : edges) ds.unite(a, b);
    benchmark::DoNotOptimize(ds.num_sets());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(n));
}
BENCHMARK(BM_DisjointSetUnite)->Arg(100000);

}  // namespace
}  // namespace llmprism

BENCHMARK_MAIN();
