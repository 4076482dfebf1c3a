// The LLMPrism public API, in one include.
//
//   #include "llmprism/llmprism.hpp"
//
// pulls in everything an integrator needs: topology modelling, flow traces
// and CSV IO, the simulator (workload + noise generation), the analysis
// pipeline (Prism, PrismSession, OnlineMonitor, rendering), and the obs
// registry/exporters. Fine-grained headers under llmprism/<area>/ remain
// available for builds that want to include less, but this is THE entry
// point — examples/ and tools/ use it exclusively.
#pragma once

// ---- common vocabulary (ids, time, comm types, CLI flags) ----
#include "llmprism/common/comm_type.hpp"
#include "llmprism/common/flags.hpp"
#include "llmprism/common/ids.hpp"
#include "llmprism/common/log.hpp"
#include "llmprism/common/time.hpp"

// ---- physical topology (provider-known, the only non-flow input) ----
#include "llmprism/topology/topology.hpp"

// ---- flow data plane: records, columns, CSV + binary (LFT) import/export ----
#include "llmprism/flow/flow.hpp"
#include "llmprism/flow/io.hpp"
#include "llmprism/flow/lft.hpp"
#include "llmprism/flow/view.hpp"

// ---- workload + collection-noise simulator (ground-truthed traces) ----
#include "llmprism/simulator/cluster_sim.hpp"
#include "llmprism/simulator/ground_truth.hpp"
#include "llmprism/simulator/job_config.hpp"
#include "llmprism/simulator/noise.hpp"

// ---- the analysis pipeline (the paper's contribution) ----
#include "llmprism/core/attribution.hpp"
#include "llmprism/core/comm_type.hpp"
#include "llmprism/core/diagnosis.hpp"
#include "llmprism/core/job_recognition.hpp"
#include "llmprism/core/monitor.hpp"
#include "llmprism/core/parallelism_inference.hpp"
#include "llmprism/core/prism.hpp"
#include "llmprism/core/render.hpp"
#include "llmprism/core/session.hpp"
#include "llmprism/core/snapshot.hpp"
#include "llmprism/core/timeline.hpp"

// ---- self-observability (metrics registry, exporters, trace spans) ----
#include "llmprism/obs/metrics.hpp"
#include "llmprism/obs/trace_span.hpp"

// ---- job-facing observability plane (fleet exports) ----
#include "llmprism/export/config.hpp"
#include "llmprism/export/journal.hpp"
#include "llmprism/export/perfetto.hpp"
#include "llmprism/export/series.hpp"
#include "llmprism/export/view.hpp"

// ---- serving plane (prismd: framed ingest + HTTP query endpoints) ----
#include "llmprism/serve/daemon.hpp"
#include "llmprism/serve/frame.hpp"
#include "llmprism/serve/http.hpp"
