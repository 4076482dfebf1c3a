// Internal registry handles shared by the flow library's readers and sorts.
//
// One definition each: inline functions, so every translation unit gets the
// same function-local static, registered on first use.
#pragma once

#include "llmprism/obs/metrics.hpp"

namespace llmprism::flow_metrics {

/// Physical sorts of either flow shape (FlowTrace, FlowColumns). Touched on
/// every sort() entry and every LFT load, so a run that never had to sort
/// exports it as 0.
inline obs::Counter& sorts() {
  static obs::Counter& c = obs::default_registry().counter(
      "llmprism_flowtrace_sorts_total",
      "Physical FlowTrace sorts performed (no-op sorts on already-sorted "
      "traces are not counted)");
  return c;
}

inline obs::Counter& ingest_bytes() {
  static obs::Counter& c = obs::default_registry().counter(
      "llmprism_ingest_bytes_total", "Bytes consumed by trace ingest (CSV + LFT)");
  return c;
}

inline obs::Counter& ingest_rows() {
  static obs::Counter& c = obs::default_registry().counter(
      "llmprism_ingest_rows_total", "Flow rows successfully ingested");
  return c;
}

inline obs::Histogram& ingest_parse_seconds() {
  static obs::Histogram& h = obs::default_registry().histogram(
      "llmprism_ingest_parse_seconds",
      "Wall time of one trace parse/load (CSV or LFT)");
  return h;
}

}  // namespace llmprism::flow_metrics
