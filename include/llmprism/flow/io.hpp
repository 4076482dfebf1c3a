// Flow-trace serialization (CSV). The on-disk format mirrors what a
// production collector would export:
//
//   start_ns,src,dst,bytes,duration_ns,switches
//
// where `switches` is a ';'-joined hop list, e.g. "3;17;4". CRLF line
// endings and a final row without a trailing newline are accepted; rows
// with embedded NUL bytes are rejected with a per-line diagnostic.
//
// Parsing is chunk-parallel: the input buffer is split on newline
// boundaries into roughly per-core chunks, each chunk is decoded with
// allocation-free std::from_chars field parsing on the common thread pool,
// and the chunk columns are appended back in file order. The result — row
// order, error lines/messages, lines_read — is bit-identical to the
// serial (one-chunk) parse at every thread count, and a time-sorted file
// yields born-sorted columns (the chunks are sorted runs whose ordered
// concatenation keeps the order known; zero physical sorts). The binary
// counterpart of this format lives in flow/lft.hpp.
#pragma once

#include <cstddef>
#include <istream>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "llmprism/flow/view.hpp"

namespace llmprism {

/// Write `flows` as CSV with a header row.
void write_csv(std::ostream& os, const FlowView& flows);

/// One rejected CSV row: the 1-based physical line number (blank lines and
/// the header count toward it, so the number matches what an editor shows)
/// and what was wrong with it.
struct ParseError {
  std::size_t line = 0;
  std::string message;
};

/// Outcome of a checked parse: every well-formed row, plus a diagnostic per
/// rejected one. A collector export with a few corrupt lines still yields
/// all its good flows — the caller decides whether errors are fatal.
struct ParseResult {
  FlowColumns trace;
  std::vector<ParseError> errors;
  /// Physical lines consumed (header and blank lines included).
  std::size_t lines_read = 0;

  [[nodiscard]] bool ok() const { return errors.empty(); }
};

/// Tuning knobs for the chunk-parallel CSV decoder. The defaults fan out
/// over the hardware; every setting yields bit-identical ParseResults
/// (enforced by tests/test_csv_parallel.cpp).
struct CsvParseOptions {
  /// Threads for chunked parsing, PrismConfig-style: 0 = one per hardware
  /// thread, 1 = the serial reference path, N = exactly N.
  std::size_t num_threads = 0;
  /// Minimum bytes per chunk: inputs smaller than num_threads * this use
  /// fewer chunks (possibly one) — fan-out overhead only pays past it.
  std::size_t min_chunk_bytes = 256 * 1024;
};

/// Parse a CSV flow trace without throwing on malformed rows: bad rows are
/// reported in `errors` (1-based physical line numbers) and skipped. A
/// missing header is itself an error (no rows are parsed without one).
[[nodiscard]] ParseResult read_csv_checked(std::string_view buffer,
                                           const CsvParseOptions& options = {});

/// Stream variant: slurps the stream, then parses the buffer as above.
[[nodiscard]] ParseResult read_csv_checked(std::istream& is,
                                           const CsvParseOptions& options = {});

/// Parse a CSV flow trace (header row required). Thin wrapper over
/// read_csv_checked() that throws std::runtime_error naming the first bad
/// line on any malformed input.
[[nodiscard]] FlowColumns read_csv(std::istream& is,
                                   const CsvParseOptions& options = {});

/// Convenience file wrappers; throw std::runtime_error if the file cannot
/// be opened.
void write_csv_file(const std::string& path, const FlowView& flows);
[[nodiscard]] FlowColumns read_csv_file(const std::string& path,
                                        const CsvParseOptions& options = {});

}  // namespace llmprism
