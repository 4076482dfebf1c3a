#include "llmprism/flow/io.hpp"

#include <array>
#include <charconv>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "llmprism/common/csv.hpp"
#include "llmprism/common/thread_pool.hpp"
#include "llmprism/obs/trace_span.hpp"
#include "metrics.hpp"

namespace llmprism {

namespace {

constexpr std::string_view kHeader = "start_ns,src,dst,bytes,duration_ns,switches";

// CSV-only ingest self-telemetry; the metrics shared with the LFT readers
// are in metrics.hpp.
obs::Counter& ingest_bad_rows_counter() {
  static obs::Counter& c = obs::default_registry().counter(
      "llmprism_ingest_bad_rows_total", "CSV rows rejected with a diagnostic");
  return c;
}

obs::Counter& ingest_chunks_counter() {
  static obs::Counter& c = obs::default_registry().counter(
      "llmprism_ingest_chunks_total",
      "Chunks dispatched by the parallel CSV decoder");
  return c;
}

std::string join_switches(const SwitchPath& path) {
  std::string out;
  for (std::size_t i = 0; i < path.size(); ++i) {
    if (i != 0) out += ';';
    out += std::to_string(path[i].value());
  }
  return out;
}

// --- allocation-free row decoding ------------------------------------------
// The hot path never materializes a std::string per field: fields are
// string_views into the input buffer and numbers go through from_chars.
// Diagnostics (the cold path) still build owned messages.

template <typename T>
bool parse_number_into(std::string_view s, std::string_view what, T& value,
                       std::string& error) {
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
  if (ec != std::errc{} || ptr != s.data() + s.size()) {
    error = "flow csv: bad " + std::string(what) + " field '" + std::string(s) +
            "'";
    return false;
  }
  return true;
}

bool parse_switches_into(std::string_view s, SwitchPath& path,
                         std::string& error) {
  path.clear();
  if (s.empty()) return true;
  std::size_t pos = 0;
  while (pos <= s.size()) {
    const std::size_t next = s.find(';', pos);
    const std::string_view tok =
        s.substr(pos, next == std::string_view::npos ? next : next - pos);
    std::uint32_t hop = 0;
    if (!parse_number_into(tok, "switch", hop, error)) return false;
    if (path.size() == SwitchPath::capacity()) {
      error = "too many switch hops (max " +
              std::to_string(SwitchPath::capacity()) + ")";
      return false;
    }
    path.push_back(SwitchId(hop));
    if (next == std::string_view::npos) break;
    pos = next + 1;
  }
  return true;
}

bool parse_fields(const std::array<std::string_view, 6>& f, FlowRecord& out,
                  std::string& error) {
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
  if (!parse_number_into(f[0], "start_ns", out.start_time, error) ||
      !parse_number_into(f[1], "src", src, error) ||
      !parse_number_into(f[2], "dst", dst, error) ||
      !parse_number_into(f[3], "bytes", out.bytes, error) ||
      !parse_number_into(f[4], "duration_ns", out.duration, error)) {
    return false;
  }
  out.src = GpuId(src);
  out.dst = GpuId(dst);
  return parse_switches_into(f[5], out.switches, error);
}

/// Decode one data line (trailing '\r' already stripped, non-blank, no
/// NUL). Plain lines split on commas in place; lines with quotes or
/// interior CRs take the legacy csv::parse_line path so RFC-4180 quoting
/// keeps its exact semantics.
bool parse_data_line(std::string_view line, FlowRecord& out,
                     std::string& error) {
  if (line.find('"') != std::string_view::npos ||
      line.find('\r') != std::string_view::npos) {
    std::vector<std::string> row;
    try {
      row = csv::parse_line(line);
    } catch (const std::exception& e) {
      error = e.what();
      return false;
    }
    if (row.size() != 6) {
      error = "expected 6 fields, got " + std::to_string(row.size());
      return false;
    }
    return parse_fields({row[0], row[1], row[2], row[3], row[4], row[5]}, out,
                        error);
  }

  std::array<std::string_view, 6> fields;
  std::size_t count = 0;
  std::size_t pos = 0;
  while (true) {
    const std::size_t next = line.find(',', pos);
    const std::string_view tok =
        next == std::string_view::npos ? line.substr(pos)
                                       : line.substr(pos, next - pos);
    if (count < fields.size()) fields[count] = tok;
    ++count;
    if (next == std::string_view::npos) break;
    pos = next + 1;
  }
  if (count != fields.size()) {
    error = "expected 6 fields, got " + std::to_string(count);
    return false;
  }
  return parse_fields(fields, out, error);
}

/// One chunk's worth of decoded rows. `errors[i].line` is 1-based within
/// the chunk; the stitch pass rebases it to the global physical line.
struct ChunkResult {
  FlowTrace trace;
  std::vector<ParseError> errors;
  std::size_t lines = 0;
};

void parse_chunk(std::string_view chunk, ChunkResult& out) {
  std::string error;
  std::size_t pos = 0;
  while (pos < chunk.size()) {
    const std::size_t nl = chunk.find('\n', pos);
    std::string_view line =
        chunk.substr(pos, nl == std::string_view::npos ? nl : nl - pos);
    pos = nl == std::string_view::npos ? chunk.size() : nl + 1;
    ++out.lines;
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (line.empty()) continue;
    if (line.find('\0') != std::string_view::npos) {
      out.errors.push_back({out.lines, "embedded NUL byte in row"});
      continue;
    }
    FlowRecord record;
    if (parse_data_line(line, record, error)) {
      out.trace.add(std::move(record));
    } else {
      out.errors.push_back({out.lines, std::move(error)});
      error.clear();
    }
  }
}

/// Locate the header (the first non-blank physical line). On success,
/// `result` is untouched and data starts at `data_offset` after
/// `header_lines` physical lines; on failure, `result` carries the exact
/// diagnostic-and-stop behaviour of the serial parser.
bool scan_header(std::string_view buffer, std::size_t& data_offset,
                 std::size_t& header_lines, ParseResult& result) {
  std::size_t lines = 0;
  std::size_t pos = 0;
  while (pos < buffer.size()) {
    const std::size_t nl = buffer.find('\n', pos);
    std::string_view line =
        buffer.substr(pos, nl == std::string_view::npos ? nl : nl - pos);
    pos = nl == std::string_view::npos ? buffer.size() : nl + 1;
    ++lines;
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (line.empty()) continue;
    // First non-blank line must be the header; anything else means the
    // file is not a flow CSV at all, so don't guess at its rows.
    result.lines_read = lines;
    if (line.find('\0') != std::string_view::npos) {
      result.errors.push_back({lines, "embedded NUL byte in row"});
      return false;
    }
    if (line != kHeader) {
      result.errors.push_back(
          {lines, "expected header '" + std::string(kHeader) + "', got '" +
                      std::string(line) + "'"});
      return false;
    }
    data_offset = pos;
    header_lines = lines;
    return true;
  }
  result.lines_read = lines;
  result.errors.push_back({lines, "empty input (missing header)"});
  return false;
}

}  // namespace

void write_csv(std::ostream& os, const FlowTrace& trace) {
  os << kHeader << '\n';
  for (const FlowRecord& f : trace) {
    const std::array<std::string, 6> row = {
        std::to_string(f.start_time),    std::to_string(f.src.value()),
        std::to_string(f.dst.value()),   std::to_string(f.bytes),
        std::to_string(f.duration),      join_switches(f.switches)};
    csv::write_row(os, row);
  }
}

ParseResult read_csv_checked(std::string_view buffer,
                             const CsvParseOptions& options) {
  const obs::Span span("ingest.csv");
  const obs::ScopedTimer timer(flow_metrics::ingest_parse_seconds());

  ParseResult result;
  std::size_t data_offset = 0;
  std::size_t header_lines = 0;
  if (!scan_header(buffer, data_offset, header_lines, result)) {
    flow_metrics::ingest_bytes().inc(buffer.size());
    ingest_bad_rows_counter().inc(result.errors.size());
    return result;
  }
  const std::string_view data = buffer.substr(data_offset);

  // Chunk count: bounded by the thread budget and by the floor on work per
  // chunk. The split depends only on (buffer, options) — never on
  // scheduling — which is the determinism argument (DESIGN.md, "Ingest
  // formats"): every line lands in the same chunk with the same local line
  // number at any thread count, and chunks are stitched in file order.
  const std::size_t threads = ThreadPool::resolve(options.num_threads);
  const std::size_t min_chunk = std::max<std::size_t>(1, options.min_chunk_bytes);
  const std::size_t num_chunks =
      std::max<std::size_t>(1, std::min(threads, data.size() / min_chunk));

  std::vector<std::string_view> chunks;
  chunks.reserve(num_chunks);
  std::size_t begin = 0;
  const std::size_t per_chunk = data.size() / num_chunks;
  while (begin < data.size()) {
    std::size_t end = data.size();
    if (chunks.size() + 1 < num_chunks) {
      // Round the nominal boundary forward to just past the next newline,
      // so every physical line lives in exactly one chunk.
      const std::size_t target = std::min(data.size(), begin + per_chunk);
      const std::size_t nl = data.find('\n', target == 0 ? 0 : target - 1);
      end = nl == std::string_view::npos ? data.size() : nl + 1;
    }
    chunks.push_back(data.substr(begin, end - begin));
    begin = end;
  }

  std::vector<ChunkResult> decoded(chunks.size());
  if (chunks.size() > 1) {
    // Each task owns its pre-sized slot; no shared mutable state.
    ThreadPool pool(chunks.size() - 1);
    parallel_for(&pool, chunks.size(),
                 [&](std::size_t i) { parse_chunk(chunks[i], decoded[i]); });
  } else if (!chunks.empty()) {
    parse_chunk(chunks[0], decoded[0]);
  }

  // Stitch in file order: rebase error lines to global physical numbers
  // and concatenate the chunk traces. Chunks of a time-sorted file are
  // sorted runs meeting in order, so append() keeps the result
  // known-sorted — the degenerate k-way merge, with zero physical sorts.
  std::size_t line_offset = header_lines;
  for (ChunkResult& chunk : decoded) {
    for (ParseError& e : chunk.errors) {
      result.errors.push_back({line_offset + e.line, std::move(e.message)});
    }
    result.trace.append(std::move(chunk.trace));
    line_offset += chunk.lines;
  }
  result.lines_read = line_offset;

  flow_metrics::ingest_bytes().inc(buffer.size());
  flow_metrics::ingest_rows().inc(result.trace.size());
  ingest_bad_rows_counter().inc(result.errors.size());
  ingest_chunks_counter().inc(chunks.size());
  return result;
}

ParseResult read_csv_checked(std::istream& is, const CsvParseOptions& options) {
  const std::string buffer(std::istreambuf_iterator<char>(is), {});
  return read_csv_checked(std::string_view(buffer), options);
}

FlowTrace read_csv(std::istream& is, const CsvParseOptions& options) {
  ParseResult result = read_csv_checked(is, options);
  if (!result.ok()) {
    const ParseError& first = result.errors.front();
    std::string message =
        "flow csv: line " + std::to_string(first.line) + ": " + first.message;
    if (result.errors.size() > 1) {
      message += " (+" + std::to_string(result.errors.size() - 1) +
                 " more bad lines)";
    }
    throw std::runtime_error(message);
  }
  return std::move(result.trace);
}

void write_csv_file(const std::string& path, const FlowTrace& trace) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("flow csv: cannot open for write: " + path);
  write_csv(os, trace);
}

FlowTrace read_csv_file(const std::string& path,
                        const CsvParseOptions& options) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("flow csv: cannot open for read: " + path);
  return read_csv(is, options);
}

}  // namespace llmprism
