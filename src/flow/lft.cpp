#include "llmprism/flow/lft.hpp"

#include <bit>
#include <cassert>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "llmprism/common/hash.hpp"
#include "llmprism/obs/metrics.hpp"
#include "llmprism/obs/trace_span.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define LLMPRISM_LFT_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

// The format is defined little-endian and the readers hand out zero-copy
// typed spans into the raw bytes, so a big-endian host would need a
// byte-swapping materialization path nobody has asked for yet.
static_assert(std::endian::native == std::endian::little,
              "LFT readers require a little-endian host");

namespace llmprism {

namespace {

using lft::kFlagSorted;
using lft::kHeaderSize;
using lft::kMagic;
using lft::kSectionCount;
using lft::kVersion;

constexpr std::size_t kTableSize = kSectionCount * sizeof(std::uint64_t);

constexpr const char* kSectionName[kSectionCount] = {
    "start_ns", "src",            "dst",       "bytes",
    "duration", "switch_offsets", "switch_ids"};

obs::Counter& ingest_bytes_counter() {
  static obs::Counter& c = obs::default_registry().counter(
      "llmprism_ingest_bytes_total", "Bytes consumed by trace ingest (CSV + LFT)");
  return c;
}

obs::Counter& ingest_rows_counter() {
  static obs::Counter& c = obs::default_registry().counter(
      "llmprism_ingest_rows_total", "Flow rows successfully ingested");
  return c;
}

obs::Histogram& ingest_parse_seconds() {
  static obs::Histogram& h = obs::default_registry().histogram(
      "llmprism_ingest_parse_seconds",
      "Wall time of one trace parse/load (CSV or LFT)");
  return h;
}

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("lft: " + what);
}

std::string hex64(std::uint64_t v) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out = "0x";
  for (int shift = 60; shift >= 0; shift -= 4) {
    out += kDigits[(v >> shift) & 0xf];
  }
  return out;
}

constexpr std::size_t padded(std::size_t n) { return (n + 7) & ~std::size_t{7}; }

std::uint64_t load_u64(const std::byte* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

/// Per-section byte sizes implied by the header counts, overflow-checked.
void expected_sizes(std::uint64_t n, std::uint64_t m,
                    std::uint64_t (&out)[kSectionCount]) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  if (n > (kMax - 8) / 8 || m > kMax / 4) fail("section size overflow");
  out[0] = n * 8;        // start_ns
  out[1] = n * 4;        // src
  out[2] = n * 4;        // dst
  out[3] = n * 8;        // bytes
  out[4] = n * 8;        // duration
  out[5] = (n + 1) * 8;  // switch_offsets
  out[6] = m * 4;        // switch_ids
}

/// Validate an LFT image and view its columns. `base` must be 8-byte
/// aligned (both readers map or allocate aligned storage), so the sections
/// can be handed out as typed spans directly.
FlowView validate_lft(const std::byte* base, std::size_t size) {
  if ((reinterpret_cast<std::uintptr_t>(base) & 7) != 0) {
    fail("internal: image not 8-byte aligned");
  }
  if (size < kHeaderSize) {
    fail("truncated header (" + std::to_string(size) + " bytes, need " +
         std::to_string(kHeaderSize) + ")");
  }
  if (std::memcmp(base, kMagic, sizeof(kMagic)) != 0) {
    fail("bad magic (not an LFT file)");
  }
  std::uint16_t version;
  std::uint16_t flags;
  std::memcpy(&version, base + 4, sizeof(version));
  std::memcpy(&flags, base + 6, sizeof(flags));
  if (version != kVersion) {
    fail("unsupported version " + std::to_string(version) + " (expected " +
         std::to_string(kVersion) + ")");
  }
  if ((flags & ~kFlagSorted) != 0) {
    fail("unknown flag bits " + hex64(flags & ~kFlagSorted));
  }
  const std::uint64_t n = load_u64(base + 8);
  const std::uint64_t m = load_u64(base + 16);
  std::uint32_t section_count;
  std::memcpy(&section_count, base + 24, sizeof(section_count));
  if (section_count != kSectionCount) {
    fail("unexpected section count " + std::to_string(section_count) +
         " (expected " + std::to_string(kSectionCount) + ")");
  }
  if (size < kHeaderSize + kTableSize) {
    fail("truncated section table (" + std::to_string(size) + " bytes)");
  }

  std::uint64_t expected[kSectionCount];
  expected_sizes(n, m, expected);
  std::uint64_t total = kHeaderSize + kTableSize;
  const std::byte* sections[kSectionCount];
  const auto num_flows = static_cast<std::size_t>(n);
  const bool sorted = (flags & kFlagSorted) != 0;
  for (std::size_t s = 0; s < kSectionCount; ++s) {
    const std::uint64_t stored =
        load_u64(base + kHeaderSize + s * sizeof(std::uint64_t));
    if (stored != expected[s]) {
      fail("section " + std::string(kSectionName[s]) + " size mismatch (got " +
           std::to_string(stored) + ", expected " + std::to_string(expected[s]) +
           ")");
    }
    sections[s] = base + total;
    const std::uint64_t step = padded(stored);
    if (step > std::numeric_limits<std::uint64_t>::max() - total) {
      fail("section size overflow");
    }
    total += step;
  }
  if (total > std::numeric_limits<std::uint64_t>::max() - 8) {
    fail("section size overflow");
  }
  total += 8;  // trailing checksum
  if (size != total) {
    fail("file size mismatch (got " + std::to_string(size) + " bytes, expected " +
         std::to_string(total) + ")");
  }

  const std::uint64_t stored_hash = load_u64(base + size - 8);
  const std::uint64_t computed_hash = xxhash64(base, size - 8);
  if (stored_hash != computed_hash) {
    fail("checksum mismatch (stored " + hex64(stored_hash) + ", computed " +
         hex64(computed_hash) + ")");
  }

  FlowView view;
  view.start_ns = {reinterpret_cast<const TimeNs*>(sections[0]), num_flows};
  view.src = {reinterpret_cast<const std::uint32_t*>(sections[1]), num_flows};
  view.dst = {reinterpret_cast<const std::uint32_t*>(sections[2]), num_flows};
  view.bytes = {reinterpret_cast<const std::uint64_t*>(sections[3]),
                num_flows};
  view.duration_ns = {reinterpret_cast<const DurationNs*>(sections[4]),
                      num_flows};
  view.switch_offsets = {reinterpret_cast<const std::uint64_t*>(sections[5]),
                         num_flows + 1};
  view.switch_ids = {reinterpret_cast<const std::uint32_t*>(sections[6]),
                     static_cast<std::size_t>(m)};
  view.sorted = sorted;

  if (const std::string error = view.switch_path_error(); !error.empty()) {
    fail(error);
  }

  // The sorted flag is a promise downstream binary searches rely on, so a
  // file that lies about it is rejected as corrupt rather than trusted.
  if (sorted) {
    for (std::size_t i = 1; i < num_flows; ++i) {
      const auto prev = std::tuple(view.start_ns[i - 1], view.src[i - 1],
                                   view.dst[i - 1], view.bytes[i - 1]);
      const auto cur = std::tuple(view.start_ns[i], view.src[i], view.dst[i],
                                  view.bytes[i]);
      if (cur < prev) {
        fail("sorted flag set but rows are not sorted (flow " +
             std::to_string(i) + ")");
      }
    }
  }
  return view;
}

/// Build an owning FlowTrace from validated columns, each row filled in
/// place by FlowView::record. The FlowTrace(vector) constructor verifies
/// order in one O(N) scan, so a sorted file yields a born-sorted trace:
/// later sort() calls are no-ops and llmprism_flowtrace_sorts_total stays
/// untouched.
FlowTrace trace_of(const FlowView& view) {
  std::vector<FlowRecord> rows(view.size());
  for (std::size_t i = 0; i < rows.size(); ++i) view.record(i, rows[i]);
  return FlowTrace(std::move(rows));
}

}  // namespace

void write_lft(std::ostream& os, const FlowTrace& trace) {
  const std::size_t n = trace.size();
  std::size_t m = 0;
  for (const FlowRecord& f : trace) m += f.switches.size();

  std::uint64_t sizes[kSectionCount];
  expected_sizes(n, m, sizes);
  std::size_t total = kHeaderSize + kTableSize;
  for (const std::uint64_t s : sizes) total += padded(s);
  total += 8;

  std::vector<std::byte> buf(total);  // zero-initialized: padding stays 0
  std::byte* p = buf.data();

  std::memcpy(p, kMagic, sizeof(kMagic));
  const std::uint16_t version = kVersion;
  const std::uint16_t flags = trace.is_sorted() ? kFlagSorted : 0;
  std::memcpy(p + 4, &version, sizeof(version));
  std::memcpy(p + 6, &flags, sizeof(flags));
  const std::uint64_t n64 = n;
  const std::uint64_t m64 = m;
  std::memcpy(p + 8, &n64, sizeof(n64));
  std::memcpy(p + 16, &m64, sizeof(m64));
  const std::uint32_t section_count = kSectionCount;
  const std::uint32_t reserved = 0;
  std::memcpy(p + 24, &section_count, sizeof(section_count));
  std::memcpy(p + 28, &reserved, sizeof(reserved));
  std::memcpy(p + kHeaderSize, sizes, kTableSize);

  std::byte* section[kSectionCount];
  std::size_t at = kHeaderSize + kTableSize;
  for (std::size_t s = 0; s < kSectionCount; ++s) {
    section[s] = p + at;
    at += padded(sizes[s]);
  }

  auto* start = reinterpret_cast<TimeNs*>(section[0]);
  auto* src = reinterpret_cast<std::uint32_t*>(section[1]);
  auto* dst = reinterpret_cast<std::uint32_t*>(section[2]);
  auto* bytes = reinterpret_cast<std::uint64_t*>(section[3]);
  auto* duration = reinterpret_cast<DurationNs*>(section[4]);
  auto* offsets = reinterpret_cast<std::uint64_t*>(section[5]);
  auto* hops = reinterpret_cast<std::uint32_t*>(section[6]);

  std::uint64_t hop_at = 0;
  offsets[0] = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const FlowRecord& f = trace[i];
    start[i] = f.start_time;
    src[i] = f.src.value();
    dst[i] = f.dst.value();
    bytes[i] = f.bytes;
    duration[i] = f.duration;
    for (const SwitchId s : f.switches) hops[hop_at++] = s.value();
    offsets[i + 1] = hop_at;
  }

  const std::uint64_t checksum = xxhash64(p, total - 8);
  std::memcpy(p + total - 8, &checksum, sizeof(checksum));

  os.write(reinterpret_cast<const char*>(p), static_cast<std::streamsize>(total));
  if (!os) throw std::runtime_error("lft: stream write failed");
}

FlowTrace read_lft(std::istream& is) {
  const obs::Span span("ingest.lft");
  const obs::ScopedTimer timer(ingest_parse_seconds());

  std::string raw(std::istreambuf_iterator<char>(is), {});
  // Copy into 8-aligned storage so the shared validator can hand out the
  // columns as typed spans (operator new aligns to at least max_align_t;
  // std::string::data has no such guarantee).
  auto image = std::make_unique<std::byte[]>(raw.size());
  std::memcpy(image.get(), raw.data(), raw.size());
  FlowTrace trace = trace_of(validate_lft(image.get(), raw.size()));

  ingest_bytes_counter().inc(raw.size());
  ingest_rows_counter().inc(trace.size());
  return trace;
}

FlowTrace read_lft_buffer(std::span<const std::byte> image) {
  const obs::Span span("ingest.lft_buffer");
  const obs::ScopedTimer timer(ingest_parse_seconds());

  // Copy into 8-aligned storage (same reason as read_lft: the caller's
  // buffer — a socket frame payload, typically — has no alignment
  // guarantee for the typed column reads).
  auto aligned = std::make_unique<std::byte[]>(image.size());
  if (!image.empty()) std::memcpy(aligned.get(), image.data(), image.size());
  FlowTrace trace = trace_of(validate_lft(aligned.get(), image.size()));

  ingest_bytes_counter().inc(image.size());
  ingest_rows_counter().inc(trace.size());
  return trace;
}

void write_lft_file(const std::string& path, const FlowTrace& trace) {
  std::ofstream os(path, std::ios::binary);
  if (!os) throw std::runtime_error("lft: cannot open for write: " + path);
  write_lft(os, trace);
}

FlowTrace read_lft_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("lft: cannot open for read: " + path);
  return read_lft(is);
}

bool is_lft(std::string_view prefix) {
  return prefix.size() >= sizeof(kMagic) &&
         std::memcmp(prefix.data(), kMagic, sizeof(kMagic)) == 0;
}

bool is_lft_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) return false;
  char head[sizeof(kMagic)];
  is.read(head, sizeof(head));
  return is.gcount() == sizeof(head) &&
         is_lft(std::string_view(head, sizeof(head)));
}

// ---------------------------------------------------------------------------
// MappedFlowTrace

MappedFlowTrace::MappedFlowTrace(const std::string& path) {
  const obs::Span span("ingest.lft_mmap");
  const obs::ScopedTimer timer(ingest_parse_seconds());

#if LLMPRISM_LFT_HAVE_MMAP
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) throw std::runtime_error("lft: cannot open for read: " + path);
  struct stat st{};
  if (::fstat(fd, &st) != 0 || st.st_size < 0) {
    ::close(fd);
    throw std::runtime_error("lft: cannot stat: " + path);
  }
  map_size_ = static_cast<std::size_t>(st.st_size);
  if (map_size_ > 0) {
    void* mapping = ::mmap(nullptr, map_size_, PROT_READ, MAP_PRIVATE, fd, 0);
    ::close(fd);
    if (mapping == MAP_FAILED) {
      throw std::runtime_error("lft: mmap failed: " + path);
    }
    base_ = static_cast<const std::byte*>(mapping);
    mmapped_ = true;
  } else {
    ::close(fd);
  }
#else
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("lft: cannot open for read: " + path);
  std::string raw(std::istreambuf_iterator<char>(is), {});
  map_size_ = raw.size();
  heap_ = std::make_unique<std::byte[]>(map_size_);
  std::memcpy(heap_.get(), raw.data(), map_size_);
  base_ = heap_.get();
#endif

  try {
    view_ = validate_lft(base_, map_size_);
  } catch (...) {
    reset();
    throw;
  }

  ingest_bytes_counter().inc(map_size_);
  ingest_rows_counter().inc(view_.size());
}

MappedFlowTrace::~MappedFlowTrace() { reset(); }

void MappedFlowTrace::reset() noexcept {
#if LLMPRISM_LFT_HAVE_MMAP
  if (mmapped_ && base_ != nullptr) {
    ::munmap(const_cast<std::byte*>(base_), map_size_);
  }
#endif
  base_ = nullptr;
  map_size_ = 0;
  mmapped_ = false;
  heap_.reset();
  view_ = {};
}

MappedFlowTrace::MappedFlowTrace(MappedFlowTrace&& other) noexcept
    : base_(std::exchange(other.base_, nullptr)),
      map_size_(std::exchange(other.map_size_, 0)),
      mmapped_(std::exchange(other.mmapped_, false)),
      heap_(std::move(other.heap_)),
      view_(std::exchange(other.view_, {})) {}

MappedFlowTrace& MappedFlowTrace::operator=(MappedFlowTrace&& other) noexcept {
  if (this != &other) {
    reset();
    base_ = std::exchange(other.base_, nullptr);
    map_size_ = std::exchange(other.map_size_, 0);
    mmapped_ = std::exchange(other.mmapped_, false);
    heap_ = std::move(other.heap_);
    view_ = std::exchange(other.view_, {});
  }
  return *this;
}

FlowRecord MappedFlowTrace::record(std::size_t i) const {
  assert(i < view_.size() && "MappedFlowTrace::record out of range");
  return view_.record(i);
}

FlowTrace MappedFlowTrace::to_trace() const { return trace_of(view_); }

}  // namespace llmprism
