#include "llmprism/flow/lft.hpp"

#include <cassert>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "llmprism/common/byte_codec.hpp"
#include "llmprism/obs/trace_span.hpp"
#include "metrics.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define LLMPRISM_LFT_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace llmprism {

namespace {

using codec::ByteReader;
using codec::ByteWriter;
using lft::kFlagSorted;
using lft::kHeaderSize;
using lft::kMagic;
using lft::kSectionCount;
using lft::kVersion;

constexpr const char* kPrefix = "lft: ";
constexpr std::size_t kTableSize = kSectionCount * sizeof(std::uint64_t);

constexpr const char* kSectionName[kSectionCount] = {
    "start_ns", "src",            "dst",       "bytes",
    "duration", "switch_offsets", "switch_ids"};

/// Count one decoded image. A sorted file is analyzed without any sort()
/// call, so the load itself touches the sort counter: the run's metrics
/// then show the zero sorts it took.
void note_load(std::size_t bytes, std::size_t rows) {
  flow_metrics::ingest_bytes().inc(bytes);
  flow_metrics::ingest_rows().inc(rows);
  flow_metrics::sorts();
}

constexpr std::uint64_t padded(std::uint64_t n) {
  return (n + 7) & ~std::uint64_t{7};
}

template <typename Column>
using element_of = typename std::remove_cvref_t<Column>::value_type;

/// Apply `f(column, rows)` to the seven columns of a FlowView or
/// FlowColumns in section order; `rows` is the element count of that
/// section in an image of n flows and m hops. The one place that knows
/// the section order.
template <typename Columns, typename F>
void for_each_section(Columns& c, std::uint64_t n, std::uint64_t m, F&& f) {
  f(c.start_ns, n);
  f(c.src, n);
  f(c.dst, n);
  f(c.bytes, n);
  f(c.duration_ns, n);
  f(c.switch_offsets, n + 1);
  f(c.switch_ids, m);
}

struct Shape {
  std::uint64_t rows = 0;
  std::uint64_t hops = 0;
  bool sorted = false;
};

/// Check everything in an image but the column contents — head, flags,
/// counts, section table, total size and seal — and leave `r` at the
/// first section.
Shape open_image(ByteReader& r, std::span<const std::byte> image) {
  if (image.size() < kHeaderSize) {
    r.fail("truncated header (" + std::to_string(image.size()) +
           " bytes, need " + std::to_string(kHeaderSize) + ")");
  }
  const std::uint16_t flags = r.head(kMagic, kVersion, "not an LFT file");
  if ((flags & ~kFlagSorted) != 0) {
    r.fail("unknown flag bits " + codec::hex64(flags & ~kFlagSorted));
  }
  Shape shape;
  shape.sorted = (flags & kFlagSorted) != 0;
  shape.rows = r.u64();
  shape.hops = r.u64();
  const std::uint32_t section_count = r.u32();
  if (section_count != kSectionCount) {
    r.fail("unexpected section count " + std::to_string(section_count) +
           " (expected " + std::to_string(kSectionCount) + ")");
  }
  r.skip(sizeof(std::uint32_t));  // reserved
  if (r.remaining() < kTableSize) {
    r.fail("truncated section table (" + std::to_string(image.size()) +
           " bytes)");
  }

  // Bounded so that no section size or its padding wraps around.
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  if (shape.rows > (kMax - 8) / 8 || shape.hops > (kMax - 8) / 4) {
    r.fail("section size overflow");
  }
  std::uint64_t total = kHeaderSize + kTableSize + sizeof(std::uint64_t);
  std::size_t s = 0;
  FlowView layout;  // only its column types are used
  for_each_section(layout, shape.rows, shape.hops,
                   [&](const auto& column, std::uint64_t rows) {
    const std::uint64_t stored = r.u64();
    const std::uint64_t expected = rows * sizeof(element_of<decltype(column)>);
    if (stored != expected) {
      r.fail("section " + std::string(kSectionName[s]) +
             " size mismatch (got " + std::to_string(stored) +
             ", expected " + std::to_string(expected) + ")");
    }
    if (padded(stored) > kMax - total) r.fail("section size overflow");
    total += padded(stored);
    ++s;
  });
  if (image.size() != total) {
    r.fail("file size mismatch (got " + std::to_string(image.size()) +
           " bytes, expected " + std::to_string(total) + ")");
  }
  codec::check_seal(image, kPrefix);
  return shape;
}

/// Validate an image and view its columns as typed spans straight into
/// it. Every section starts 8-padded, so an 8-aligned image (a page
/// mapping) yields aligned columns.
FlowView view_image(std::span<const std::byte> image) {
  ByteReader r(image, kPrefix);
  if ((reinterpret_cast<std::uintptr_t>(image.data()) & 7) != 0) {
    r.fail("internal: image not 8-byte aligned");
  }
  const Shape shape = open_image(r, image);
  FlowView view;
  for_each_section(view, shape.rows, shape.hops,
                   [&](auto& column, std::uint64_t rows) {
    using T = element_of<decltype(column)>;
    const std::span<const std::byte> bytes = r.take(padded(rows * sizeof(T)));
    column = {reinterpret_cast<const T*>(bytes.data()),
              static_cast<std::size_t>(rows)};
  });
  view.sorted = shape.sorted;
  if (const std::string error = view.column_error(); !error.empty()) {
    r.fail(error);
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
  const FlowColumns columns(trace);
  const std::uint64_t n = columns.size();
  const std::uint64_t m = columns.switch_ids.size();
  ByteWriter w;
  w.head(kMagic, kVersion, columns.sorted ? kFlagSorted : 0);
  w.u64(n);
  w.u64(m);
  w.u32(kSectionCount);
  w.u32(0);  // reserved
  for_each_section(columns, n, m, [&](const auto& column, std::uint64_t rows) {
    w.u64(rows * sizeof(element_of<decltype(column)>));
  });
  for_each_section(columns, n, m, [&](const auto& column, std::uint64_t) {
    w.array(column);
    w.pad_to(8);
  });
  w.seal();
  os.write(w.bytes().data(), static_cast<std::streamsize>(w.bytes().size()));
  if (!os) throw std::runtime_error("lft: stream write failed");
}

FlowColumns read_lft_columns(std::span<const std::byte> image) {
  const obs::Span span("ingest.lft_buffer");
  const obs::ScopedTimer timer(flow_metrics::ingest_parse_seconds());

  ByteReader r(image, kPrefix);
  const Shape shape = open_image(r, image);
  FlowColumns columns;
  for_each_section(columns, shape.rows, shape.hops,
                   [&](auto& column, std::uint64_t rows) {
    const std::uint64_t size = rows * sizeof(element_of<decltype(column)>);
    r.array(rows, column);
    r.skip(padded(size) - size);
  });
  columns.sorted = shape.sorted;
  if (const std::string error = columns.view().column_error(); !error.empty()) {
    r.fail(error);
  }

  note_load(image.size(), columns.size());
  return columns;
}

FlowTrace read_lft_buffer(std::span<const std::byte> image) {
  return trace_of(read_lft_columns(image).view());
}

FlowTrace read_lft(std::istream& is) {
  const std::string raw(std::istreambuf_iterator<char>(is), {});
  return read_lft_buffer(std::as_bytes(std::span(raw.data(), raw.size())));
}

void write_lft_file(const std::string& path, const FlowTrace& trace) {
  std::ofstream os(path, std::ios::binary);
  if (!os) throw std::runtime_error("lft: cannot open for write: " + path);
  write_lft(os, trace);
}

bool is_lft(std::string_view prefix) {
  return prefix.starts_with(std::string_view(kMagic, sizeof(kMagic)));
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
  const obs::ScopedTimer timer(flow_metrics::ingest_parse_seconds());

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
    view_ = view_image({base_, map_size_});
  } catch (...) {
    reset();
    throw;
  }

  note_load(map_size_, view_.size());
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
