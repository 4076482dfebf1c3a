// Tests for LFT, the binary flow-trace format: CSV<->LFT round-trip
// property tests, the zero-copy mmap reader, and a corrupt-file suite —
// every malformed input must fail with a descriptive std::runtime_error,
// never undefined behaviour.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <fstream>
#include <limits>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "llmprism/common/hash.hpp"
#include "llmprism/common/rng.hpp"
#include "llmprism/flow/io.hpp"
#include "llmprism/flow/lft.hpp"
#include "llmprism/flow/trace.hpp"
#include "llmprism/obs/metrics.hpp"

namespace llmprism {
namespace {

FlowRecord make_flow(TimeNs t, std::uint32_t src, std::uint32_t dst,
                     std::uint64_t bytes = 1000, DurationNs dur = 100) {
  FlowRecord f;
  f.start_time = t;
  f.src = GpuId(src);
  f.dst = GpuId(dst);
  f.bytes = bytes;
  f.duration = dur;
  return f;
}

/// Random trace exercising the format's whole value range: negative
/// (pre-epoch) times, huge byte counts, 0..4-hop switch paths.
FlowTrace random_trace(Rng& rng, int n, bool sorted) {
  FlowTrace t;
  for (int i = 0; i < n; ++i) {
    auto f = make_flow(
        static_cast<TimeNs>(rng.uniform_int(-1'000'000, 1'000'000)),
        static_cast<std::uint32_t>(rng.uniform_int(0, 4095)),
        static_cast<std::uint32_t>(rng.uniform_int(0, 4095)),
        rng.bernoulli(0.1) ? (1ull << 62) + 12345
                           : static_cast<std::uint64_t>(
                                 rng.uniform_int(0, 1'000'000'000)),
        static_cast<DurationNs>(rng.uniform_int(0, 1'000'000)));
    const int hops = static_cast<int>(rng.uniform_int(0, 4));
    for (int h = 0; h < hops; ++h) {
      f.switches.push_back(
          SwitchId(static_cast<std::uint32_t>(rng.uniform_int(0, 255))));
    }
    t.add(f);
  }
  if (sorted) t.sort();
  return t;
}

std::string lft_bytes(const FlowTrace& trace) {
  std::ostringstream os(std::ios::binary);
  write_lft(os, trace);
  return std::move(os).str();
}

FlowTrace from_bytes(const std::string& bytes) {
  std::istringstream is(bytes, std::ios::binary);
  return read_lft(is);
}

std::string write_temp(const std::string& bytes, const std::string& name) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return path;
}

void expect_equal(const FlowTrace& got, const FlowTrace& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], want[i]) << "flow " << i;
  }
}

/// Recompute and patch the trailing checksum after a deliberate mutation,
/// so the test reaches the validation stage it is aiming at instead of
/// tripping the checksum first.
void fix_checksum(std::string& bytes) {
  ASSERT_GE(bytes.size(), 8u);
  const std::uint64_t h = xxhash64(bytes.data(), bytes.size() - 8);
  std::memcpy(bytes.data() + bytes.size() - 8, &h, sizeof(h));
}

/// Every corrupt image must fail identically through both readers — the
/// stream materializer and the mmap one — with the same diagnostic.
void expect_both_fail(const std::string& bytes, const std::string& needle,
                      const std::string& name) {
  const std::string path = write_temp(bytes, name);
  for (const int reader : {0, 1}) {
    try {
      if (reader == 0) {
        (void)from_bytes(bytes);
      } else {
        const MappedFlowTrace mapped(path);
      }
      FAIL() << name << ": reader " << reader << " accepted corrupt input";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << name << ": reader " << reader << " said: " << e.what();
    }
  }
}

// ---------------------------------------------------------------------------
// Round trips

TEST(LftRoundTripTest, EmptyTrace) {
  const std::string bytes = lft_bytes(FlowTrace{});
  const FlowTrace back = from_bytes(bytes);
  EXPECT_TRUE(back.empty());
  EXPECT_TRUE(back.is_sorted());

  const MappedFlowTrace mapped(write_temp(bytes, "lft_empty.lft"));
  EXPECT_TRUE(mapped.empty());
  EXPECT_TRUE(mapped.sorted());
  EXPECT_EQ(mapped.byte_size(), bytes.size());
  EXPECT_TRUE(mapped.to_trace().empty());
}

TEST(LftRoundTripTest, RandomTracesStreamAndMmap) {
  Rng rng(20260806);
  for (int round = 0; round < 30; ++round) {
    const bool sorted = rng.bernoulli(0.5);
    const FlowTrace trace =
        random_trace(rng, static_cast<int>(rng.uniform_int(0, 200)), sorted);
    const std::string bytes = lft_bytes(trace);

    const FlowTrace back = from_bytes(bytes);
    expect_equal(back, trace);
    EXPECT_EQ(back.is_sorted(), trace.is_sorted()) << "round " << round;

    const MappedFlowTrace mapped(
        write_temp(bytes, "lft_rt_" + std::to_string(round) + ".lft"));
    EXPECT_EQ(mapped.size(), trace.size());
    EXPECT_EQ(mapped.sorted(), trace.is_sorted());
    expect_equal(mapped.to_trace(), trace);
    for (std::size_t i = 0; i < trace.size(); ++i) {
      EXPECT_EQ(mapped.record(i), trace[i]) << "round " << round;
    }
  }
}

TEST(LftRoundTripTest, MaxHopPathsSurvive) {
  FlowTrace t;
  auto f = make_flow(5, 1, 2);
  for (std::uint32_t h = 0; h < SwitchPath::capacity(); ++h) {
    f.switches.push_back(SwitchId(100 + h));
  }
  t.add(f);
  t.add(make_flow(9, 3, 4));  // zero hops right after a full path
  const FlowTrace back = from_bytes(lft_bytes(t));
  expect_equal(back, t);
  ASSERT_EQ(back[0].switches.size(), SwitchPath::capacity());
  EXPECT_EQ(back[0].switches[3], SwitchId(103));
}

TEST(LftRoundTripTest, CsvAndLftAgree) {
  // The same trace through both serializers decodes to identical records.
  Rng rng(77);
  const FlowTrace trace = random_trace(rng, 100, /*sorted=*/true);

  std::stringstream csv;
  write_csv(csv, trace);
  const FlowTrace via_csv = read_csv(csv);
  const FlowTrace via_lft = from_bytes(lft_bytes(trace));
  expect_equal(via_lft, via_csv);
}

TEST(LftRoundTripTest, SortedFileLoadsBornSortedWithZeroSorts) {
  Rng rng(13);
  const FlowTrace trace = random_trace(rng, 150, /*sorted=*/true);
  const std::string bytes = lft_bytes(trace);
  // Header flag (offset 6) records sortedness.
  EXPECT_EQ(static_cast<unsigned char>(bytes[6]), lft::kFlagSorted);

  obs::Counter& sorts =
      obs::default_registry().counter("llmprism_flowtrace_sorts_total");
  const std::uint64_t before = sorts.value();
  FlowTrace back = from_bytes(bytes);
  EXPECT_TRUE(back.is_sorted());
  back.sort();  // must be a no-op
  EXPECT_EQ(sorts.value(), before);
}

TEST(MappedFlowTraceTest, SortedLoadExportsTheSortCounter) {
  // A sorted file reaches the analysis without any sort() call. Loading it
  // still registers the sort counter, so the run's metrics show the zero
  // sorts it took. Nothing here sorts before the load.
  FlowTrace t;
  for (int i = 0; i < 4; ++i) t.add(make_flow(i, 1, 2));
  const MappedFlowTrace mapped(write_temp(lft_bytes(t), "lft_sorts.lft"));
  EXPECT_TRUE(mapped.view().sorted);
  std::ostringstream os;
  obs::default_registry().write_prometheus(os);
  EXPECT_NE(os.str().find("\nllmprism_flowtrace_sorts_total "),
            std::string::npos);
}

TEST(LftRoundTripTest, FileHelpersRoundTrip) {
  FlowTrace t;
  t.add(make_flow(1, 2, 3));
  const std::string path = ::testing::TempDir() + "/lft_file_rt.lft";
  write_lft_file(path, t);
  expect_equal(MappedFlowTrace(path).to_trace(), t);
  EXPECT_TRUE(is_lft_file(path));
}

// The owning readers copy each section out, so an image may start at any
// address (a socket frame payload has no alignment guarantee).
TEST(LftRoundTripTest, UnalignedBufferDecodes) {
  Rng rng(5);
  const FlowTrace trace = random_trace(rng, 40, /*sorted=*/true);
  const std::string buffer = "x" + lft_bytes(trace);
  const auto image =
      std::as_bytes(std::span(buffer.data() + 1, buffer.size() - 1));
  ASSERT_NE(reinterpret_cast<std::uintptr_t>(image.data()) % 2, 0u);
  const FlowTrace back = read_lft_buffer(image);
  expect_equal(back, trace);
  EXPECT_TRUE(back.is_sorted());
}

// LFT must stay byte-stable: the round trips above would pass a layout
// change made symmetrically in the writer and the readers, so these pin
// the size and XXH64 of fixed images.
TEST(LftTest, GoldenBytes) {
  const auto expect_image = [](const FlowTrace& trace, std::size_t size,
                               std::uint64_t digest, const char* name) {
    const std::string bytes = lft_bytes(trace);
    const std::uint64_t got = xxhash64(bytes.data(), bytes.size());
    EXPECT_EQ(bytes.size(), size) << name;
    EXPECT_EQ(got, digest) << name << std::hex << ": actual xxh64 0x" << got;
  };
  Rng sorted_rng(20261019);
  expect_image(random_trace(sorted_rng, 64, /*sorted=*/true), 3'192,
               0x739a32757a1bcac7ULL, "sorted");
  Rng unsorted_rng(7);
  expect_image(random_trace(unsorted_rng, 33, /*sorted=*/false), 1'656,
               0xdcb3fe1fae6489e7ULL, "unsorted");
  FlowTrace max_hops;
  auto full = make_flow(5, 1, 2);
  for (std::uint32_t h = 0; h < SwitchPath::capacity(); ++h) {
    full.switches.push_back(SwitchId(100 + h));
  }
  max_hops.add(full);
  max_hops.add(make_flow(9, 3, 4));
  expect_image(max_hops, 200, 0x4c7ad3439876ce6dULL, "max-hop");
  expect_image(FlowTrace{}, 104, 0x7376c6fb578d12f7ULL, "empty");
}

// ---------------------------------------------------------------------------
// The mmap reader's zero-copy surface

TEST(MappedFlowTraceTest, ColumnsViewTheFile) {
  FlowTrace t;
  auto f0 = make_flow(-7, 11, 22, 333, 44);
  f0.switches.push_back(SwitchId(5));
  f0.switches.push_back(SwitchId(6));
  t.add(f0);
  t.add(make_flow(8, 33, 44, 555, 66));

  const MappedFlowTrace m(write_temp(lft_bytes(t), "lft_cols.lft"));
  ASSERT_EQ(m.size(), 2u);
  const FlowView v = m.view();
  EXPECT_EQ(v.start_ns[0], -7);
  EXPECT_EQ(v.start_ns[1], 8);
  EXPECT_EQ(v.src[0], 11u);
  EXPECT_EQ(v.dst[1], 44u);
  EXPECT_EQ(v.bytes[0], 333u);
  EXPECT_EQ(v.duration_ns[1], 66);
  const auto offsets = v.switch_offsets;
  ASSERT_EQ(offsets.size(), 3u);
  EXPECT_EQ(offsets[0], 0u);
  EXPECT_EQ(offsets[1], 2u);
  EXPECT_EQ(offsets[2], 2u);
  const auto hops = v.switch_ids;
  ASSERT_EQ(hops.size(), 2u);
  EXPECT_EQ(hops[0], 5u);
  EXPECT_EQ(hops[1], 6u);
  // record() bounds are a debug-assert contract (no exception branch in
  // per-record paths); in-bounds access is the whole API.
  EXPECT_EQ(m.record(1).start_time, 8);
}

// Zero-copy: the view's columns lie inside the file's own mapping, as
// /proc/self/maps lists it.
TEST(MappedFlowTraceTest, ViewPointsIntoTheMapping) {
  Rng rng(11);
  const std::string path =
      write_temp(lft_bytes(random_trace(rng, 50, /*sorted=*/true)),
                 "lft_zero_copy.lft");
  const MappedFlowTrace m(path);
  std::ifstream maps("/proc/self/maps");
  if (!maps) GTEST_SKIP() << "no /proc/self/maps";
  const auto at = reinterpret_cast<std::uintptr_t>(m.view().switch_ids.data());
  bool inside = false;
  std::string line;
  while (std::getline(maps, line)) {
    if (!line.ends_with("/lft_zero_copy.lft")) continue;
    const std::size_t dash = line.find('-');
    const std::uintptr_t lo = std::stoull(line.substr(0, dash), nullptr, 16);
    const std::uintptr_t hi = std::stoull(line.substr(dash + 1), nullptr, 16);
    inside |= lo <= at && at < hi;
  }
  EXPECT_TRUE(inside) << "switch_ids is not in the file's mapping";
}

TEST(MappedFlowTraceTest, MoveTransfersTheMapping) {
  FlowTrace t;
  t.add(make_flow(1, 2, 3));
  MappedFlowTrace a(write_temp(lft_bytes(t), "lft_move.lft"));
  MappedFlowTrace b(std::move(a));
  EXPECT_EQ(b.size(), 1u);
  EXPECT_EQ(b.record(0), t[0]);
  MappedFlowTrace c(write_temp(lft_bytes(FlowTrace{}), "lft_move2.lft"));
  c = std::move(b);
  EXPECT_EQ(c.size(), 1u);
}

TEST(MappedFlowTraceTest, NonexistentFileThrows) {
  EXPECT_THROW(MappedFlowTrace("/nonexistent/nope.lft"), std::runtime_error);
  EXPECT_FALSE(is_lft_file("/nonexistent/nope.lft"));
}

// ---------------------------------------------------------------------------
// Format detection

TEST(LftDetectTest, MagicPrefix) {
  EXPECT_TRUE(is_lft(lft_bytes(FlowTrace{})));
  EXPECT_FALSE(is_lft("LFT"));  // too short to say yes
  EXPECT_FALSE(is_lft(""));
  EXPECT_FALSE(is_lft("start_ns,src,dst,bytes,duration_ns,switches\n"));
  const std::string csv_path =
      write_temp("start_ns,src,dst,bytes,duration_ns,switches\n", "det.csv");
  EXPECT_FALSE(is_lft_file(csv_path));
}

// ---------------------------------------------------------------------------
// Corrupt-file suite. Each case targets one validation stage; both readers
// must reject with the same descriptive error.

class LftCorruptTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(99);
    trace_ = random_trace(rng, 20, /*sorted=*/true);
    bytes_ = lft_bytes(trace_);
  }

  /// Byte offset where section `s` starts, recomputed from the on-disk
  /// section table exactly as the reader does.
  std::size_t section_offset(std::size_t s) const {
    std::size_t at = lft::kHeaderSize + lft::kSectionCount * 8;
    for (std::size_t i = 0; i < s; ++i) {
      std::uint64_t size;
      std::memcpy(&size, bytes_.data() + lft::kHeaderSize + i * 8,
                  sizeof(size));
      at += (size + 7) & ~std::uint64_t{7};
    }
    return at;
  }

  FlowTrace trace_;
  std::string bytes_;
};

TEST_F(LftCorruptTest, TruncatedHeader) {
  expect_both_fail(bytes_.substr(0, 16), "truncated header", "trunc_hdr.lft");
}

TEST_F(LftCorruptTest, TruncatedSectionTable) {
  expect_both_fail(bytes_.substr(0, lft::kHeaderSize + 8),
                   "truncated section table", "trunc_tbl.lft");
}

TEST_F(LftCorruptTest, TruncatedSectionData) {
  // Stored sizes are intact, so the cut shows up as a whole-file size
  // mismatch before any column is touched.
  expect_both_fail(bytes_.substr(0, bytes_.size() - 64), "file size mismatch",
                   "trunc_data.lft");
}

TEST_F(LftCorruptTest, TrailingGarbage) {
  expect_both_fail(bytes_ + "extra", "file size mismatch", "trail.lft");
}

TEST_F(LftCorruptTest, BadMagic) {
  bytes_[0] = 'X';
  expect_both_fail(bytes_, "bad magic", "magic.lft");
}

TEST_F(LftCorruptTest, WrongVersion) {
  bytes_[4] = 9;
  expect_both_fail(bytes_, "unsupported version 9", "version.lft");
}

TEST_F(LftCorruptTest, UnknownFlagBits) {
  bytes_[6] = static_cast<char>(bytes_[6] | 0x4);
  expect_both_fail(bytes_, "unknown flag bits", "flags.lft");
}

TEST_F(LftCorruptTest, WrongSectionCount) {
  bytes_[24] = 6;
  expect_both_fail(bytes_, "unexpected section count 6", "seccount.lft");
}

TEST_F(LftCorruptTest, NumFlowsOverflow) {
  // 2^61 flows: 8 * n overflows u64. Must be caught arithmetically, not by
  // attempting a multi-exabyte read.
  const std::uint64_t huge = 0x2000000000000000ULL;
  std::memcpy(bytes_.data() + 8, &huge, sizeof(huge));
  expect_both_fail(bytes_, "section size overflow", "overflow.lft");
}

TEST_F(LftCorruptTest, SectionSizeMismatch) {
  // Grow the stored size of the src column by one element.
  std::uint64_t size;
  std::memcpy(&size, bytes_.data() + lft::kHeaderSize + 8, sizeof(size));
  size += 4;
  std::memcpy(bytes_.data() + lft::kHeaderSize + 8, &size, sizeof(size));
  expect_both_fail(bytes_, "section src size mismatch", "secsize.lft");
}

TEST_F(LftCorruptTest, ChecksumMismatch) {
  bytes_[section_offset(3) + 2] ^= 0x40;  // flip a bit deep in a column
  expect_both_fail(bytes_, "checksum mismatch", "checksum.lft");
}

TEST_F(LftCorruptTest, CsrOffsetsNotMonotone) {
  const std::size_t off = section_offset(5);
  const std::uint64_t big = 1'000'000;
  std::memcpy(bytes_.data() + off + 8, &big, sizeof(big));  // offsets[1]
  fix_checksum(bytes_);
  // offsets[1] huge then offsets[2] small: either the hop-count cap or the
  // monotonicity check fires first; both name the broken CSR.
  expect_both_fail(bytes_, "switch", "csr_mono.lft");
}

TEST_F(LftCorruptTest, CsrTooManyHops) {
  // Claim every hop in the file belongs to flow 0.
  std::uint64_t m;
  std::memcpy(&m, bytes_.data() + 16, sizeof(m));
  ASSERT_GT(m, SwitchPath::capacity());  // random_trace makes plenty of hops
  const std::size_t off = section_offset(5);
  for (std::size_t i = 1; i <= trace_.size(); ++i) {
    std::memcpy(bytes_.data() + off + i * 8, &m, sizeof(m));
  }
  fix_checksum(bytes_);
  expect_both_fail(bytes_, "hops (max 4)", "csr_hops.lft");
}

TEST_F(LftCorruptTest, CsrWrongTotal) {
  // Last offset no longer equals num_switch_ids.
  const std::size_t off = section_offset(5) + trace_.size() * 8;
  std::uint64_t last;
  std::memcpy(&last, bytes_.data() + off, sizeof(last));
  ASSERT_GE(last, 1u);
  last -= 1;
  std::memcpy(bytes_.data() + off, &last, sizeof(last));
  fix_checksum(bytes_);
  expect_both_fail(bytes_, "switch offsets end at", "csr_total.lft");
}

TEST_F(LftCorruptTest, SortedFlagLie) {
  FlowTrace unsorted;
  unsorted.add(make_flow(100, 1, 2));
  unsorted.add(make_flow(50, 3, 4));
  ASSERT_FALSE(unsorted.is_sorted());
  bytes_ = lft_bytes(unsorted);
  ASSERT_EQ(bytes_[6], 0);
  bytes_[6] = static_cast<char>(lft::kFlagSorted);
  fix_checksum(bytes_);
  expect_both_fail(bytes_, "sorted flag set but rows are not sorted",
                   "sorted_lie.lft");
}

TEST_F(LftCorruptTest, EmptyFile) {
  expect_both_fail(std::string{}, "truncated header", "empty.lft");
}

// Every strict prefix of a valid image, and the image plus one byte, must
// fail cleanly through both readers with an "lft: " error.
TEST(LftTruncationTest, EveryPrefixAndOneExtraByteFail) {
  Rng rng(3);
  const std::string good = lft_bytes(random_trace(rng, 3, /*sorted=*/true));
  for (std::size_t len = 0; len <= good.size(); ++len) {
    const std::string bytes =
        len < good.size() ? good.substr(0, len) : good + '\0';
    const std::string path = write_temp(bytes, "lft_sweep.lft");
    for (const int reader : {0, 1}) {
      try {
        if (reader == 0) {
          (void)read_lft_buffer(
              std::as_bytes(std::span(bytes.data(), bytes.size())));
        } else {
          const MappedFlowTrace mapped(path);
        }
        ADD_FAILURE() << bytes.size() << " bytes: reader " << reader
                      << " accepted";
      } catch (const std::runtime_error& e) {
        EXPECT_TRUE(std::string_view(e.what()).starts_with("lft: "))
            << bytes.size() << " bytes: " << e.what();
      }
    }
  }
}

}  // namespace
}  // namespace llmprism
