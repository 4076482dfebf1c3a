// Differential tests for the chunk-parallel CSV decoder: for every input —
// clean, malformed, adversarially chunk-hostile — the ParseResult at 2, 4
// and 8 threads must be field-for-field identical to the serial (1-thread)
// parse: same trace records in the same order, same error lines and
// messages, same lines_read, same sortedness.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "llmprism/common/rng.hpp"
#include "llmprism/flow/io.hpp"

namespace llmprism {
namespace {

constexpr const char* kHeader = "start_ns,src,dst,bytes,duration_ns,switches\n";

/// Parse `input` serially and at several thread counts with a tiny chunk
/// size (so even small inputs actually fan out) and require bit-identical
/// results.
void expect_thread_invariant(const std::string& input,
                             const std::string& label) {
  const ParseResult serial =
      read_csv_checked(input, {.num_threads = 1, .min_chunk_bytes = 1});
  for (const std::size_t threads : {std::size_t{2}, std::size_t{4},
                                    std::size_t{8}}) {
    const ParseResult parallel = read_csv_checked(
        input, {.num_threads = threads, .min_chunk_bytes = 1});

    SCOPED_TRACE(label + " @ " + std::to_string(threads) + " threads");
    EXPECT_EQ(parallel.lines_read, serial.lines_read);
    ASSERT_EQ(parallel.trace.size(), serial.trace.size());
    for (std::size_t i = 0; i < serial.trace.size(); ++i) {
      EXPECT_EQ(parallel.trace[i], serial.trace[i]) << "flow " << i;
    }
    EXPECT_EQ(parallel.trace.is_sorted(), serial.trace.is_sorted());
    ASSERT_EQ(parallel.errors.size(), serial.errors.size());
    for (std::size_t i = 0; i < serial.errors.size(); ++i) {
      EXPECT_EQ(parallel.errors[i].line, serial.errors[i].line)
          << "error " << i;
      EXPECT_EQ(parallel.errors[i].message, serial.errors[i].message)
          << "error " << i;
    }
  }
}

TEST(CsvParallelTest, CleanRows) {
  std::string in = kHeader;
  for (int i = 0; i < 100; ++i) {
    in += std::to_string(i * 10) + ",1,2,1000,50,3;17\n";
  }
  expect_thread_invariant(in, "clean");

  // And the parse is actually correct, not just self-consistent.
  const ParseResult r =
      read_csv_checked(in, {.num_threads = 4, .min_chunk_bytes = 1});
  EXPECT_TRUE(r.ok());
  ASSERT_EQ(r.trace.size(), 100u);
  EXPECT_EQ(r.trace[99].start_time, 990);
  EXPECT_TRUE(r.trace.is_sorted());
}

TEST(CsvParallelTest, MalformedRowsKeepGlobalLineNumbers) {
  std::string in = kHeader;
  in += "0,1,2,1000,50,\n";           // line 2: good
  in += "bad,1,2,1000,50,\n";         // line 3: bad start_ns
  in += "\n";                         // line 4: blank (counts)
  in += "10,1,2\n";                   // line 5: wrong field count
  in += "20,1,2,100,5,1;2;3;4;5\n";   // line 6: >4 switch hops
  in += "30,1,2,100,5,7\n";           // line 7: good
  in += std::string("40,1,2,100,5,") + '\0' + "\n";  // line 8: embedded NUL
  in += "50,1,2,1e3,5,\n";            // line 9: bad bytes
  expect_thread_invariant(in, "malformed");

  const ParseResult r =
      read_csv_checked(in, {.num_threads = 8, .min_chunk_bytes = 1});
  EXPECT_EQ(r.lines_read, 9u);
  ASSERT_EQ(r.errors.size(), 5u);
  EXPECT_EQ(r.errors[0].line, 3u);
  EXPECT_EQ(r.errors[1].line, 5u);
  EXPECT_EQ(r.errors[2].line, 6u);
  EXPECT_EQ(r.errors[3].line, 8u);
  EXPECT_NE(r.errors[3].message.find("NUL"), std::string::npos);
  EXPECT_EQ(r.errors[4].line, 9u);
  ASSERT_EQ(r.trace.size(), 2u);
  EXPECT_EQ(r.trace[0].start_time, 0);
  EXPECT_EQ(r.trace[1].start_time, 30);
}

TEST(CsvParallelTest, CrlfAndFinalRowWithoutNewline) {
  std::string in = "start_ns,src,dst,bytes,duration_ns,switches\r\n";
  in += "1,2,3,4,5,\r\n";
  in += "6,7,8,9,10,11";  // final row, no trailing newline
  expect_thread_invariant(in, "crlf");

  const ParseResult r =
      read_csv_checked(in, {.num_threads = 2, .min_chunk_bytes = 1});
  EXPECT_TRUE(r.ok());
  ASSERT_EQ(r.trace.size(), 2u);
  EXPECT_EQ(r.trace[1].start_time, 6);
  ASSERT_EQ(r.trace[1].switches.size(), 1u);
}

TEST(CsvParallelTest, QuotedFieldsTakeTheSlowPath) {
  std::string in = kHeader;
  in += "\"1\",2,3,4,5,\n";         // quoted but valid
  in += "2,2,3,4,5,\"3;17\"\n";     // quoted switch list
  in += "\"oops,1,2,3,4,5\n";       // unterminated quote: one bad row
  in += "4,2,3,4,5,\n";
  expect_thread_invariant(in, "quoted");

  const ParseResult r =
      read_csv_checked(in, {.num_threads = 4, .min_chunk_bytes = 1});
  ASSERT_EQ(r.errors.size(), 1u);
  EXPECT_EQ(r.errors[0].line, 4u);
  ASSERT_EQ(r.trace.size(), 3u);
  ASSERT_EQ(r.trace[1].switches.size(), 2u);
  EXPECT_EQ(r.trace[1].switches[1], SwitchId(17));
}

TEST(CsvParallelTest, UnsortedInputPreservesFileOrder) {
  std::string in = kHeader;
  in += "300,1,2,10,5,\n";
  in += "100,3,4,10,5,\n";
  in += "200,5,6,10,5,\n";
  expect_thread_invariant(in, "unsorted");

  const ParseResult r =
      read_csv_checked(in, {.num_threads = 4, .min_chunk_bytes = 1});
  ASSERT_EQ(r.trace.size(), 3u);
  EXPECT_EQ(r.trace[0].start_time, 300);  // file order, never re-sorted
  EXPECT_EQ(r.trace[1].start_time, 100);
  EXPECT_FALSE(r.trace.is_sorted());
}

TEST(CsvParallelTest, SortedInputLoadsBornSorted) {
  std::string in = kHeader;
  for (int i = 0; i < 64; ++i) in += std::to_string(i) + ",1,2,10,5,\n";
  for (const std::size_t threads :
       {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    const ParseResult r = read_csv_checked(
        in, {.num_threads = threads, .min_chunk_bytes = 1});
    EXPECT_TRUE(r.trace.is_sorted()) << threads << " threads";
  }
}

TEST(CsvParallelTest, DegenerateInputs) {
  expect_thread_invariant("", "empty");
  expect_thread_invariant(kHeader, "header only");
  expect_thread_invariant(std::string(kHeader) + "\n\n\n", "blank lines");
  expect_thread_invariant("not,a,flow,header\n1,2,3,4,5,\n", "bad header");
  // Header preceded by blank lines, first data row immediately after.
  expect_thread_invariant("\n\n" + std::string(kHeader) + "1,2,3,4,5,\n",
                          "leading blanks");
}

TEST(CsvParallelTest, RandomizedDifferential) {
  // A realistic mixed corpus: mostly good rows with random hop lists,
  // seasoned with every kind of malformation at random positions. The
  // differential then sweeps thread counts over it.
  Rng rng(424242);
  std::string in = kHeader;
  for (int i = 0; i < 3000; ++i) {
    const int kind = static_cast<int>(rng.uniform_int(0, 19));
    if (kind == 0) {
      in += "junk row\n";
    } else if (kind == 1) {
      in += "\n";
    } else if (kind == 2) {
      in += "1,2,3,4\n";
    } else if (kind == 3) {
      in += std::to_string(i) + ",1,2,x,5,\n";
    } else {
      in += std::to_string(rng.uniform_int(-1000, 1'000'000)) + "," +
            std::to_string(rng.uniform_int(0, 255)) + "," +
            std::to_string(rng.uniform_int(0, 255)) + "," +
            std::to_string(rng.uniform_int(0, 1'000'000'000)) + "," +
            std::to_string(rng.uniform_int(0, 100'000)) + ",";
      const int hops = static_cast<int>(rng.uniform_int(0, 4));
      for (int h = 0; h < hops; ++h) {
        if (h > 0) in += ';';
        in += std::to_string(rng.uniform_int(0, 63));
      }
      in += rng.bernoulli(0.2) ? "\r\n" : "\n";
    }
  }
  expect_thread_invariant(in, "randomized");
}

TEST(CsvParallelTest, ChunkBoundaryStress) {
  // Sweep min_chunk_bytes so chunk boundaries land on every interesting
  // spot: mid-row, on a CRLF pair, just before the final unterminated row.
  std::string in = kHeader;
  in += "1,2,3,4,5,\r\n";
  in += "bad,2,3,4,5,\n";
  in += "6,7,8,9,10,1;2";
  const ParseResult serial =
      read_csv_checked(in, {.num_threads = 1, .min_chunk_bytes = 1});
  for (std::size_t chunk = 1; chunk <= in.size(); ++chunk) {
    const ParseResult r = read_csv_checked(
        in, {.num_threads = 8, .min_chunk_bytes = chunk});
    SCOPED_TRACE("min_chunk_bytes=" + std::to_string(chunk));
    EXPECT_EQ(r.lines_read, serial.lines_read);
    ASSERT_EQ(r.trace.size(), serial.trace.size());
    for (std::size_t i = 0; i < serial.trace.size(); ++i) {
      EXPECT_EQ(r.trace[i], serial.trace[i]);
    }
    ASSERT_EQ(r.errors.size(), serial.errors.size());
    for (std::size_t i = 0; i < serial.errors.size(); ++i) {
      EXPECT_EQ(r.errors[i].line, serial.errors[i].line);
      EXPECT_EQ(r.errors[i].message, serial.errors[i].message);
    }
  }
}

TEST(CsvParallelTest, ZeroThreadsMeansHardwareFanOut) {
  // num_threads = 0 resolves to the hardware count; the result must still
  // match serial (it routes through the same chunked path).
  std::string in = kHeader;
  for (int i = 0; i < 50; ++i) in += std::to_string(i) + ",1,2,10,5,\n";
  const ParseResult serial = read_csv_checked(in, {.num_threads = 1});
  const ParseResult hw =
      read_csv_checked(in, {.num_threads = 0, .min_chunk_bytes = 1});
  ASSERT_EQ(hw.trace.size(), serial.trace.size());
  for (std::size_t i = 0; i < serial.trace.size(); ++i) {
    EXPECT_EQ(hw.trace[i], serial.trace[i]);
  }
  EXPECT_TRUE(hw.ok());
}

TEST(CsvParallelTest, StreamOverloadMatchesBuffer) {
  std::string in = kHeader;
  in += "1,2,3,4,5,\n";
  in += "bad,2,3,4,5,\n";
  std::istringstream is(in);
  const ParseResult via_stream =
      read_csv_checked(is, {.num_threads = 4, .min_chunk_bytes = 1});
  const ParseResult via_buffer =
      read_csv_checked(in, {.num_threads = 4, .min_chunk_bytes = 1});
  EXPECT_EQ(via_stream.lines_read, via_buffer.lines_read);
  ASSERT_EQ(via_stream.trace.size(), via_buffer.trace.size());
  ASSERT_EQ(via_stream.errors.size(), via_buffer.errors.size());
  EXPECT_EQ(via_stream.errors[0].line, via_buffer.errors[0].line);
}

}  // namespace
}  // namespace llmprism
