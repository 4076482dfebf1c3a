// Serving-plane tests (DESIGN.md §14): the LPF frame codec, the embedded
// HTTP parser, ServeConfig validation, and PrismDaemon end-to-end over
// real Unix sockets — ingest framed LFT chunks, query every endpoint,
// exercise the error paths (bad header closes the connection, corrupt LFT
// only fails the chunk), and the restart story: SIGTERM-equivalent stop()
// snapshots warm state, and a restored daemon's final report is
// byte-identical to a daemon that never stopped.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <set>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "llmprism/common/hash.hpp"
#include "llmprism/export/journal.hpp"
#include "llmprism/flow/lft.hpp"
#include "llmprism/obs/metrics.hpp"
#include "llmprism/serve/daemon.hpp"
#include "llmprism/serve/frame.hpp"
#include "llmprism/serve/http.hpp"
#include "llmprism/simulator/cluster_sim.hpp"

#if __has_include(<sys/un.h>)
#include <pthread.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#define LLMPRISM_TEST_HAVE_SOCKETS 1
#endif

namespace llmprism::serve {
namespace {

// --- LPF frame codec ------------------------------------------------------

std::span<const std::byte> bytes(const std::string& s) {
  return {reinterpret_cast<const std::byte*>(s.data()), s.size()};
}

TEST(FrameTest, HeaderRoundTrip) {
  FrameHeader in;
  in.type = FrameType::kFlowChunk;
  in.stream_id = 0x1122334455667788ull;
  in.payload_bytes = 12345;
  std::byte buf[kFrameHeaderSize];
  encode_frame_header(in, buf);
  const FrameHeader out = decode_frame_header(buf);
  EXPECT_EQ(out.version, kFrameVersion);
  EXPECT_EQ(out.type, FrameType::kFlowChunk);
  EXPECT_EQ(out.stream_id, in.stream_id);
  EXPECT_EQ(out.payload_bytes, in.payload_bytes);
}

TEST(FrameTest, EncodeFrameIsHeaderPlusPayload) {
  const std::string frame = encode_frame(FrameType::kFlowChunk, 7, "payload");
  ASSERT_EQ(frame.size(), kFrameHeaderSize + 7);
  const FrameHeader header = decode_frame_header(bytes(frame));
  EXPECT_EQ(header.type, FrameType::kFlowChunk);
  EXPECT_EQ(header.stream_id, 7u);
  EXPECT_EQ(header.payload_bytes, 7u);
  EXPECT_EQ(frame.substr(kFrameHeaderSize), "payload");
}

TEST(FrameTest, HeaderRejectsMalformedInput) {
  const std::string good = encode_frame(FrameType::kPing, 0, "");
  EXPECT_THROW((void)decode_frame_header(bytes(good).subspan(0, 10)),
               std::runtime_error);

  std::string bad_magic = good;
  bad_magic[0] = 'X';
  EXPECT_THROW((void)decode_frame_header(bytes(bad_magic)),
               std::runtime_error);

  std::string bad_version = good;
  bad_version[4] = 9;
  EXPECT_THROW((void)decode_frame_header(bytes(bad_version)),
               std::runtime_error);

  // payload_bytes beyond kMaxFramePayload (bytes 16..23 little-endian).
  std::string oversized = good;
  for (int i = 16; i < 24; ++i) oversized[i] = static_cast<char>(0xff);
  EXPECT_THROW((void)decode_frame_header(bytes(oversized)),
               std::runtime_error);
}

TEST(FrameTest, AckRoundTrip) {
  const AckPayload in{.flows_accepted = 41,
                      .queue_depth = 3,
                      .backpressure_waits = 2};
  const std::string frame = encode_ack(9, in);
  const FrameHeader header = decode_frame_header(bytes(frame));
  EXPECT_EQ(header.type, FrameType::kAck);
  EXPECT_EQ(header.stream_id, 9u);
  ASSERT_EQ(header.payload_bytes, 24u);
  const AckPayload out =
      decode_ack(bytes(frame).subspan(kFrameHeaderSize));
  EXPECT_EQ(out.flows_accepted, in.flows_accepted);
  EXPECT_EQ(out.queue_depth, in.queue_depth);
  EXPECT_EQ(out.backpressure_waits, in.backpressure_waits);

  EXPECT_THROW((void)decode_ack(bytes(frame).subspan(kFrameHeaderSize, 8)),
               std::runtime_error);
}

/// Lowercase hex of a byte string.
std::string hex(std::string_view s) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const char c : s) {
    out += kDigits[static_cast<unsigned char>(c) >> 4];
    out += kDigits[static_cast<unsigned char>(c) & 0xf];
  }
  return out;
}

// LPF must stay byte-stable: the round trips above would pass a layout
// change made symmetrically in the encoder and decoder.
TEST(FrameTest, GoldenBytes) {
  FrameHeader chunk;
  chunk.type = FrameType::kFlowChunk;
  chunk.stream_id = 0x0102030405060708ull;
  chunk.payload_bytes = 0x1234;
  std::byte head[kFrameHeaderSize];
  encode_frame_header(chunk, head);
  EXPECT_EQ(hex(std::string_view(reinterpret_cast<const char*>(head),
                                 sizeof(head))),
            "4c504631" "0100" "0100" "0807060504030201" "3412000000000000");

  const std::string ack = encode_ack(
      9, {.flows_accepted = 41, .queue_depth = 3, .backpressure_waits = 2});
  EXPECT_EQ(hex(ack),
            "4c504631" "0100" "0180" "0900000000000000" "1800000000000000"
            "2900000000000000" "0300000000000000" "0200000000000000");
}

// Every strict prefix of an ack frame, and the frame plus one byte, must
// fail cleanly with a "frame: " error.
TEST(FrameTest, EveryPrefixAndOneExtraByteFail) {
  const std::string good = encode_ack(9, {.flows_accepted = 41});
  for (std::size_t len = 0; len <= good.size(); ++len) {
    const std::string frame =
        len < good.size() ? good.substr(0, len) : good + '\0';
    try {
      (void)decode_frame_header(bytes(frame));
      (void)decode_ack(bytes(frame).subspan(kFrameHeaderSize));
      ADD_FAILURE() << frame.size() << " bytes accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_TRUE(std::string_view(e.what()).starts_with("frame: "))
          << frame.size() << " bytes: " << e.what();
    }
  }
}

// --- HTTP parsing ---------------------------------------------------------

TEST(HttpTest, ParsesRequestLine) {
  HttpRequest req;
  ASSERT_TRUE(
      parse_http_request("GET /report?shard=1&x=2 HTTP/1.0\r\n\r\n", req));
  EXPECT_EQ(req.method, "GET");
  EXPECT_EQ(req.path, "/report");
  EXPECT_EQ(req.query, "shard=1&x=2");
  EXPECT_EQ(query_param(req.query, "shard"), "1");
  EXPECT_EQ(query_param(req.query, "x"), "2");
  EXPECT_EQ(query_param(req.query, "missing"), "");

  ASSERT_TRUE(parse_http_request("GET /metrics HTTP/1.1\r\n", req));
  EXPECT_EQ(req.path, "/metrics");
  EXPECT_EQ(req.query, "");

  EXPECT_FALSE(parse_http_request("", req));
  EXPECT_FALSE(parse_http_request("nonsense", req));
  EXPECT_FALSE(parse_http_request("GET /x", req));
}

TEST(HttpTest, FormatsHttp10CloseResponse) {
  HttpResponse resp;
  resp.status = 404;
  resp.body = "nope";
  const std::string wire = format_http_response(resp);
  EXPECT_TRUE(wire.starts_with("HTTP/1.0 404"));
  EXPECT_NE(wire.find("Connection: close\r\n"), std::string::npos);
  EXPECT_NE(wire.find("Content-Length: 4\r\n"), std::string::npos);
  EXPECT_TRUE(wire.ends_with("\r\n\r\nnope"));
}

// --- ServeConfig validation -----------------------------------------------

TEST(ServeConfigTest, ValidatesEveryKnob) {
  ServeConfig cfg;
  EXPECT_TRUE(cfg.validate().empty());

  ServeConfig bad;
  bad.shards = 0;
  bad.queue_capacity = 0;
  bad.monitor.window = 0;
  const auto errors = bad.validate();
  EXPECT_GE(errors.size(), 3u);
  for (const std::string& e : errors) EXPECT_FALSE(e.empty());
}

#ifdef LLMPRISM_TEST_HAVE_SOCKETS

// --- end-to-end daemon over Unix sockets ----------------------------------

JobSimConfig job(std::uint32_t tp, std::uint32_t dp, std::uint32_t pp,
                 std::uint32_t steps) {
  JobSimConfig cfg;
  cfg.parallelism.tp = tp;
  cfg.parallelism.dp = dp;
  cfg.parallelism.pp = pp;
  cfg.parallelism.micro_batches = 4;
  cfg.num_steps = steps;
  return cfg;
}

struct ServeFixture {
  ClusterSimResult sim;
  /// Time-sliced LFT chunk images, what `prism convert --chunk-seconds`
  /// writes and a collector streams.
  std::vector<std::string> chunks;
};

/// Slice a simulated trace into four time-ordered LFT chunk images.
ServeFixture chunked(ClusterSimResult sim) {
  sim.trace.sort();
  const TimeWindow span = sim.trace.view().time_span();
  const DurationNs slice = (span.end - span.begin) / 4 + 1;
  std::vector<FlowColumns> parts(
      static_cast<std::size_t>((span.end - span.begin) / slice) + 1);
  for (const FlowRecord& f : sim.trace) {
    parts[static_cast<std::size_t>((f.start_time - span.begin) / slice)]
        .add(f);
  }
  std::vector<std::string> chunks;
  for (const FlowColumns& part : parts) {
    if (part.empty()) continue;
    std::ostringstream os;
    write_lft(os, part);
    chunks.push_back(os.str());
  }
  return ServeFixture{std::move(sim), std::move(chunks)};
}

ClusterSimConfig fixture_config() {
  ClusterSimConfig cfg;
  cfg.topology = {.num_machines = 8, .gpus_per_machine = 8,
                  .machines_per_leaf = 4, .num_spines = 2};
  cfg.jobs.push_back({job(8, 2, 2, 16), {}});
  cfg.jobs.push_back({job(8, 4, 1, 16), {}});
  cfg.seed = 33;
  return cfg;
}

const ServeFixture& fixture() {
  static const ServeFixture fix = chunked(run_cluster_sim(fixture_config()));
  return fix;
}

/// The fixture with a straggler rank in job 0, so windows raise incidents.
const ServeFixture& faulted_fixture() {
  static const ServeFixture fix = [] {
    ClusterSimConfig cfg = fixture_config();
    for (ClusterJobSpec& spec : cfg.jobs) spec.config.num_steps = 24;
    cfg.jobs[0].config.stragglers.push_back(
        {.rank = 8, .step_begin = 12, .step_end = 23, .slowdown = 2.5});
    return chunked(run_cluster_sim(cfg));
  }();
  return fix;
}

ServeConfig serve_config(const std::string& tag) {
  ServeConfig cfg;
  const std::string dir = ::testing::TempDir();
  cfg.ingest_socket = dir + "/" + tag + "-in.sock";
  cfg.http_socket = dir + "/" + tag + "-http.sock";
  cfg.snapshot_path = dir + "/" + tag + ".snap";
  // TempDir persists across runs; a stale snapshot would warm-start the
  // daemon with a watermark past the whole fixture trace.
  std::remove(cfg.snapshot_path.c_str());
  cfg.monitor.window = 2 * kSecond;
  cfg.monitor.reorder_slack = 0;
  cfg.monitor.carry_state = true;
  return cfg;
}

/// Minimal blocking LPF client (what a collector implements).
class Client {
 public:
  explicit Client(const std::string& socket_path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) throw std::runtime_error("socket() failed");
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (socket_path.size() >= sizeof(addr.sun_path)) {
      throw std::runtime_error("socket path too long");
    }
    socket_path.copy(addr.sun_path, socket_path.size());
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      throw std::runtime_error("connect failed: " + socket_path);
    }
  }
  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  void send_raw(std::string_view data) {
    std::size_t off = 0;
    while (off < data.size()) {
      const ssize_t n = ::write(fd_, data.data() + off, data.size() - off);
      if (n <= 0) throw std::runtime_error("write failed");
      off += static_cast<std::size_t>(n);
    }
  }

  /// Read exactly n bytes; "" on clean EOF at a frame boundary.
  std::string read_exact(std::size_t n) {
    std::string out(n, '\0');
    std::size_t off = 0;
    while (off < n) {
      const ssize_t got = ::read(fd_, out.data() + off, n - off);
      if (got == 0 && off == 0) return "";
      if (got <= 0) throw std::runtime_error("read failed");
      off += static_cast<std::size_t>(got);
    }
    return out;
  }

  struct Reply {
    FrameHeader header;
    std::string payload;
  };

  /// Send one frame and read the daemon's reply; nullopt on EOF (the
  /// daemon closed the connection).
  std::optional<Reply> roundtrip(FrameType type, std::uint64_t stream,
                                 std::string_view payload) {
    send_raw(encode_frame(type, stream, payload));
    const std::string head = read_exact(kFrameHeaderSize);
    if (head.empty()) return std::nullopt;
    Reply reply;
    reply.header = decode_frame_header(bytes(head));
    reply.payload = read_exact(reply.header.payload_bytes);
    return reply;
  }

 private:
  int fd_ = -1;
};

HttpResponse get(PrismDaemon& daemon, const std::string& target) {
  HttpRequest req;
  EXPECT_TRUE(parse_http_request("GET " + target + " HTTP/1.0\r\n", req));
  return daemon.handle_http(req);
}

TEST(DaemonTest, IngestsChunksAndServesEveryEndpoint) {
  const ServeFixture& fix = fixture();
  const ServeConfig cfg = serve_config("serve-e2e");
  PrismDaemon daemon(fix.sim.topology, cfg);
  daemon.start();
  ASSERT_TRUE(daemon.running());
  EXPECT_EQ(get(daemon, "/healthz").status, 200);

  {
    Client client(cfg.ingest_socket);
    const auto pong = client.roundtrip(FrameType::kPing, 0, "");
    ASSERT_TRUE(pong.has_value());
    EXPECT_EQ(pong->header.type, FrameType::kAck);
    EXPECT_EQ(decode_ack(bytes(pong->payload)).flows_accepted, 0u);

    std::uint64_t accepted = 0;
    for (const std::string& chunk : fix.chunks) {
      const auto reply = client.roundtrip(FrameType::kFlowChunk, 7, chunk);
      ASSERT_TRUE(reply.has_value());
      ASSERT_EQ(reply->header.type, FrameType::kAck)
          << std::string_view(reply->payload);
      accepted += decode_ack(bytes(reply->payload)).flows_accepted;
    }
    EXPECT_EQ(accepted, fix.sim.trace.size());
  }

  // stop() drains the queues, so the analysis state is final afterwards —
  // and the query plane stays up for inspection.
  daemon.stop();
  const DaemonStats stats = daemon.stats();
  EXPECT_EQ(stats.frames, fix.chunks.size() + 1);
  EXPECT_EQ(stats.frame_errors, 0u);
  EXPECT_EQ(stats.flows, fix.sim.trace.size());
  EXPECT_GE(stats.windows_completed, 2u);
  EXPECT_EQ(stats.snapshots_saved, 1u);

  EXPECT_EQ(get(daemon, "/healthz").status, 503)
      << "a stopped daemon must fail its health check";
  const HttpResponse metrics = get(daemon, "/metrics");
  EXPECT_EQ(metrics.status, 200);
  EXPECT_NE(metrics.body.find("llmprism_serve_frames_total"),
            std::string::npos);
  EXPECT_NE(metrics.body.find("llmprism_serve_backpressure_waits_total"),
            std::string::npos);
  EXPECT_NE(metrics.body.find("llmprism_serve_queue_depth"),
            std::string::npos);

  const HttpResponse jobs = get(daemon, "/jobs");
  EXPECT_EQ(jobs.status, 200);
  EXPECT_NE(jobs.body.find("\"job\":0"), std::string::npos);
  EXPECT_NE(jobs.body.find("\"job\":1"), std::string::npos);

  const HttpResponse report = get(daemon, "/report");
  EXPECT_EQ(report.status, 200);
  EXPECT_GT(report.body.size(), 100u);
  EXPECT_EQ(get(daemon, "/report?shard=0").body, report.body);
  EXPECT_EQ(get(daemon, "/journal").status, 200);
  EXPECT_EQ(get(daemon, "/statusz").status, 200);

  EXPECT_GE(get(daemon, "/nope").status, 404);
  EXPECT_GE(get(daemon, "/report?shard=9").status, 400);
  // The shard value is parsed whole: anything but a bare decimal index is
  // no such shard. Built directly, since a space cannot ride in a target.
  for (const char* path : {"/report", "/journal"}) {
    for (const char* value : {"0junk", "+0", "+1", " 0", " 1", "-1", "0x"}) {
      const HttpResponse r =
          daemon.handle_http({"GET", path, std::string("shard=") + value});
      EXPECT_EQ(r.status, 404) << path << "?shard=" << value;
      EXPECT_EQ(r.body, "no such shard\n") << path << "?shard=" << value;
    }
  }
  EXPECT_EQ(get(daemon, "/report?shard=").body, report.body)
      << "an empty shard value means shard 0";
}

TEST(DaemonTest, BadHeaderClosesConnectionCorruptChunkDoesNot) {
  const ServeFixture& fix = fixture();
  ServeConfig cfg = serve_config("serve-err");
  cfg.snapshot_path.clear();
  PrismDaemon daemon(fix.sim.topology, cfg);
  daemon.start();

  {
    // Framing desync: garbage where a header belongs. The daemon answers
    // kError and hangs up.
    Client client(cfg.ingest_socket);
    client.send_raw(std::string(kFrameHeaderSize, 'x'));
    const std::string head = client.read_exact(kFrameHeaderSize);
    ASSERT_FALSE(head.empty());
    const FrameHeader header = decode_frame_header(bytes(head));
    EXPECT_EQ(header.type, FrameType::kError);
    client.read_exact(header.payload_bytes);
    EXPECT_EQ(client.read_exact(kFrameHeaderSize), "") << "must close";
  }
  {
    // A well-framed but corrupt LFT payload fails only that chunk: the
    // same connection accepts a valid chunk immediately after.
    Client client(cfg.ingest_socket);
    const auto err =
        client.roundtrip(FrameType::kFlowChunk, 1, "this is not an LFT");
    ASSERT_TRUE(err.has_value());
    EXPECT_EQ(err->header.type, FrameType::kError);
    EXPECT_FALSE(err->payload.empty());

    const auto ok = client.roundtrip(FrameType::kFlowChunk, 1, fix.chunks[0]);
    ASSERT_TRUE(ok.has_value());
    EXPECT_EQ(ok->header.type, FrameType::kAck);
    EXPECT_GT(decode_ack(bytes(ok->payload)).flows_accepted, 0u);
  }
  daemon.stop();
  EXPECT_EQ(daemon.stats().frame_errors, 2u);
}

// A chunk that claims sorted rows it does not have fails the column check
// on the daemon's decode path, and only that chunk.
TEST(DaemonTest, ForgedSortFlagChunkIsAFrameError) {
  const ServeFixture& fix = fixture();
  ServeConfig cfg = serve_config("serve-sorted");
  cfg.snapshot_path.clear();
  PrismDaemon daemon(fix.sim.topology, cfg);
  daemon.start();

  FlowColumns unsorted;
  unsorted.add(fix.sim.trace[1]);
  unsorted.add(fix.sim.trace[0]);
  ASSERT_FALSE(unsorted.is_sorted());
  std::ostringstream os;
  write_lft(os, unsorted);
  std::string forged = os.str();
  forged[6] = static_cast<char>(lft::kFlagSorted);
  const std::uint64_t seal = xxhash64(forged.data(), forged.size() - 8);
  std::memcpy(forged.data() + forged.size() - 8, &seal, sizeof(seal));

  {
    Client client(cfg.ingest_socket);
    const auto err = client.roundtrip(FrameType::kFlowChunk, 1, forged);
    ASSERT_TRUE(err.has_value());
    EXPECT_EQ(err->header.type, FrameType::kError);
    EXPECT_NE(err->payload.find("rows are not sorted"), std::string::npos)
        << err->payload;
    const auto ok = client.roundtrip(FrameType::kFlowChunk, 1, fix.chunks[0]);
    ASSERT_TRUE(ok.has_value());
    EXPECT_EQ(ok->header.type, FrameType::kAck);
  }
  daemon.stop();
  EXPECT_EQ(daemon.stats().frame_errors, 1u);
}

// A well-framed chunk naming a GPU or switch outside the topology is a
// frame error like a corrupt LFT: it must never reach a shard worker,
// whose monitor would throw on it once the chunk's window closes.
TEST(DaemonTest, OutOfTopologyChunkIsAFrameError) {
  const ServeFixture& fix = fixture();
  ServeConfig cfg = serve_config("serve-ids");
  cfg.snapshot_path.clear();
  PrismDaemon daemon(fix.sim.topology, cfg);
  daemon.start();

  const auto forged_chunk = [&](auto&& forge) {
    FlowColumns trace;
    for (std::size_t i = 0; i < 16; ++i) {
      FlowRecord flow = fix.sim.trace[i];
      if (i == 0) forge(flow);
      trace.add(flow);
    }
    std::ostringstream os;
    write_lft(os, trace);
    return os.str();
  };
  const std::uint32_t num_gpus = fix.sim.topology.num_gpus();
  const std::uint32_t num_switches = fix.sim.topology.num_switches();
  const std::string bad_gpu =
      forged_chunk([&](FlowRecord& f) { f.dst = GpuId(num_gpus); });
  const std::string bad_switch = forged_chunk([&](FlowRecord& f) {
    f.switches.clear();
    f.switches.push_back(SwitchId(num_switches));
  });

  {
    Client client(cfg.ingest_socket);
    for (const std::string* chunk : {&bad_gpu, &bad_switch}) {
      const auto err = client.roundtrip(FrameType::kFlowChunk, 1, *chunk);
      ASSERT_TRUE(err.has_value());
      EXPECT_EQ(err->header.type, FrameType::kError);
      EXPECT_NE(err->payload.find("outside the topology"), std::string::npos)
          << err->payload;
    }
    for (const std::string& chunk : fix.chunks) {
      const auto ok = client.roundtrip(FrameType::kFlowChunk, 1, chunk);
      ASSERT_TRUE(ok.has_value());
      EXPECT_EQ(ok->header.type, FrameType::kAck);
    }
  }
  EXPECT_EQ(get(daemon, "/healthz").status, 200);
  daemon.stop();
  const DaemonStats stats = daemon.stats();
  EXPECT_EQ(stats.frame_errors, 2u);
  EXPECT_EQ(stats.flows, fix.sim.trace.size());
  EXPECT_GE(stats.windows_completed, 2u);
}

/// VmSize of this process in KiB; nullopt where /proc is absent.
std::optional<std::uint64_t> vm_size_kib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmSize:", 0) == 0) return std::stoull(line.substr(7));
  }
  return std::nullopt;
}

// A collector that reconnects must not leave one exited, unjoined reader
// thread (and its mapped stack) behind per connection: the accept loop
// reaps finished connections, so address space stays flat.
TEST(DaemonTest, ReconnectingCollectorsDoNotAccumulateThreads) {
  if (!vm_size_kib()) GTEST_SKIP() << "no /proc/self/status";
  pthread_attr_t attr;
  ASSERT_EQ(::pthread_attr_init(&attr), 0);
  std::size_t stack_bytes = 0;
  ASSERT_EQ(::pthread_attr_getstacksize(&attr, &stack_bytes), 0);
  ::pthread_attr_destroy(&attr);

  ServeConfig cfg = serve_config("serve-reap");
  cfg.snapshot_path.clear();
  PrismDaemon daemon(fixture().sim.topology, cfg);
  daemon.start();
  const auto cycle = [&] {
    Client client(cfg.ingest_socket);
    const auto pong = client.roundtrip(FrameType::kPing, 0, "");
    ASSERT_TRUE(pong.has_value());
  };
  for (int i = 0; i < 8; ++i) cycle();  // settle allocator and stack caches
  const std::uint64_t before = *vm_size_kib();
  constexpr std::uint64_t kCycles = 300;
  for (std::uint64_t i = 0; i < kCycles; ++i) cycle();
  const std::uint64_t after = *vm_size_kib();
  daemon.stop();

  const std::uint64_t grown = after > before ? after - before : 0;
  EXPECT_LT(grown, kCycles * (stack_bytes / 1024) / 16)
      << "VmSize grew " << grown << " KiB over " << kCycles
      << " connections; one thread stack is " << stack_bytes / 1024
      << " KiB";
}

TEST(DaemonTest, RestoredDaemonMatchesUninterruptedRun) {
  const ServeFixture& fix = fixture();
  ASSERT_GE(fix.chunks.size(), 4u);
  const std::size_t cut = fix.chunks.size() / 2;

  const auto feed = [&](const std::string& socket, std::size_t begin,
                        std::size_t end) {
    Client client(socket);
    for (std::size_t i = begin; i < end; ++i) {
      const auto reply =
          client.roundtrip(FrameType::kFlowChunk, 7, fix.chunks[i]);
      ASSERT_TRUE(reply.has_value());
      ASSERT_EQ(reply->header.type, FrameType::kAck);
    }
  };

  // Uninterrupted reference.
  ServeConfig ref_cfg = serve_config("serve-ref");
  ref_cfg.snapshot_path.clear();
  PrismDaemon reference(fix.sim.topology, ref_cfg);
  reference.start();
  feed(ref_cfg.ingest_socket, 0, fix.chunks.size());
  reference.stop();

  // Interrupted: first half, stop (snapshots), new daemon restores and
  // ingests the rest.
  const ServeConfig warm_cfg = serve_config("serve-warm");
  {
    PrismDaemon first(fix.sim.topology, warm_cfg);
    first.start();
    feed(warm_cfg.ingest_socket, 0, cut);
    first.stop();
    EXPECT_EQ(first.stats().snapshots_saved, 1u);
  }
  PrismDaemon second(fix.sim.topology, warm_cfg);
  second.start();
  EXPECT_EQ(second.stats().snapshots_restored, 1u);
  feed(warm_cfg.ingest_socket, cut, fix.chunks.size());
  second.stop();

  // The restored daemon's diagnosis is byte-identical to the daemon that
  // never stopped.
  EXPECT_EQ(get(second, "/report").body, get(reference, "/report").body);
  EXPECT_EQ(get(second, "/jobs").body, get(reference, "/jobs").body);
}

/// The whole file, or "" when it does not exist.
std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// Feed every chunk of `fix` on `stream`, each acked.
void feed_all(const std::string& socket, std::uint64_t stream,
              const ServeFixture& fix = fixture()) {
  Client client(socket);
  for (const std::string& chunk : fix.chunks) {
    const auto reply = client.roundtrip(FrameType::kFlowChunk, stream, chunk);
    ASSERT_TRUE(reply.has_value());
    ASSERT_EQ(reply->header.type, FrameType::kAck);
  }
}

// The serve counters are fed from DaemonStats, the only count of each
// event: at a scrape and after stop() each counter has moved by exactly
// its field, and a stopped daemon leaves no queued chunks in the gauge.
TEST(RegistryTallyTest, ServeCountersEqualDaemonStats) {
  const std::vector<std::pair<const char*, std::uint64_t DaemonStats::*>>
      fields = {
          {"llmprism_serve_frames_total", &DaemonStats::frames},
          {"llmprism_serve_frame_errors_total", &DaemonStats::frame_errors},
          {"llmprism_serve_flows_total", &DaemonStats::flows},
          {"llmprism_serve_chunk_bytes_total", &DaemonStats::chunk_bytes},
          {"llmprism_serve_backpressure_waits_total",
           &DaemonStats::backpressure_waits},
          {"llmprism_serve_http_requests_total", &DaemonStats::http_requests},
      };
  obs::Registry& registry = obs::default_registry();
  const auto read = [&] {
    std::vector<std::uint64_t> out;
    for (const auto& [name, field] : fields) {
      out.push_back(registry.counter(name).value());
    }
    return out;
  };
  obs::Gauge& depth = registry.gauge("llmprism_serve_queue_depth");
  const std::vector<std::uint64_t> before = read();
  const double depth_before = depth.value();

  ServeConfig cfg = serve_config("serve-tally");
  cfg.snapshot_path.clear();
  PrismDaemon daemon(fixture().sim.topology, cfg);
  daemon.start();
  {
    Client client(cfg.ingest_socket);
    const auto err = client.roundtrip(FrameType::kFlowChunk, 1, "not an LFT");
    ASSERT_TRUE(err.has_value());
    EXPECT_EQ(err->header.type, FrameType::kError);
  }
  feed_all(cfg.ingest_socket, 1);
  const auto expect_deltas = [&](const char* when) {
    const DaemonStats stats = daemon.stats();
    const std::vector<std::uint64_t> after = read();
    for (std::size_t i = 0; i < fields.size(); ++i) {
      EXPECT_EQ(after[i] - before[i], stats.*fields[i].second)
          << fields[i].first << " " << when;
    }
  };
  EXPECT_EQ(get(daemon, "/metrics").status, 200);
  expect_deltas("at a scrape");
  daemon.stop();
  expect_deltas("after stop()");
  EXPECT_EQ(daemon.stats().frame_errors, 1u);
  EXPECT_EQ(daemon.stats().flows, fixture().sim.trace.size());
  EXPECT_EQ(depth.value() - depth_before, 0.0);
}

// A multi-shard daemon writes the process-wide files once, at the
// configured paths, holding every shard's spans; only the per-shard files
// carry a ".shardN" suffix.
TEST(DaemonTest, ProcessFilesAreWrittenOnceForAllShards) {
  ServeConfig cfg = serve_config("serve-files");
  cfg.snapshot_path.clear();
  cfg.shards = 2;
  const std::string dir = ::testing::TempDir() + "/serve-files";
  cfg.exports.metrics_out = dir + ".prom";
  cfg.exports.trace_out = dir + "-trace.json";
  cfg.exports.journal_out = dir + ".journal.jsonl";
  std::vector<std::string> paths;
  for (const std::string& path :
       {cfg.exports.metrics_out, cfg.exports.trace_out,
        cfg.exports.journal_out}) {
    paths.push_back(path);
    for (const char* suffix : {".shard0", ".shard1"}) {
      paths.push_back(path + suffix);
    }
  }
  for (const std::string& path : paths) std::remove(path.c_str());

  PrismDaemon daemon(fixture().sim.topology, cfg);
  daemon.start();
  feed_all(cfg.ingest_socket, 0);
  feed_all(cfg.ingest_socket, 1);
  daemon.stop();
  const DaemonStats stats = daemon.stats();
  ASSERT_GE(stats.windows_completed, 4u);

  namespace fs = std::filesystem;
  for (const std::string& path : {cfg.exports.metrics_out,
                                  cfg.exports.trace_out}) {
    EXPECT_TRUE(fs::exists(path)) << path;
    EXPECT_FALSE(fs::exists(path + ".shard0")) << path;
    EXPECT_FALSE(fs::exists(path + ".shard1")) << path;
  }
  EXPECT_FALSE(fs::exists(cfg.exports.journal_out));
  EXPECT_TRUE(fs::exists(cfg.exports.journal_out + ".shard0"));
  EXPECT_TRUE(fs::exists(cfg.exports.journal_out + ".shard1"));
  EXPECT_NE(read_file(cfg.exports.metrics_out)
                .find("llmprism_serve_frames_total"),
            std::string::npos);

  // Every analyzed window left one monitor.window span, on its shard's
  // worker thread.
  const std::string trace = read_file(cfg.exports.trace_out);
  const std::string key = "\"name\":\"monitor.window\"";
  std::size_t windows = 0;
  std::set<std::string> threads;
  for (std::size_t at = trace.find(key); at != std::string::npos;
       at = trace.find(key, at + 1)) {
    ++windows;
    const std::size_t tid = trace.find("\"tid\":", at) + 6;
    threads.insert(trace.substr(tid, trace.find_first_of(",}", tid) - tid));
  }
  EXPECT_EQ(windows, stats.windows_completed);
  EXPECT_EQ(threads.size(), 2u);
}

// Each shard keeps one journal: GET /journal serves it while the daemon
// runs, and the journal file holds it finished, which /journal also
// serves once the daemon has stopped.
TEST(DaemonTest, JournalFileIsTheServedJournalFinished) {
  const ServeFixture& fix = faulted_fixture();
  ServeConfig cfg = serve_config("serve-journal");
  cfg.snapshot_path.clear();
  cfg.exports.journal_out = ::testing::TempDir() + "/serve-journal.jsonl";
  std::remove(cfg.exports.journal_out.c_str());

  // The reference: a monitor and a journal fed the same chunks.
  OnlineMonitor monitor(fix.sim.topology, cfg.monitor);
  IncidentJournal journal;
  std::uint64_t windows = 0;
  for (const std::string& chunk : fix.chunks) {
    const FlowColumns flows = read_lft_buffer(bytes(chunk));
    for (const MonitorTick& tick : monitor.ingest(flows.view())) {
      journal.add_window(export_view(tick));
      ++windows;
    }
  }
  ASSERT_GT(journal.num_events(), 0u) << "fixture must raise incidents";
  std::ostringstream running;
  journal.write_jsonl(running);
  journal.finish();
  std::ostringstream finished;
  journal.write_jsonl(finished);
  ASSERT_NE(running.str(), finished.str());

  PrismDaemon daemon(fix.sim.topology, cfg);
  daemon.start();
  feed_all(cfg.ingest_socket, 3, fix);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (daemon.stats().windows_completed < windows &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(daemon.stats().windows_completed, windows);
  EXPECT_EQ(get(daemon, "/journal").body, running.str());
  daemon.stop();
  EXPECT_EQ(read_file(cfg.exports.journal_out), finished.str());
  EXPECT_EQ(get(daemon, "/journal").body, finished.str());
}

/// Threads of this process; nullopt where /proc is absent.
std::optional<std::size_t> thread_count() {
  std::error_code ec;
  std::filesystem::directory_iterator it("/proc/self/task", ec);
  if (ec) return std::nullopt;
  return static_cast<std::size_t>(
      std::distance(it, std::filesystem::directory_iterator()));
}

// With num_threads = 0 the shards split the host's lanes: the pools of
// all shards together hold at most one lane per hardware thread, not a
// full-size pool each.
TEST(DaemonTest, ShardsSplitTheHostsLanes) {
  if (!thread_count()) GTEST_SKIP() << "no /proc/self/task";
  ServeConfig cfg = serve_config("serve-lanes");
  cfg.snapshot_path.clear();
  cfg.shards = 2;
  ASSERT_EQ(cfg.monitor.prism.num_threads, 0u);
  const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());

  const std::size_t before = *thread_count();
  PrismDaemon daemon(fixture().sim.topology, cfg);
  daemon.start();
  const std::size_t started = *thread_count() - before;
  daemon.stop();
  // Accept and HTTP loops, plus each shard's worker and its pool lanes
  // beyond the worker itself.
  EXPECT_LE(started, 2 + std::max(cfg.shards, hw)) << hw << " hw threads";
}

#endif  // LLMPRISM_TEST_HAVE_SOCKETS

}  // namespace
}  // namespace llmprism::serve
