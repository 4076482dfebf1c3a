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
#include <cstring>
#include <fstream>
#include <optional>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "llmprism/common/hash.hpp"
#include "llmprism/flow/lft.hpp"
#include "llmprism/flow/trace.hpp"
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

const ServeFixture& fixture() {
  static const ServeFixture fix = [] {
    ClusterSimConfig cfg;
    cfg.topology = {.num_machines = 8, .gpus_per_machine = 8,
                    .machines_per_leaf = 4, .num_spines = 2};
    cfg.jobs.push_back({job(8, 2, 2, 16), {}});
    cfg.jobs.push_back({job(8, 4, 1, 16), {}});
    cfg.seed = 33;
    ClusterSimResult sim = run_cluster_sim(cfg);
    sim.trace.sort();
    const TimeWindow span = sim.trace.span();
    const DurationNs slice = (span.end - span.begin) / 4 + 1;
    std::vector<FlowTrace> parts(
        static_cast<std::size_t>((span.end - span.begin) / slice) + 1);
    for (const FlowRecord& f : sim.trace) {
      parts[static_cast<std::size_t>(
          (f.start_time - span.begin) / slice)].add(f);
    }
    std::vector<std::string> chunks;
    for (const FlowTrace& part : parts) {
      if (part.empty()) continue;
      std::ostringstream os;
      write_lft(os, part);
      chunks.push_back(os.str());
    }
    return ServeFixture{std::move(sim), std::move(chunks)};
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

  FlowTrace unsorted;
  unsorted.add(fix.sim.trace.flows()[1]);
  unsorted.add(fix.sim.trace.flows()[0]);
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
    FlowTrace trace;
    for (std::size_t i = 0; i < 16; ++i) {
      FlowRecord flow = fix.sim.trace.flows()[i];
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

#endif  // LLMPRISM_TEST_HAVE_SOCKETS

}  // namespace
}  // namespace llmprism::serve
