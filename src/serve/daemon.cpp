#include "llmprism/serve/daemon.hpp"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "llmprism/common/log.hpp"
#include "llmprism/common/thread_pool.hpp"
#include "llmprism/common/time.hpp"
#include "llmprism/core/render.hpp"
#include "llmprism/core/snapshot.hpp"
#include "llmprism/export/view.hpp"
#include "llmprism/flow/lft.hpp"
#include "llmprism/obs/metrics.hpp"
#include "llmprism/serve/frame.hpp"
#include "llmprism/serve/queue.hpp"

#if __has_include(<sys/socket.h>) && __has_include(<sys/un.h>) && \
    __has_include(<poll.h>)
#define LLMPRISM_SERVE_HAVE_SOCKETS 1
#include <arpa/inet.h>
#include <csignal>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#else
#define LLMPRISM_SERVE_HAVE_SOCKETS 0
#include <csignal>
#endif

namespace llmprism::serve {

namespace {

// ---- serve metrics: fed from DaemonStats (DESIGN.md §6) ----

using ServeRegistryCounters = obs::TallyCounters<DaemonStats>;
constexpr ServeRegistryCounters::Field kServeCounters[] = {
    {"llmprism_serve_frames_total", "Well-formed ingest frames accepted",
     &DaemonStats::frames},
    {"llmprism_serve_frame_errors_total",
     "Ingest frames rejected (bad header or corrupt LFT payload)",
     &DaemonStats::frame_errors},
    {"llmprism_serve_flows_total", "Flows handed to shard queues",
     &DaemonStats::flows},
    {"llmprism_serve_chunk_bytes_total", "LFT chunk payload bytes accepted",
     &DaemonStats::chunk_bytes},
    {"llmprism_serve_backpressure_waits_total",
     "Producer blocks on a full shard ingest queue",
     &DaemonStats::backpressure_waits},
    {"llmprism_serve_http_requests_total", "HTTP query-plane requests",
     &DaemonStats::http_requests},
};

/// A process total: each daemon adds its own change at publish, so the
/// daemons of one process sum instead of the last writer winning.
obs::Gauge& queue_depth_gauge() {
  static obs::Gauge& g = obs::default_registry().gauge(
      "llmprism_serve_queue_depth",
      "Flow chunks currently queued across all shards");
  return g;
}

/// One parsed-and-validated flow chunk on its way to a shard worker.
struct Chunk {
  std::uint64_t stream_id = 0;
  FlowColumns flows;
};

/// Shards analyze side by side, so a zero thread count splits the
/// host's lanes among them instead of giving each a full-size pool.
MonitorConfig shard_monitor_config(const ServeConfig& config) {
  MonitorConfig out = config.monitor;
  if (out.prism.num_threads == 0) {
    out.prism.num_threads =
        std::max<std::size_t>(1, ThreadPool::resolve(0) / config.shards);
  }
  return out;
}

#if LLMPRISM_SERVE_HAVE_SOCKETS

// ---- POSIX socket plumbing ----

void close_fd(int& fd) {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

int listen_unix(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    throw std::runtime_error("serve: socket path too long: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  ::unlink(path.c_str());
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("serve: socket() failed");
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 16) != 0) {
    ::close(fd);
    throw std::runtime_error("serve: cannot bind " + path);
  }
  return fd;
}

int listen_tcp(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("serve: socket() failed");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 16) != 0) {
    ::close(fd);
    throw std::runtime_error("serve: cannot bind 127.0.0.1:" +
                             std::to_string(port));
  }
  return fd;
}

/// Accept with a poll timeout so the loop can observe the stop flag.
/// Returns -1 on timeout or shutdown.
int accept_poll(int listen_fd, const std::atomic<bool>& stopping) {
  if (stopping.load(std::memory_order_relaxed)) return -1;
  pollfd pfd{listen_fd, POLLIN, 0};
  const int ready = ::poll(&pfd, 1, 200);
  if (ready <= 0 || (pfd.revents & POLLIN) == 0) return -1;
  return ::accept(listen_fd, nullptr, nullptr);
}

/// Read exactly n bytes; false on EOF, error, or shutdown (the stop path
/// shuts the fd down, which fails the pending read).
bool read_exact(int fd, void* buf, std::size_t n) {
  auto* out = static_cast<char*>(buf);
  while (n > 0) {
    const ssize_t got = ::read(fd, out, n);
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) return false;
    out += got;
    n -= static_cast<std::size_t>(got);
  }
  return true;
}

bool write_all(int fd, const void* buf, std::size_t n) {
  const auto* p = static_cast<const char*>(buf);
  while (n > 0) {
    const ssize_t put = ::write(fd, p, n);
    if (put < 0 && errno == EINTR) continue;
    if (put <= 0) return false;
    p += put;
    n -= static_cast<std::size_t>(put);
  }
  return true;
}

#endif  // LLMPRISM_SERVE_HAVE_SOCKETS

void append_json_uint(std::string& out, const char* key, std::uint64_t v,
                      bool trailing_comma = true) {
  out += '"';
  out += key;
  out += "\":";
  out += std::to_string(v);
  if (trailing_comma) out += ',';
}

}  // namespace

std::vector<std::string> ServeConfig::validate() const {
  std::vector<std::string> errors = monitor.validate();
  for (std::string& e : exports.validate()) {
    errors.push_back(std::move(e));
  }
  if (shards == 0) errors.push_back("shards must be >= 1");
  if (queue_capacity == 0) errors.push_back("queue_capacity must be >= 1");
  if (ingest_port == 0 && ingest_socket.empty()) {
    errors.push_back("an ingest endpoint is required (socket path or port)");
  }
  if (http_port == 0 && http_socket.empty()) {
    errors.push_back("an HTTP endpoint is required (socket path or port)");
  }
  return errors;
}

// ---------------------------------------------------------------------------
// PrismDaemon

struct PrismDaemon::Impl {
  /// All state one shard worker owns. `mu` serializes the worker's ingest
  /// against HTTP queries; nothing else ever touches the monitor.
  struct Shard {
    Shard(const ClusterTopology& topology, const ServeConfig& config,
          std::size_t index)
        : monitor(topology, shard_monitor_config(config)),
          queue(config.queue_capacity) {
      // A shard suffix keeps a multi-shard daemon's shards from writing
      // over each other's files.
      const auto path = [&](const std::string& p) {
        if (p.empty() || config.shards <= 1) return p;
        return p + ".shard" + std::to_string(index);
      };
      snapshot_file = path(config.snapshot_path);
      journal_file = path(config.exports.journal_out);
      ExportConfig files;
      files.perfetto_out = path(config.exports.perfetto_out);
      files.series_out = path(config.exports.series_out);
      if (files.any_window_sink()) sinks.emplace(std::move(files));
    }

    std::mutex mu;
    OnlineMonitor monitor;
    BoundedQueue<Chunk> queue;
    std::string snapshot_file;
    /// The shard's one lifecycle journal: GET /journal reads it, and
    /// stop() finishes it and writes it to journal_file when one is set.
    IncidentJournal journal;
    std::string journal_file;
    /// The per-window Perfetto and series files, when configured.
    std::optional<ExportSinks> sinks;
    std::string last_report_json;  ///< latest window, GET /report
    std::thread worker;
  };

  ClusterTopology topology;
  ServeConfig config;

  std::atomic<bool> running{false};
  std::atomic<bool> stopping{false};
  // The only count of each serve event: stats() reads them, and the
  // registry is fed from stats().
  std::atomic<std::uint64_t> frames{0};
  std::atomic<std::uint64_t> frame_errors{0};
  std::atomic<std::uint64_t> flows{0};
  std::atomic<std::uint64_t> chunk_bytes{0};
  std::atomic<std::uint64_t> backpressure_waits{0};
  std::atomic<std::uint64_t> http_requests{0};
  std::atomic<std::uint64_t> snapshots_saved{0};
  std::atomic<std::uint64_t> snapshots_restored{0};
  std::atomic<std::uint64_t> windows_completed{0};

  /// What the registry has been told, guarded by publish_mu.
  std::mutex publish_mu;
  DaemonStats published;
  std::size_t published_queued = 0;

  std::vector<std::unique_ptr<Shard>> shards;
  /// The process-wide metrics and span-trace files: one of each, written
  /// after every shard's files.
  std::optional<ExportSinks> process_files;

  int ingest_fd = -1;
  int http_fd = -1;
  std::thread ingest_accept_thread;
  std::thread http_thread;
  std::mutex conn_mu;
  std::vector<int> conn_fds;
  std::vector<std::thread> conn_threads;

  Impl(const ClusterTopology& topo, ServeConfig cfg)
      : topology(topo), config(std::move(cfg)) {}

  DaemonStats stats() const {
    DaemonStats s;
    s.frames = frames.load(std::memory_order_relaxed);
    s.frame_errors = frame_errors.load(std::memory_order_relaxed);
    s.flows = flows.load(std::memory_order_relaxed);
    s.chunk_bytes = chunk_bytes.load(std::memory_order_relaxed);
    s.backpressure_waits = backpressure_waits.load(std::memory_order_relaxed);
    s.http_requests = http_requests.load(std::memory_order_relaxed);
    s.snapshots_saved = snapshots_saved.load(std::memory_order_relaxed);
    s.snapshots_restored = snapshots_restored.load(std::memory_order_relaxed);
    s.windows_completed = windows_completed.load(std::memory_order_relaxed);
    return s;
  }

  /// Add the counts' growth since the last publish to the registry, and
  /// this daemon's change of queued chunks to the depth gauge. Counts are
  /// read under the lock, so concurrent publishes never go backwards.
  void publish_metrics() {
    static const ServeRegistryCounters counters(kServeCounters);
    const std::lock_guard lock(publish_mu);
    counters.publish(stats(), published);
    std::size_t queued = 0;
    for (const auto& shard : shards) queued += shard->queue.depth();
    queue_depth_gauge().add(static_cast<double>(queued) -
                            static_cast<double>(published_queued));
    published_queued = queued;
  }

  Shard& shard_for(std::uint64_t stream_id) {
    return *shards[stream_id % shards.size()];
  }

  void worker_loop(Shard& shard) {
    while (auto chunk = shard.queue.pop()) {
      const std::lock_guard lock(shard.mu);
      std::vector<MonitorTick> ticks =
          shard.monitor.ingest(chunk->flows.view());
      for (MonitorTick& tick : ticks) {
        const WindowExportView view = export_view(tick);
        shard.journal.add_window(view);
        if (shard.sinks) shard.sinks->add_window(view);
        std::ostringstream json;
        write_report_json(json, tick.report);
        shard.last_report_json = std::move(json).str();
        windows_completed.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }

#if LLMPRISM_SERVE_HAVE_SOCKETS
  void ingest_accept_loop() {
    while (!stopping.load(std::memory_order_relaxed)) {
      const int fd = accept_poll(ingest_fd, stopping);
      if (fd < 0) continue;
      const std::lock_guard lock(conn_mu);
      if (stopping.load(std::memory_order_relaxed)) {
        ::close(fd);
        break;
      }
      // Reuse the slot of a finished connection (its thread released the
      // fd under this lock, its last action), so a daemon whose
      // collectors reconnect keeps one thread per live connection instead
      // of accumulating exited, unjoined ones.
      std::size_t idx = 0;
      while (idx < conn_fds.size() && conn_fds[idx] >= 0) ++idx;
      if (idx == conn_fds.size()) {
        conn_fds.push_back(fd);
        conn_threads.emplace_back();
      } else {
        conn_threads[idx].join();
        conn_fds[idx] = fd;
      }
      conn_threads[idx] = std::thread(
          [this, fd, idx] { ingest_conn_loop(fd, idx); });
    }
  }

  /// One framed-ingest connection: header, payload, reply, repeat. A
  /// corrupt LFT payload, or one naming a GPU or switch outside the
  /// topology, fails only that chunk; a corrupt header closes the
  /// connection (framing sync is lost).
  void ingest_conn_loop(int fd, std::size_t conn_index) {
    std::string payload;
    for (;;) {
      std::byte head[kFrameHeaderSize];
      if (!read_exact(fd, head, sizeof(head))) break;
      FrameHeader header;
      try {
        header = decode_frame_header(std::span<const std::byte>(head));
      } catch (const std::exception& e) {
        frame_errors.fetch_add(1, std::memory_order_relaxed);
        const std::string reply = encode_frame(FrameType::kError, 0, e.what());
        write_all(fd, reply.data(), reply.size());
        break;
      }
      payload.resize(static_cast<std::size_t>(header.payload_bytes));
      if (!payload.empty() &&
          !read_exact(fd, payload.data(), payload.size())) {
        break;
      }

      std::string reply;
      if (header.type == FrameType::kPing) {
        frames.fetch_add(1, std::memory_order_relaxed);
        reply = encode_ack(header.stream_id, AckPayload{});
      } else if (header.type == FrameType::kFlowChunk) {
        try {
          Chunk chunk;
          chunk.stream_id = header.stream_id;
          chunk.flows = read_lft_buffer(
              std::as_bytes(std::span(payload.data(), payload.size())));
          // An id outside the topology fails this chunk here, not the
          // shard worker once the chunk's window closes.
          if (const std::string error = topology.id_error(chunk.flows.view());
              !error.empty()) {
            throw std::out_of_range(error);
          }
          const std::size_t num_flows = chunk.flows.size();
          frames.fetch_add(1, std::memory_order_relaxed);
          flows.fetch_add(num_flows, std::memory_order_relaxed);
          chunk_bytes.fetch_add(payload.size(), std::memory_order_relaxed);

          AckPayload ack;
          ack.flows_accepted = num_flows;
          Shard& shard = shard_for(header.stream_id);
          const PushOutcome pushed = shard.queue.push(std::move(chunk));
          if (pushed.blocked) {
            backpressure_waits.fetch_add(1, std::memory_order_relaxed);
          }
          if (!pushed.accepted) break;  // shutting down
          ack.queue_depth = shard.queue.depth();
          ack.backpressure_waits =
              backpressure_waits.load(std::memory_order_relaxed);
          reply = encode_ack(header.stream_id, ack);
        } catch (const std::exception& e) {
          frame_errors.fetch_add(1, std::memory_order_relaxed);
          reply = encode_frame(FrameType::kError, header.stream_id, e.what());
        }
      } else {
        frame_errors.fetch_add(1, std::memory_order_relaxed);
        reply = encode_frame(FrameType::kError, header.stream_id,
                             "unexpected frame type");
      }
      if (!write_all(fd, reply.data(), reply.size())) break;
    }
    // Hand the fd back under the lock so stop() never shuts down a number
    // the kernel has already recycled for someone else.
    const std::lock_guard lock(conn_mu);
    ::close(fd);
    conn_fds[conn_index] = -1;
  }

  /// Query plane: one short-lived HTTP/1.0 exchange at a time.
  void http_loop() {
    while (!stopping.load(std::memory_order_relaxed)) {
      const int fd = accept_poll(http_fd, stopping);
      if (fd < 0) continue;
      std::string head;
      char buf[2048];
      while (head.size() < 64 * 1024 &&
             head.find("\r\n\r\n") == std::string::npos &&
             head.find('\n') == std::string::npos) {
        pollfd pfd{fd, POLLIN, 0};
        if (::poll(&pfd, 1, 2000) <= 0) break;
        const ssize_t got = ::read(fd, buf, sizeof(buf));
        if (got <= 0) break;
        head.append(buf, static_cast<std::size_t>(got));
      }
      HttpResponse response;
      HttpRequest request;
      if (parse_http_request(head, request)) {
        response = owner->handle_http(request);
      } else {
        response = {400, "text/plain; charset=utf-8", "bad request\n"};
      }
      const std::string wire = format_http_response(response);
      write_all(fd, wire.data(), wire.size());
      ::close(fd);
    }
  }
#endif  // LLMPRISM_SERVE_HAVE_SOCKETS

  PrismDaemon* owner = nullptr;
};

PrismDaemon::PrismDaemon(const ClusterTopology& topology, ServeConfig config) {
  if (const auto errors = config.validate(); !errors.empty()) {
    std::string message = "invalid serve configuration:";
    for (const std::string& e : errors) message += "\n  - " + e;
    throw std::invalid_argument(message);
  }
  impl_ = std::make_unique<Impl>(topology, std::move(config));
  impl_->owner = this;
}

PrismDaemon::~PrismDaemon() {
  if (impl_) stop();
}

void PrismDaemon::start() {
  Impl& d = *impl_;
  if (d.running.load()) return;
  // Made first: a trace file turns span collection on for the whole run.
  ExportConfig files;
  files.metrics_out = d.config.exports.metrics_out;
  files.trace_out = d.config.exports.trace_out;
  if (!files.empty()) d.process_files.emplace(files);

  for (std::size_t i = 0; i < d.config.shards; ++i) {
    d.shards.push_back(
        std::make_unique<Impl::Shard>(d.topology, d.config, i));
    Impl::Shard& shard = *d.shards.back();
    if (!shard.snapshot_file.empty()) {
      try {
        restore_snapshot_file(shard.snapshot_file, shard.monitor);
        d.snapshots_restored.fetch_add(1, std::memory_order_relaxed);
        log::info("serve: shard ", i, " restored warm state from ",
                  shard.snapshot_file);
      } catch (const std::exception& e) {
        // Missing file = first boot; anything else = corrupt snapshot.
        // Either way the shard starts cold — a daemon that refuses to boot
        // over stale state is worse than one that re-warms.
        log::warn("serve: shard ", i, " starting cold: ", e.what());
      }
    }
    shard.worker = std::thread([&d, &shard] { d.worker_loop(shard); });
  }

#if LLMPRISM_SERVE_HAVE_SOCKETS
  d.ingest_fd = d.config.ingest_port != 0 ? listen_tcp(d.config.ingest_port)
                                          : listen_unix(d.config.ingest_socket);
  try {
    d.http_fd = d.config.http_port != 0 ? listen_tcp(d.config.http_port)
                                        : listen_unix(d.config.http_socket);
  } catch (...) {
    close_fd(d.ingest_fd);
    throw;
  }
  d.ingest_accept_thread = std::thread([&d] { d.ingest_accept_loop(); });
  d.http_thread = std::thread([&d] { d.http_loop(); });
#else
  throw std::runtime_error(
      "serve: no socket support on this platform (handle_http remains "
      "usable in-process)");
#endif
  d.running.store(true);
}

void PrismDaemon::stop() {
  Impl& d = *impl_;
  if (d.stopping.exchange(true)) return;

#if LLMPRISM_SERVE_HAVE_SOCKETS
  // Listeners first (the accept loops observe `stopping` within 200 ms),
  // then the per-connection readers: shutting an fd down fails its pending
  // read, and closing the queues unblocks any producer stuck in push().
  if (d.ingest_accept_thread.joinable()) d.ingest_accept_thread.join();
  if (d.http_thread.joinable()) d.http_thread.join();
  close_fd(d.ingest_fd);
  close_fd(d.http_fd);
  {
    const std::lock_guard lock(d.conn_mu);
    for (const int fd : d.conn_fds) {
      if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
    }
  }
  for (auto& shard : d.shards) shard->queue.close();
  for (std::thread& t : d.conn_threads) {
    if (t.joinable()) t.join();
  }
  if (d.config.ingest_port == 0 && !d.config.ingest_socket.empty()) {
    ::unlink(d.config.ingest_socket.c_str());
  }
  if (d.config.http_port == 0 && !d.config.http_socket.empty()) {
    ::unlink(d.config.http_socket.c_str());
  }
#else
  for (auto& shard : d.shards) shard->queue.close();
#endif

  // Workers drain whatever was queued, then exit on the closed queue.
  for (auto& shard : d.shards) {
    if (shard->worker.joinable()) shard->worker.join();
  }

  // The queues are empty now, so this also takes the daemon's share of
  // the queue-depth gauge back.
  d.publish_metrics();

  // Snapshot WITHOUT flushing: the partial window's reorder buffer rides
  // along in the blob, so a restarted daemon produces byte-identical
  // subsequent reports (flushing here would analyze a truncated window a
  // continuous daemon never sees). The journals do end here: each
  // resolves its still-open incidents, as its file records them.
  for (std::size_t i = 0; i < d.shards.size(); ++i) {
    Impl::Shard& shard = *d.shards[i];
    const std::lock_guard lock(shard.mu);
    if (!shard.snapshot_file.empty()) {
      try {
        save_snapshot_file(shard.snapshot_file, shard.monitor);
        d.snapshots_saved.fetch_add(1, std::memory_order_relaxed);
      } catch (const std::exception& e) {
        log::error("serve: shard ", i, " snapshot failed: ", e.what());
      }
    }
    shard.journal.finish();
    if (!shard.journal_file.empty()) {
      std::ofstream out(shard.journal_file);
      shard.journal.write_jsonl(out);
      if (!out.flush()) log::error("serve: cannot write ", shard.journal_file);
    }
    if (shard.sinks) {
      for (const std::string& e : shard.sinks->write_files()) {
        log::error("serve: ", e);
      }
    }
  }
  if (d.process_files) {
    for (const std::string& e : d.process_files->write_files()) {
      log::error("serve: ", e);
    }
  }
  d.running.store(false);
}

bool PrismDaemon::running() const { return impl_->running.load(); }

DaemonStats PrismDaemon::stats() const { return impl_->stats(); }

HttpResponse PrismDaemon::handle_http(const HttpRequest& request) {
  Impl& d = *impl_;
  d.http_requests.fetch_add(1, std::memory_order_relaxed);

  if (request.method != "GET") {
    return {405, "text/plain; charset=utf-8", "only GET is supported\n"};
  }

  // The whole value must be a decimal shard index: no sign, whitespace or
  // trailing bytes. An empty value means shard 0.
  auto parse_shard = [&](std::size_t& out) -> bool {
    const std::string raw = query_param(request.query, "shard");
    out = 0;
    if (raw.empty()) return true;
    const char* end = raw.data() + raw.size();
    const auto [ptr, ec] = std::from_chars(raw.data(), end, out);
    return ec == std::errc() && ptr == end && out < d.shards.size();
  };

  if (request.path == "/healthz") {
    if (!d.running.load()) return {503, "text/plain; charset=utf-8", "starting\n"};
    return {200, "text/plain; charset=utf-8", "ok\n"};
  }

  if (request.path == "/metrics") {
    d.publish_metrics();
    std::ostringstream out;
    obs::default_registry().write_prometheus(out);
    return {200, "text/plain; version=0.0.4; charset=utf-8",
            std::move(out).str()};
  }

  if (request.path == "/statusz") {
    const DaemonStats s = stats();
    std::string body = "{";
    append_json_uint(body, "shards", d.shards.size());
    append_json_uint(body, "frames", s.frames);
    append_json_uint(body, "frame_errors", s.frame_errors);
    append_json_uint(body, "flows", s.flows);
    append_json_uint(body, "chunk_bytes", s.chunk_bytes);
    append_json_uint(body, "backpressure_waits", s.backpressure_waits);
    append_json_uint(body, "http_requests", s.http_requests);
    append_json_uint(body, "snapshots_saved", s.snapshots_saved);
    append_json_uint(body, "snapshots_restored", s.snapshots_restored);
    append_json_uint(body, "windows_completed", s.windows_completed, false);
    body += "}\n";
    return {200, "application/json", std::move(body)};
  }

  if (request.path == "/jobs") {
    std::string body = "[";
    bool first = true;
    for (std::size_t i = 0; i < d.shards.size(); ++i) {
      Impl::Shard& shard = *d.shards[i];
      const std::lock_guard lock(shard.mu);
      const MonitorStats& stats = shard.monitor.stats();
      std::vector<std::pair<MonitorJobId, std::size_t>> jobs(
          stats.job_windows.begin(), stats.job_windows.end());
      std::sort(jobs.begin(), jobs.end());
      for (const auto& [id, windows] : jobs) {
        if (!first) body += ',';
        first = false;
        body += "{";
        append_json_uint(body, "shard", i);
        append_json_uint(body, "job", id);
        append_json_uint(body, "windows", windows, false);
        body += "}";
      }
    }
    body += "]\n";
    return {200, "application/json", std::move(body)};
  }

  if (request.path == "/report") {
    std::size_t shard_index = 0;
    if (!parse_shard(shard_index)) {
      return {404, "text/plain; charset=utf-8", "no such shard\n"};
    }
    Impl::Shard& shard = *d.shards[shard_index];
    const std::lock_guard lock(shard.mu);
    if (shard.last_report_json.empty()) {
      return {404, "text/plain; charset=utf-8", "no window analyzed yet\n"};
    }
    return {200, "application/json", shard.last_report_json};
  }

  if (request.path == "/journal") {
    std::size_t shard_index = 0;
    if (!parse_shard(shard_index)) {
      return {404, "text/plain; charset=utf-8", "no such shard\n"};
    }
    Impl::Shard& shard = *d.shards[shard_index];
    const std::lock_guard lock(shard.mu);
    std::ostringstream out;
    shard.journal.write_jsonl(out);
    return {200, "application/x-ndjson", std::move(out).str()};
  }

  return {404, "text/plain; charset=utf-8", "not found\n"};
}

// ---------------------------------------------------------------------------
// run_main — the prismd / `prism serve` entry point

namespace {

std::atomic<int> g_stop_signal{0};

void on_stop_signal(int sig) { g_stop_signal.store(sig); }

}  // namespace

void add_shared_flags(cli::FlagSet& flags, SharedFlags& values) {
  TopologyConfig& topo = values.topology;
  flags.flag("--machines", "N",
             "machines in the cluster (required by serve; analyze and "
             "monitor derive it from the trace)",
             &topo.num_machines);
  flags.flag("--gpus-per-machine", "N", "GPUs per machine (default 8)",
             &topo.gpus_per_machine);
  flags.flag("--machines-per-leaf", "N", "machines per leaf switch",
             &topo.machines_per_leaf);
  flags.flag("--spines", "N", "spine switches", &topo.num_spines);
  flags.flag("--log-level", "LEVEL", "debug|info|warn|error|off",
             &values.log_level);
  ExportConfig& out = values.exports;
  flags.flag("--perfetto-out", "FILE",
             "reconstructed timelines as Chrome trace JSON (ui.perfetto.dev)",
             &out.perfetto_out);
  flags.flag("--series-out", "FILE",
             "per-job per-window metrics (OpenMetrics; .jsonl -> JSONL)",
             &out.series_out);
  flags.flag("--journal-out", "FILE",
             "incident lifecycle journal (JSONL, open -> update -> resolve)",
             &out.journal_out);
  flags.flag("--metrics-out", "FILE",
             "metrics registry dump (Prometheus text; .json -> JSON)",
             &out.metrics_out);
  flags.flag("--trace-out", "FILE",
             "pipeline trace spans as Chrome trace_event JSON",
             &out.trace_out);
}

int run_main(int argc, const char* const* argv, int begin) {
  SharedFlags shared;
  double window_seconds = 60.0;
  bool no_carry = false;
  std::uint64_t shards = 1;
  std::uint64_t queue_capacity = 64;
  ServeConfig config;

  cli::FlagSet flags("prism serve");
  add_shared_flags(flags, shared);
  flags.flag("--window", "S", "analysis window length in seconds (default 60)",
             &window_seconds);
  flags.flag("--no-carry", "disable the warm cross-window session",
             &no_carry);
  flags.flag("--shards", "N", "shard workers (stream S -> shard S%N)",
             &shards);
  flags.flag("--queue-capacity", "N",
             "chunks buffered per shard before backpressure (default 64)",
             &queue_capacity);
  flags.flag("--ingest-socket", "PATH",
             "Unix socket for LPF-framed flow chunks", &config.ingest_socket);
  flags.flag("--ingest-port", "PORT", "TCP ingest on 127.0.0.1 instead",
             &config.ingest_port);
  flags.flag("--http-socket", "PATH",
             "Unix socket for the HTTP query plane (curl --unix-socket)",
             &config.http_socket);
  flags.flag("--http-port", "PORT", "TCP HTTP on 127.0.0.1 instead",
             &config.http_port);
  flags.flag("--snapshot", "FILE",
             "warm-state snapshot saved on shutdown, restored on boot",
             &config.snapshot_path);

  if (const int rc = cli::finish_parse(flags, flags.parse(argc, argv, begin));
      rc >= 0) {
    return rc;
  }
  if (const int rc = cli::apply_log_level(flags, shared.log_level);
      rc >= 0) {
    return rc;
  }
  if (shared.topology.num_machines == 0) {
    std::fprintf(stderr,
                 "prism serve: --machines is required (no trace to derive the "
                 "topology from)\n");
    return 2;
  }

  config.shards = static_cast<std::size_t>(shards);
  config.queue_capacity = static_cast<std::size_t>(queue_capacity);
  config.monitor.window = from_seconds(window_seconds);
  config.monitor.reorder_slack = reorder_slack_for(config.monitor.window);
  config.monitor.carry_state = !no_carry;
  config.exports = shared.exports;

  try {
    const ClusterTopology topology = ClusterTopology::build(shared.topology);
    PrismDaemon daemon(topology, config);

    std::signal(SIGTERM, on_stop_signal);
    std::signal(SIGINT, on_stop_signal);
    daemon.start();
    if (config.ingest_port != 0) {
      std::printf("prismd: ingest on 127.0.0.1:%u\n", config.ingest_port);
    } else {
      std::printf("prismd: ingest on %s\n", config.ingest_socket.c_str());
    }
    if (config.http_port != 0) {
      std::printf("prismd: http on 127.0.0.1:%u\n", config.http_port);
    } else {
      std::printf("prismd: http on %s\n", config.http_socket.c_str());
    }
    std::fflush(stdout);

    while (g_stop_signal.load() == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    std::printf("prismd: signal %d, draining + snapshotting\n",
                g_stop_signal.load());
    daemon.stop();

    const DaemonStats s = daemon.stats();
    std::printf(
        "prismd: %llu frames (%llu errors), %llu flows, %llu windows, "
        "%llu backpressure waits\n",
        static_cast<unsigned long long>(s.frames),
        static_cast<unsigned long long>(s.frame_errors),
        static_cast<unsigned long long>(s.flows),
        static_cast<unsigned long long>(s.windows_completed),
        static_cast<unsigned long long>(s.backpressure_waits));
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "prismd: %s\n", e.what());
    return 1;
  }
}

}  // namespace llmprism::serve
