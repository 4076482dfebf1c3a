#include "stream.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "llmprism/core/monitor.hpp"
#include "llmprism/core/render.hpp"
#include "llmprism/export/journal.hpp"
#include "llmprism/export/view.hpp"
#include "llmprism/flow/lft.hpp"
#include "llmprism/serve/daemon.hpp"
#include "llmprism/serve/frame.hpp"

namespace prismbench {

namespace {

MonitorConfig monitor_config(const StreamInput& in) {
  MonitorConfig cfg;
  cfg.window = in.window;
  cfg.reorder_slack = in.reorder_slack;
  cfg.carry_state = true;
  cfg.prism.num_threads = 1;
  return cfg;
}

/// A blocking Unix-socket client connection (closed on destruction).
class Connection {
 public:
  explicit Connection(const std::string& path) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path)) {
      throw std::runtime_error("socket path too long: " + path);
    }
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0 ||
        ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      if (fd_ >= 0) ::close(fd_);
      throw std::runtime_error("cannot connect to " + path);
    }
  }
  ~Connection() { ::close(fd_); }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  void write_all(const std::string& bytes) {
    const char* p = bytes.data();
    std::size_t n = bytes.size();
    while (n > 0) {
      const ssize_t put = ::write(fd_, p, n);
      if (put < 0 && errno == EINTR) continue;
      if (put <= 0) throw std::runtime_error("ingest write failed");
      p += put;
      n -= static_cast<std::size_t>(put);
    }
  }

  void read_exact(void* buf, std::size_t n) {
    auto* out = static_cast<char*>(buf);
    while (n > 0) {
      const ssize_t got = ::read(fd_, out, n);
      if (got < 0 && errno == EINTR) continue;
      if (got <= 0) throw std::runtime_error("ingest connection closed");
      out += got;
      n -= static_cast<std::size_t>(got);
    }
  }

  /// Read one reply frame: its header and payload.
  serve::FrameHeader read_frame(std::string& payload) {
    std::byte head[serve::kFrameHeaderSize];
    read_exact(head, sizeof(head));
    const serve::FrameHeader header =
        serve::decode_frame_header(std::span<const std::byte>(head));
    payload.resize(static_cast<std::size_t>(header.payload_bytes));
    if (!payload.empty()) read_exact(payload.data(), payload.size());
    return header;
  }

 private:
  int fd_ = -1;
};

serve::HttpResponse get(serve::PrismDaemon& daemon, const std::string& path,
                        const std::string& query = "") {
  return daemon.handle_http(serve::HttpRequest{"GET", path, query});
}

/// Sum of the llmprism_analyze_seconds histogram in a Prometheus scrape.
double analyze_seconds_sum(const std::string& exposition) {
  const std::string needle = "\nllmprism_analyze_seconds_sum ";
  const std::size_t at = exposition.find(needle);
  if (at == std::string::npos) return 0.0;
  return std::strtod(exposition.c_str() + at + needle.size(), nullptr);
}

}  // namespace

WindowSchedule window_schedule(const StreamInput& in) {
  WindowSchedule sched;
  const std::size_t slots = in.images.size();
  sched.closes.assign(slots, std::vector<std::size_t>(in.streams, 0));
  sched.last_window.assign(in.streams, TimeWindow{});
  for (std::size_t s = 0; s < in.streams; ++s) {
    bool origin_set = false;
    TimeNs window_begin = 0;
    TimeNs watermark = 0;
    for (std::size_t c = 0; c < slots; ++c) {
      if (in.flows[c][s] == 0) continue;
      if (!origin_set) {
        origin_set = true;
        window_begin = in.first_start[c][s];
        watermark = window_begin;
      }
      watermark = std::max(watermark, in.max_start[c][s]);
      while (watermark - in.reorder_slack >= window_begin + in.window) {
        sched.last_window[s] = {window_begin, window_begin + in.window};
        window_begin += in.window;
        ++sched.closes[c][s];
        ++sched.total;
      }
    }
  }
  return sched;
}

StreamRun run_stream(const StreamInput& in, const WindowSchedule& schedule,
                     std::size_t shards, const std::string& socket_dir,
                     int setup_repeats, Calibrator* calibrator) {
  StreamRun run;
  serve::ServeConfig cfg;
  const std::string tag = std::to_string(::getpid());
  cfg.ingest_socket = socket_dir + "/i" + tag + ".sock";
  cfg.http_socket = socket_dir + "/h" + tag + ".sock";
  cfg.shards = shards;
  cfg.monitor = monitor_config(in);

  // Set-up: topology, daemon construction and start, the ingest
  // connection, and one ping round trip (the untimed warm-up op).
  std::unique_ptr<ClusterTopology> topology;
  std::unique_ptr<serve::PrismDaemon> daemon;
  std::unique_ptr<Connection> conn;
  std::vector<double> setups;
  std::vector<double> setups_ref;
  std::string payload;
  for (int rep = 0; rep < setup_repeats; ++rep) {
    conn.reset();
    daemon.reset();
    topology.reset();
    const double kernel_s = calibrator ? calibrator->run() : 0.0;
    const auto t0 = Clock::now();
    topology = std::make_unique<ClusterTopology>(
        ClusterTopology::build(in.topology));
    daemon = std::make_unique<serve::PrismDaemon>(*topology, cfg);
    daemon->start();
    conn = std::make_unique<Connection>(cfg.ingest_socket);
    conn->write_all(serve::encode_frame(serve::FrameType::kPing, 0, ""));
    if (conn->read_frame(payload).type != serve::FrameType::kAck) {
      throw std::runtime_error("daemon did not answer the ping");
    }
    setups.push_back(seconds_since(t0));
    if (calibrator) {
      setups_ref.push_back(Calibrator::at_reference(setups.back(), kernel_s));
    }
  }
  run.setup_s = median(setups);
  run.setup_ref_s = median(setups_ref);
  const double analyze_before =
      analyze_seconds_sum(get(*daemon, "/metrics").body);

  // The poller: /statusz in a loop, every answer time-stamped.
  std::atomic<bool> stop_polling{false};
  std::vector<std::pair<Clock::time_point, std::uint64_t>> polls;
  std::mutex polls_mu;
  std::thread poller([&] {
    auto last = Clock::now();
    while (!stop_polling.load(std::memory_order_relaxed)) {
      const serve::HttpResponse r = get(*daemon, "/statusz");
      const auto now = Clock::now();
      const std::uint64_t windows =
          json_uint(r.body, "windows_completed").value_or(0);
      {
        const std::lock_guard lock(polls_mu);
        run.poll_period_s.push_back(seconds_between(last, now));
        if (polls.empty() || polls.back().second != windows) {
          polls.emplace_back(now, windows);
        }
      }
      last = now;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });

  // The open-loop sender: slot c is due at t0 + c * chunk / compression,
  // whatever happened to earlier slots.
  const double slot_s = to_seconds(in.chunk) / in.compression;
  const auto t0 = Clock::now() + std::chrono::milliseconds(20);
  std::vector<Clock::time_point> due(in.images.size());
  std::size_t quiet_slots = 0;
  try {
    for (std::size_t c = 0; c < in.images.size(); ++c) {
      due[c] = t0 + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(c * slot_s));
      std::this_thread::sleep_until(due[c]);
      for (std::size_t s = 0; s < in.streams; ++s) {
        const auto sent = Clock::now();
        run.lateness_s.push_back(seconds_between(due[c], sent));
        conn->write_all(serve::encode_frame(serve::FrameType::kFlowChunk, s,
                                            in.images[c][s]));
        const serve::FrameHeader reply = conn->read_frame(payload);
        run.ack_rtt_s.push_back(seconds_since(sent));
        ++run.frames;
        if (reply.type == serve::FrameType::kAck) {
          const serve::AckPayload ack = serve::decode_ack(
              std::as_bytes(std::span(payload.data(), payload.size())));
          run.queue_depth_max = std::max(run.queue_depth_max, ack.queue_depth);
          run.backpressure_waits =
              std::max(run.backpressure_waits, ack.backpressure_waits);
        } else {
          ++run.error_acks;
        }
      }
      // In the slack before the next slot is due (the kernel takes about
      // half a slot at 10x), and only after a slot that closes no window,
      // so the kernel never shares the host with a window's analysis.
      std::size_t closes = 0;
      for (const std::size_t n : schedule.closes[c]) closes += n;
      if (calibrator && closes == 0 && quiet_slots++ % 4 == 0) {
        run.kernel_s.push_back(calibrator->run());
      }
    }
    // Wait (bounded) until every window the feed closed is published.
    run.windows_expected = schedule.total;
    const auto deadline = Clock::now() + std::chrono::seconds(20);
    while (Clock::now() < deadline) {
      {
        const std::lock_guard lock(polls_mu);
        if (!polls.empty() && polls.back().second >= schedule.total) break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  } catch (...) {
    stop_polling.store(true);
    poller.join();
    throw;
  }
  stop_polling.store(true);
  poller.join();

  // Verdict latency per window: due time of the slot whose frames closed
  // it -> first /statusz answer counting it. Windows that close in the same
  // slot count as they complete, one sample each, so a seed whose streams
  // close together yields as many samples as one whose streams alternate.
  std::size_t target = 0;
  std::size_t p = 0;
  for (std::size_t c = 0; c < in.images.size(); ++c) {
    std::size_t closes = 0;
    for (const std::size_t n : schedule.closes[c]) closes += n;
    for (std::size_t w = 0; w < closes; ++w) {
      ++target;
      while (p < polls.size() && polls[p].second < target) ++p;
      if (p == polls.size()) break;
      run.verdict_latency_s.push_back(seconds_between(due[c], polls[p].first));
      run.verdict_slot.push_back(c);
    }
  }

  const std::string status = get(*daemon, "/statusz").body;
  run.windows_published = json_uint(status, "windows_completed").value_or(0);
  run.frame_errors = json_uint(status, "frame_errors").value_or(0);
  run.flows = json_uint(status, "flows").value_or(0);
  run.analyze_s =
      analyze_seconds_sum(get(*daemon, "/metrics").body) - analyze_before;
  for (std::size_t s = 0; s < shards; ++s) {
    const std::string q = "shard=" + std::to_string(s);
    const serve::HttpResponse journal = get(*daemon, "/journal", q);
    const serve::HttpResponse report = get(*daemon, "/report", q);
    run.http_ok = run.http_ok && journal.status == 200 && report.status == 200;
    run.journals.push_back(journal.body);
    run.last_reports.push_back(report.body);
  }
  conn.reset();
  daemon->stop();
  return run;
}

MonitorReplay replay_monitor(const StreamInput& in,
                             const WindowSchedule& schedule, Tracer& tracer) {
  MonitorReplay out;
  const ClusterTopology topology = ClusterTopology::build(in.topology);
  std::vector<std::unique_ptr<OnlineMonitor>> monitors;
  std::vector<IncidentJournal> journals(in.streams);
  std::vector<FlowTrace> all(in.streams);
  for (std::size_t s = 0; s < in.streams; ++s) {
    monitors.push_back(
        std::make_unique<OnlineMonitor>(topology, monitor_config(in)));
  }
  out.service_s.assign(in.images.size(), std::vector<double>(in.streams, 0));
  for (std::size_t c = 0; c < in.images.size(); ++c) {
    for (std::size_t s = 0; s < in.streams; ++s) {
      const std::string& image = in.images[c][s];
      out.lft_bytes += image.size();
      FlowTrace chunk;
      {
        const Tracer::Scope span(tracer, "flow.lft_open");
        chunk = read_lft_buffer(
            std::as_bytes(std::span(image.data(), image.size())));
      }
      const auto t0 = Clock::now();
      std::vector<MonitorTick> ticks;
      {
        const Tracer::Scope span(tracer, "monitor.ingest");
        ticks = monitors[s]->ingest(chunk);
      }
      out.ingest_s.push_back(seconds_since(t0));
      // What the shard worker does with every closed window.
      for (const MonitorTick& tick : ticks) {
        const WindowExportView view = export_view(tick);
        {
          const Tracer::Scope span(tracer, "monitor.journal");
          journals[s].add_window(view);
        }
        const Tracer::Scope span(tracer, "monitor.render");
        std::ostringstream json;
        write_report_json(json, tick.report);
        out.windows_closed.push_back(tick.window);
        out.window_stream.push_back(s);
      }
      out.service_s[c][s] = seconds_since(t0);
      if (ticks.size() != schedule.closes[c][s]) out.schedule_ok = false;
      all[s].append(chunk);
    }
  }
  for (std::size_t s = 0; s < in.streams; ++s) {
    const MonitorStats& stats = monitors[s]->stats();
    out.windows += stats.windows_completed;
    out.flows_dropped_late += stats.flows_dropped_late;
    if (const PrismSession* session = monitors[s]->session()) {
      const SessionCounters& k = session->counters();
      out.recognition_reuses += k.recognition_reuses;
      out.recognition_rebuilds += k.recognition_rebuilds;
      out.pairs_reused += k.pairs_reused;
      out.pairs_reclassified += k.pairs_reclassified;
    }
    out.stream_flows.emplace_back(all[s]);
  }
  return out;
}

}  // namespace prismbench
