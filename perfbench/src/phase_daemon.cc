// Daemon phase: ClassificationService (ccsigd's engine, in-process, jobs
// 1) tails a capture file that an open-loop generator on this thread
// appends to at a fixed record rate. A subscriber thread on the verdict
// socket stamps each verdict line as it arrives; a verdict's latency is
// measured from when its flow's closing record was *due*, so generator
// stalls count against the system, and the generator reports its own
// lateness. The high-rate session is recorded and then replayed at full
// speed. Threads: generator (caller), service control, subscriber.
#include <fcntl.h>
#include <sys/socket.h>
#include <poll.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "obs/metrics.h"
#include "phases.h"
#include "service/service.h"
#include "service/verdict_log.h"

namespace perfbench {
namespace {

constexpr const char* kSocket = "verdicts.sock";

// Copy id of a rendered verdict line ("<src>:<port> -> <dst>:<port> ...").
long copy_of_line(const std::string& line) {
  ccsig::sim::FlowKey k;
  unsigned long src = 0, sport = 0, dst = 0, dport = 0;
  if (std::sscanf(line.c_str(), "%lu:%lu -> %lu:%lu", &src, &sport, &dst,
                  &dport) != 4) {
    return -1;
  }
  k.src_addr = static_cast<ccsig::sim::Address>(src);
  k.dst_addr = static_cast<ccsig::sim::Address>(dst);
  return copy_of(k);
}

// Reads '\n'-terminated lines from the verdict socket and stamps each on
// arrival. Stops at EOF (the service closed the socket) or on `stop`.
class Subscriber {
 public:
  struct Line {
    std::int64_t at_ns;
    std::string text;
  };

  Subscriber() {
    const std::int64_t deadline = now_ns() + 5'000'000'000LL;
    for (;;) {
      fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
      if (fd_ < 0) throw std::runtime_error("socket() failed");
      sockaddr_un addr{};
      addr.sun_family = AF_UNIX;
      std::strncpy(addr.sun_path, kSocket, sizeof(addr.sun_path) - 1);
      if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) ==
          0) {
        break;
      }
      ::close(fd_);
      fd_ = -1;
      if (now_ns() > deadline) {
        throw std::runtime_error("verdict socket never came up");
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    reader_ = std::thread([this] { loop(); });
  }
  ~Subscriber() {
    stop_.store(true);
    if (reader_.joinable()) reader_.join();
    if (fd_ >= 0) ::close(fd_);
  }
  Subscriber(const Subscriber&) = delete;
  Subscriber& operator=(const Subscriber&) = delete;

  std::size_t received() const { return count_.load(); }
  /// Stops once the socket has been quiet for one poll interval, so lines
  /// already sent are still read.
  void finish() {
    stop_.store(true);
    if (reader_.joinable()) reader_.join();
  }
  std::vector<Line> take() {
    std::lock_guard<std::mutex> lk(mu_);
    return std::move(lines_);
  }

 private:
  void loop() {
    std::string buf;
    char chunk[65536];
    for (;;) {
      pollfd p{fd_, POLLIN, 0};
      if (::poll(&p, 1, 20) <= 0) {
        if (stop_.load()) break;
        continue;
      }
      const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
      if (n <= 0) break;  // EOF: the service shut the socket down
      const std::int64_t at = now_ns();
      buf.append(chunk, static_cast<std::size_t>(n));
      std::size_t start = 0;
      for (std::size_t nl; (nl = buf.find('\n', start)) != std::string::npos;
           start = nl + 1) {
        std::lock_guard<std::mutex> lk(mu_);
        lines_.push_back({at, buf.substr(start, nl - start)});
        count_.fetch_add(1);
      }
      buf.erase(0, start);
    }
  }

  int fd_ = -1;
  std::atomic<bool> stop_{false};
  std::atomic<std::size_t> count_{0};
  std::mutex mu_;
  std::vector<Line> lines_;
  std::thread reader_;  // declared last: uses every member above
};

// Compares a verdict log with the expected lines (by copy id); returns
// the copies whose verdict is present and correct.
std::vector<char> check_log(const std::vector<std::string>& log,
                            const std::vector<std::string>& expected,
                            const std::string& what, Tally& tally) {
  std::vector<char> ok(expected.size(), 0);
  std::vector<char> seen(expected.size(), 0);
  for (const std::string& line : log) {
    const long c = copy_of_line(line);
    if (c < 0 || static_cast<std::size_t>(c) >= expected.size() || seen[c] ||
        expected[c].empty()) {
      tally.check(false, what + ": unexpected verdict line: " + line);
      continue;
    }
    seen[c] = 1;
    ok[c] = line == expected[c];
  }
  return ok;
}

using SessionResult = DaemonPhase::Session;

SessionResult paced_session(const MergedCapture& cap,
                            const std::vector<std::string>& expected,
                            double rate, const std::string& tag,
                            const std::string& record_path, bool traced,
                            Tally& tally) {
  const std::string capture = tag + ".pcap";
  const std::string vlog = tag + ".vlog";
  ::unlink(capture.c_str());
  ::unlink(vlog.c_str());
  // The generator replays the slice's records from memory.
  const std::vector<std::uint8_t> bytes = read_file(cap.path);
  if (bytes.size() != kPcapHeaderBytes + cap.records * kRecordBytes) {
    throw std::runtime_error("unexpected layout of " + cap.path);
  }
  write_file(capture, std::vector<std::uint8_t>(
                          bytes.begin(), bytes.begin() + kPcapHeaderBytes));
  const int fd = ::open(capture.c_str(), O_WRONLY | O_APPEND);
  if (fd < 0) throw std::runtime_error("cannot append to " + capture);

  ccsig::service::ServiceConfig cfg;
  ccsig::service::SourceConfig src;
  src.path = capture;
  cfg.sources.push_back(src);
  cfg.stream.jobs = 1;
  cfg.verdict_log_path = vlog;
  cfg.socket_path = kSocket;
  cfg.record_session_path = record_path;

  auto& reg = ccsig::obs::MetricsRegistry::global();
  const auto before = reg.snapshot();
  ccsig::service::ClassificationService svc(cfg);
  int rc = -1;
  std::thread control([&] { rc = svc.run(); });

  SessionResult out;
  const std::size_t n = cap.records;
  std::vector<double> lag_ms(n, 0.0);
  std::vector<std::int64_t> written_at(n, 0);
  std::int64_t t0 = 0;
  const double ns_per_record = 1e9 / rate;
  const auto due = [&](std::size_t i) {
    return t0 + static_cast<std::int64_t>(static_cast<double>(i) * ns_per_record);
  };
  std::size_t verdicts = 0;
  for (const std::string& e : expected) verdicts += e.empty() ? 0 : 1;
  std::vector<Subscriber::Line> lines;
  try {
    Subscriber sub;
    // Give the control loop a few iterations to accept the subscriber.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    t0 = now_ns() + 1'000'000;
    std::int64_t next_sample = t0;
    std::size_t i = 0;
    while (i < n) {
      const std::int64_t now = now_ns();
      std::size_t j = i;
      while (j < n && due(j) <= now) ++j;
      if (j == i) {
        std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
            std::chrono::nanoseconds(due(i))));
        continue;
      }
      const std::uint8_t* from =
          bytes.data() + kPcapHeaderBytes + i * kRecordBytes;
      std::size_t left = (j - i) * kRecordBytes;
      while (left > 0) {
        const ssize_t w = ::write(fd, from, left);
        if (w <= 0) throw std::runtime_error("capture append failed");
        from += w;
        left -= static_cast<std::size_t>(w);
      }
      const std::int64_t done = now_ns();
      for (std::size_t k = i; k < j; ++k) {
        written_at[k] = done;
        lag_ms[k] = static_cast<double>(done - due(k)) / 1e6;
      }
      i = j;
      if (traced && done >= next_sample) {
        const auto snap = reg.snapshot();
        if (const auto* g = snap.gauge("service.pressure")) {
          out.pressure_max = std::max(out.pressure_max, g->value);
        }
        next_sample = done + 10'000'000;
      }
    }
    // Wait for every verdict, up to the latency limit past the last due
    // time (plus a margin so late verdicts are counted, not lost).
    const std::int64_t deadline =
        due(n) + static_cast<std::int64_t>(kLatencyLimitMs * 1e6) +
        1'000'000'000LL;
    while (sub.received() < verdicts && now_ns() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    svc.request_stop();
    control.join();
    sub.finish();
    lines = sub.take();
  } catch (...) {
    svc.request_stop();
    if (control.joinable()) control.join();
    ::close(fd);
    throw;
  }
  ::close(fd);
  tally.check(rc == 0, tag + ": service exited with code " + std::to_string(rc));
  out.stats = svc.stats();

  // Latency of each flow from its closing record's due time.
  std::vector<std::int64_t> got_at(expected.size(), 0);
  for (const auto& l : lines) {
    const long c = copy_of_line(l.text);
    if (c >= 0 && static_cast<std::size_t>(c) < got_at.size() && !got_at[c]) {
      got_at[c] = l.at_ns;
    }
  }
  out.log = ccsig::service::VerdictLog::read_all(vlog);
  const std::vector<char> ok = check_log(out.log, expected, tag, tally);
  std::vector<std::pair<std::int64_t, int>> events;  // for outstanding flows
  for (std::size_t c = 0; c < expected.size(); ++c) {
    if (expected[c].empty()) continue;  // no verdict expected
    const auto& copy = cap.copies[c];
    const bool received = got_at[c] != 0;
    const double ms =
        received ? static_cast<double>(got_at[c] - due(copy.last_record)) / 1e6
                 : 0.0;
    if (received) out.latency_ms.push_back(ms);
    tally.check(ok[c] && received && ms <= kLatencyLimitMs,
                tag + ": flow " + std::to_string(c) +
                    (!ok[c] ? " verdict missing or wrong in the log"
                            : !received ? " verdict never reached the socket"
                                        : " verdict later than the limit"));
    events.emplace_back(written_at[copy.first_record], +1);
    if (received) events.emplace_back(got_at[c], -1);
  }
  std::sort(events.begin(), events.end());
  long open = 0;
  for (const auto& [t, d] : events) {
    open += d;
    out.outstanding_max =
        std::max(out.outstanding_max, static_cast<std::size_t>(std::max(0L, open)));
  }

  out.gen_lag_tail_ms = tail_of(lag_ms).value;
  const auto hist = histogram_delta(before, reg.snapshot(),
                                    "service.latency.ingest_to_verdict_ms");
  out.ingest_p50_ms = hist.quantile(0.5);
  out.ingest_tail_ms = hist.quantile(tail_level(hist.count()).first);
  return out;
}

// Full-speed replay of a recorded session; returns records per second.
double replay_once(const std::string& session,
                   const std::vector<std::string>& expected,
                   const std::vector<std::string>& live_log, Tally& tally) {
  const std::string vlog = "replay.vlog";
  ::unlink(vlog.c_str());
  ccsig::service::ServiceConfig cfg;
  cfg.stream.jobs = 1;
  cfg.verdict_log_path = vlog;
  cfg.replay_session_path = session;
  ccsig::service::ClassificationService svc(cfg);
  const std::int64_t t0 = now_ns();
  const int rc = svc.run();
  const double secs = seconds_since(t0);
  tally.check(rc == 0, "replay: service exited with code " + std::to_string(rc));
  const std::vector<std::string> log = ccsig::service::VerdictLog::read_all(vlog);
  const std::vector<char> ok = check_log(log, expected, "replay", tally);
  for (std::size_t c = 0; c < ok.size(); ++c) {
    if (expected[c].empty()) continue;
    tally.check(ok[c], "replay: flow " + std::to_string(c) +
                           " verdict missing or wrong in the log");
  }
  tally.check(log == live_log, "replay: log differs from the live session's");
  return static_cast<double>(svc.stats().records_ingested) / secs;
}

constexpr const char* kSession = "high.session";

}  // namespace

void DaemonPhase::paced_sessions() {
  const bool traced = tracer_.enabled();
  {
    ScopedSpan sp(tracer_, "daemon.low_rate");
    low_ = paced_session(s_.low, s_.low_lines, kLowRate, "low", "", traced,
                         tally_);
  }
  ScopedSpan sp(tracer_, "daemon.high_rate");
  high_ = paced_session(s_.high, s_.high_lines, kHighRate, "high", kSession,
                        traced, tally_);
}

void DaemonPhase::replay_round() {
  ScopedSpan sp(tracer_, "daemon.replay");
  const double rps = replay_once(kSession, s_.high_lines, high_.log, tally_);
  if (replays_++ > 0) replay_rps_.push_back(rps);
}

void DaemonPhase::report(MetricSink& e2e, MetricSink& layer) const {
  const Tail low_tail = tail_of(low_.latency_ms);
  const Tail high_tail = tail_of(high_.latency_ms);
  e2e.set("latency_low_p50_ms", median(low_.latency_ms), "ms");
  e2e.set("latency_high_p50_ms", median(high_.latency_ms), "ms");
  e2e.set("replay_records_per_s", median(replay_rps_), "records/s");
  // The tails are printed, not reported as metrics: on a shared VM they
  // swing with vCPU wake-up delays several-fold from run to run.
  std::printf(
      "daemon: low %.0f records/s, %zu records, %zu flows, latency tail "
      "%s of %zu verdicts = %.3f ms; high %.0f records/s, %zu records, %zu "
      "flows, latency tail %s of %zu verdicts = %.3f ms; latency limit "
      "%.0f ms; %zu replays\n",
      kLowRate, s_.low.records, s_.low_lines.size(), low_tail.label.c_str(),
      low_tail.samples, low_tail.value, kHighRate, s_.high.records,
      s_.high_lines.size(), high_tail.label.c_str(), high_tail.samples,
      high_tail.value, kLatencyLimitMs, replay_rps_.size());
  if (!tracer_.enabled()) return;

  layer.set("gen.lag_tail_ms",
            std::max(low_.gen_lag_tail_ms, high_.gen_lag_tail_ms), "ms");
  layer.set("service.ingest_to_verdict_ms_p50.low", low_.ingest_p50_ms, "ms");
  layer.set("service.ingest_to_verdict_ms_tail.low", low_.ingest_tail_ms, "ms");
  layer.set("service.ingest_to_verdict_ms_p50.high", high_.ingest_p50_ms, "ms");
  layer.set("service.ingest_to_verdict_ms_tail.high", high_.ingest_tail_ms,
            "ms");
  using SS = ccsig::service::ServiceStats;
  const auto sum = [&](std::uint64_t SS::*field) {
    return static_cast<double>(low_.stats.*field + high_.stats.*field);
  };
  layer.set("service.shed_dropped_records", sum(&SS::shed_dropped_records),
            "count");
  layer.set("service.shed_forced_evicts", sum(&SS::shed_forced_evicts),
            "count");
  layer.set("service.shed_source_pauses", sum(&SS::shed_source_pauses),
            "count");
  layer.set("service.subscriber_lines_dropped",
            sum(&SS::subscriber_lines_dropped), "count");
  layer.set("service.pressure_max",
            std::max(low_.pressure_max, high_.pressure_max), "ratio");
  layer.set("service.flows_resident_max",
            static_cast<double>(
                std::max(low_.outstanding_max, high_.outstanding_max)),
            "count");
}

}  // namespace perfbench
