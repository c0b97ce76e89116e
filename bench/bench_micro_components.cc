// Micro-benchmarks of the library's hot paths (google-benchmark): event
// queue, shaped link, TCP transfer, RTT extraction, feature computation,
// classifier inference, pcap codec.
//
// Besides wall-clock, the simulator benches report *heap allocation*
// counters via a global operator new/delete hook scoped to this binary.
// Allocation counts are deterministic, so they double as a non-flaky
// regression signal: `tools/bench_micro.py --smoke` (wired into ctest)
// fails if the steady-state simulator path ever allocates again.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <new>
#include <vector>

#include "analysis/flow_trace.h"
#include "analysis/rtt_estimator.h"
#include "core/classifier.h"
#include "features/extractor.h"
#include "obs/metrics.h"
#include "pcap/headers.h"
#include "service/latency.h"
#include "service/verdict_log.h"
#include "sim/network.h"
#include "tcp/tcp_sink.h"
#include "tcp/tcp_source.h"

namespace {

std::atomic<std::uint64_t> g_heap_allocs{0};

std::uint64_t heap_allocs() {
  return g_heap_allocs.load(std::memory_order_relaxed);
}

/// Counts heap allocations across a scope. Deterministic, unlike timings.
class AllocProbe {
 public:
  AllocProbe() : start_(heap_allocs()) {}
  std::uint64_t count() const { return heap_allocs() - start_; }

 private:
  std::uint64_t start_;
};

}  // namespace

// Counting replacements for the global allocation functions. Only the
// plain forms are replaced; the aligned/nothrow forms are not used by the
// hot paths this binary measures.
void* operator new(std::size_t n) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t n) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace ccsig;

void BM_EventQueueScheduleAndPop(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::uint64_t allocs = 0;
  std::uint64_t items = 0;
  for (auto _ : state) {
    // Queue construction/teardown is not the cost under measurement; keep
    // it outside the timed region so the number isolates schedule+pop.
    state.PauseTiming();
    auto q = std::make_unique<sim::EventQueue>();
    state.ResumeTiming();
    {
      const AllocProbe probe;
      for (int i = 0; i < n; ++i) {
        q->schedule((i * 7919) % n, [] {});
      }
      while (!q->empty()) q->pop()();
      allocs += probe.count();
    }
    items += static_cast<std::uint64_t>(n);
    state.PauseTiming();
    q.reset();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.counters["allocs_per_event"] =
      static_cast<double>(allocs) / static_cast<double>(items);
}
BENCHMARK(BM_EventQueueScheduleAndPop)->Arg(1000)->Arg(100000);

void BM_LinkShaping(benchmark::State& state) {
  std::uint64_t allocs = 0;
  std::uint64_t packets = 0;
  for (auto _ : state) {
    sim::Simulator sim;
    sim::Link::Config cfg;
    cfg.rate_bps = 1e9;
    cfg.buffer_bytes = 1 << 22;
    sim::Link link(sim, cfg, sim::Rng(1));
    int delivered = 0;
    link.set_receiver([&](const sim::Packet&) { ++delivered; });
    sim::Packet p;
    p.payload_bytes = 1448;
    const AllocProbe probe;
    for (int i = 0; i < 1000; ++i) link.send(p);
    sim.run();
    allocs += probe.count();
    packets += 1000;
    benchmark::DoNotOptimize(delivered);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
  state.counters["allocs_per_packet"] =
      static_cast<double>(allocs) / static_cast<double>(packets);
}
BENCHMARK(BM_LinkShaping);

void BM_TcpBulkTransfer(benchmark::State& state) {
  std::uint64_t allocs = 0;
  std::uint64_t segments = 0;
  for (auto _ : state) {
    sim::Network net(1);
    sim::Node* server = net.add_node("s");
    sim::Node* client = net.add_node("c");
    sim::Link::Config link;
    link.rate_bps = 100e6;
    link.prop_delay = 5 * sim::kMillisecond;
    link.buffer_bytes = sim::buffer_bytes_for(100e6, 50);
    net.connect(server, client, link);
    sim::FlowKey key{server->address(), client->address(), 1, 2};
    tcp::TcpSink::Config sk;
    sk.data_key = key;
    tcp::TcpSink sink(net.sim(), client, sk);
    tcp::TcpSource::Config sc;
    sc.key = key;
    sc.bytes_to_send = 10'000'000;
    tcp::TcpSource source(net.sim(), server, sc);
    source.start();
    const AllocProbe probe;
    net.sim().run_until(sim::from_seconds(30));
    allocs += probe.count();
    segments += source.stats().segments_sent + sink.stats().acks_sent;
    benchmark::DoNotOptimize(sink.bytes_received());
  }
  state.SetBytesProcessed(state.iterations() * 10'000'000);
  state.counters["allocs_per_seg"] =
      static_cast<double>(allocs) / static_cast<double>(segments);
}
BENCHMARK(BM_TcpBulkTransfer);

// Steady-state allocation probe. A 100 MB transfer at 100 Mbps runs ≈ 8.5
// simulated seconds; by 2 s it has finished slow start, overshot the
// buffer, and completed its first recovery episode — every pool (event
// arena, packet ring, segment-map free lists) is at its high-water mark.
// From there to the end of the transfer the simulator must not touch the
// heap at all; `steady_allocs` is asserted == 0 by the ctest smoke test.
// `peak_queue_depth` is the event queue's high-water mark: one delivery and
// one pump per link plus one carrier per timer, however many packets are in
// flight.
void BM_TcpSteadyStateAllocs(benchmark::State& state) {
  std::uint64_t allocs = 0;
  std::uint64_t segments = 0;
  std::size_t peak_queue_depth = 0;
  for (auto _ : state) {
    sim::Network net(1);
    sim::Node* server = net.add_node("s");
    sim::Node* client = net.add_node("c");
    sim::Link::Config link;
    link.rate_bps = 100e6;
    link.prop_delay = 5 * sim::kMillisecond;
    link.buffer_bytes = sim::buffer_bytes_for(100e6, 50);
    net.connect(server, client, link);
    sim::FlowKey key{server->address(), client->address(), 1, 2};
    tcp::TcpSink::Config sk;
    sk.data_key = key;
    tcp::TcpSink sink(net.sim(), client, sk);
    tcp::TcpSource::Config sc;
    sc.key = key;
    sc.bytes_to_send = 100'000'000;
    tcp::TcpSource source(net.sim(), server, sc);
    source.start();
    net.sim().run_until(sim::from_seconds(2));  // warmup: pools reach peak
    const std::uint64_t segs_before =
        source.stats().segments_sent + sink.stats().acks_sent;
    const AllocProbe probe;
    net.sim().run_until(sim::from_seconds(30));
    allocs += probe.count();
    segments += source.stats().segments_sent + sink.stats().acks_sent -
                segs_before;
    peak_queue_depth = std::max(peak_queue_depth, net.sim().queue_peak());
    benchmark::DoNotOptimize(sink.bytes_received());
  }
  state.counters["steady_allocs"] = static_cast<double>(allocs);
  state.counters["peak_queue_depth"] = static_cast<double>(peak_queue_depth);
  state.counters["steady_allocs_per_seg"] =
      segments > 0 ? static_cast<double>(allocs) / static_cast<double>(segments)
                   : 0.0;
  state.counters["steady_segments"] = static_cast<double>(segments);
}
BENCHMARK(BM_TcpSteadyStateAllocs);

// Steady-state allocation probe under SACK churn, in the shape of the
// testbed's TGcong cross traffic: 20 Reno flows share a 1 Gbit/s
// bottleneck with a 50 ms buffer, so the buffer overflows every few
// hundred milliseconds and some flow is usually in SACK recovery. By 3 s
// the slow-start overshoot and its recovery have sized every scoreboard,
// out-of-order stash, link ring and event arena; from there to 6 s the
// simulator must not touch the heap (`steady_allocs` is asserted == 0).
// `steady_retransmits` shows the window really was in recovery.
//
// The probe opens and closes on events inside one run rather than around
// a run_until() call: a run's deadline parks every timer re-arm due past
// it in the simulator's late-ghost heap (one entry per RTO re-arm in the
// last RTO, ~16k at this ACK rate), which is run-boundary bookkeeping,
// not per-packet cost.
void BM_TcpSackChurn(benchmark::State& state) {
  constexpr int kFlows = 20;
  std::uint64_t allocs = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t segments = 0;
  for (auto _ : state) {
    sim::Network net(1);
    sim::Node* server = net.add_node("s");
    sim::Node* client = net.add_node("c");
    sim::Link::Config link;
    link.rate_bps = 1e9;
    link.prop_delay = 5 * sim::kMillisecond;
    link.buffer_bytes = sim::buffer_bytes_for(1e9, 50);
    net.connect(server, client, link);
    std::vector<std::unique_ptr<tcp::TcpSink>> sinks;
    std::vector<std::unique_ptr<tcp::TcpSource>> sources;
    for (int i = 0; i < kFlows; ++i) {
      const sim::FlowKey key{server->address(), client->address(),
                             static_cast<sim::Port>(1000 + i),
                             static_cast<sim::Port>(2000 + i)};
      tcp::TcpSink::Config sk;
      sk.data_key = key;
      sinks.push_back(std::make_unique<tcp::TcpSink>(net.sim(), client, sk));
      tcp::TcpSource::Config sc;
      sc.key = key;
      sc.congestion_control = "reno";
      sources.push_back(
          std::make_unique<tcp::TcpSource>(net.sim(), server, sc));
      // Staggered starts, one millisecond apart.
      tcp::TcpSource* src = sources.back().get();
      net.sim().schedule_at(i * sim::kMillisecond, [src] { src->start(); });
    }
    // Heap allocations, retransmits and data segments so far.
    struct Tally {
      std::uint64_t allocs = 0, retransmits = 0, segments = 0;
    };
    const auto tally = [&] {
      Tally t{heap_allocs(), 0, 0};
      for (const auto& src : sources) {
        t.retransmits += src->stats().retransmits;
        t.segments += src->stats().segments_sent;
      }
      return t;
    };
    Tally open;
    Tally close;
    net.sim().schedule_at(sim::from_seconds(3), [&] { open = tally(); });
    net.sim().schedule_at(sim::from_seconds(6), [&] { close = tally(); });
    net.sim().run_until(sim::from_seconds(7));
    allocs += close.allocs - open.allocs;
    retransmits += close.retransmits - open.retransmits;
    segments += close.segments - open.segments;
  }
  state.counters["steady_allocs"] = static_cast<double>(allocs);
  state.counters["steady_retransmits"] = static_cast<double>(retransmits);
  state.counters["steady_segments"] = static_cast<double>(segments);
}
BENCHMARK(BM_TcpSackChurn)->Unit(benchmark::kMillisecond);

analysis::FlowTrace synthetic_flow(int n) {
  analysis::FlowTrace flow;
  flow.data_key = sim::FlowKey{1, 2, 10, 20};
  for (int i = 0; i < n; ++i) {
    analysis::TraceRecord d;
    d.time = i * 100 * sim::kMicrosecond;
    d.key = flow.data_key;
    d.seq = 1 + 1448ull * static_cast<unsigned>(i);
    d.payload_bytes = 1448;
    flow.data.push_back(d);
    analysis::TraceRecord a;
    a.time = d.time + 20 * sim::kMillisecond;
    a.key = flow.data_key.reversed();
    a.ack = d.seq + 1448;
    a.flags.ack = true;
    flow.acks.push_back(a);
  }
  return flow;
}

void BM_RttExtraction(benchmark::State& state) {
  const auto flow = synthetic_flow(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto samples = analysis::extract_rtt_samples(flow);
    benchmark::DoNotOptimize(samples);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RttExtraction)->Arg(100)->Arg(10000);

void BM_FeatureExtraction(benchmark::State& state) {
  const auto flow = synthetic_flow(2000);
  for (auto _ : state) {
    auto f = features::extract_features(flow);
    benchmark::DoNotOptimize(f);
  }
}
BENCHMARK(BM_FeatureExtraction);

void BM_ClassifierInference(benchmark::State& state) {
  const auto clf = CongestionClassifier::pretrained();
  double nd = 0.1;
  for (auto _ : state) {
    nd = nd > 0.9 ? 0.1 : nd + 0.01;
    auto c = clf.classify(nd, nd / 2);
    benchmark::DoNotOptimize(c);
  }
}
BENCHMARK(BM_ClassifierInference);

// Metrics overhead. BM_MetricsCounterRecord measures the live sharded
// counter path (and asserts it never allocates once the calling thread's
// shard exists — the first record per thread allocates it, so a warm-up
// record precedes the probe). BM_MetricsCounterInert measures the
// default-constructed handle, which is the same two-branch no-op a
// CCSIG_OBS_OFF build compiles every record call down to — comparing the
// two is the instrumented-vs-off overhead of a record.
void BM_MetricsCounterRecord(benchmark::State& state) {
  obs::Counter c = obs::MetricsRegistry::global().counter("bench.counter");
  c.inc();  // allocate this thread's shard before probing
  std::uint64_t allocs = 0;
  std::uint64_t records = 0;
  for (auto _ : state) {
    const AllocProbe probe;
    for (int i = 0; i < 1000; ++i) c.inc();
    allocs += probe.count();
    records += 1000;
  }
  state.SetItemsProcessed(state.iterations() * 1000);
  state.counters["allocs_per_record"] =
      static_cast<double>(allocs) / static_cast<double>(records);
}
BENCHMARK(BM_MetricsCounterRecord);

void BM_MetricsCounterInert(benchmark::State& state) {
  obs::Counter c;  // not registered: records are dropped in two branches
  std::uint64_t allocs = 0;
  std::uint64_t records = 0;
  for (auto _ : state) {
    const AllocProbe probe;
    for (int i = 0; i < 1000; ++i) {
      c.inc();
      benchmark::DoNotOptimize(c);
    }
    allocs += probe.count();
    records += 1000;
  }
  state.SetItemsProcessed(state.iterations() * 1000);
  state.counters["allocs_per_record"] =
      static_cast<double>(allocs) / static_cast<double>(records);
}
BENCHMARK(BM_MetricsCounterInert);

void BM_MetricsHistogramRecord(benchmark::State& state) {
  obs::Histogram h = obs::MetricsRegistry::global().histogram(
      "bench.histogram", {0.1, 0.5, 1, 5, 10, 50, 100, 500, 1000});
  h.record(1.0);  // allocate this thread's shard before probing
  std::uint64_t allocs = 0;
  std::uint64_t records = 0;
  double v = 0.05;
  for (auto _ : state) {
    const AllocProbe probe;
    for (int i = 0; i < 1000; ++i) {
      v = v > 900 ? 0.05 : v * 1.7;
      h.record(v);
    }
    allocs += probe.count();
    records += 1000;
  }
  state.SetItemsProcessed(state.iterations() * 1000);
  state.counters["allocs_per_record"] =
      static_cast<double>(allocs) / static_cast<double>(records);
}
BENCHMARK(BM_MetricsHistogramRecord);

void BM_PcapEncodeDecode(benchmark::State& state) {
  sim::Packet p;
  p.key = sim::FlowKey{1, 2, 10, 20};
  p.seq = 123456;
  p.ack = 654321;
  p.payload_bytes = 1448;
  p.flags.ack = true;
  std::uint64_t allocs = 0;
  std::uint64_t frames = 0;
  for (auto _ : state) {
    const AllocProbe probe;
    const auto frame = pcap::encode_frame(p);
    auto decoded = pcap::decode_frame(frame);
    allocs += probe.count();
    ++frames;
    benchmark::DoNotOptimize(decoded);
  }
  state.counters["allocs_per_frame"] =
      static_cast<double>(allocs) / static_cast<double>(frames);
}
BENCHMARK(BM_PcapEncodeDecode);

// ccsigd's verdict-log append: frame (length + CRC32 + payload) into the
// reused buffer, one ::write. Zero steady-state allocations — a warm-up
// append grows the frame buffer to the payload size; every probed append
// must reuse it.
void BM_VerdictLogAppend(benchmark::State& state) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "ccsig_bench_verdicts.log")
          .string();
  std::filesystem::remove(path);
  service::VerdictLog log(path);
  const std::string line =
      "10.0.0.1:5001 -> 10.0.0.2:5002  23.4 Mbps over 12.8 s  "
      "=> self-induced congestion (confidence 0.94, norm_diff 0.412, "
      "cov 0.108)";
  log.append(line);  // warm-up: grows the reused frame buffer
  std::uint64_t allocs = 0;
  std::uint64_t verdicts = 0;
  for (auto _ : state) {
    const AllocProbe probe;
    for (int i = 0; i < 100; ++i) log.append(line);
    allocs += probe.count();
    verdicts += 100;
  }
  state.SetItemsProcessed(state.iterations() * 100);
  state.counters["allocs_per_verdict"] =
      static_cast<double>(allocs) / static_cast<double>(verdicts);
  std::filesystem::remove(path);
}
BENCHMARK(BM_VerdictLogAppend);

// ccsigd's per-verdict latency instrumentation: the ingest stamp/anchor
// plus on_verdict recording into both fixed-bucket SLO histograms (two
// relaxed RMWs). Runs on the emission hot path, so it must be
// allocation-free once the thread's metrics shard exists — a warm-up
// record creates the shard; `allocs_per_verdict` is asserted == 0 by the
// ctest smoke test.
void BM_VerdictLatencyPath(benchmark::State& state) {
  service::LatencyTracker tracker;
  tracker.init();
  tracker.on_ingest(1'000'000, 0);
  tracker.on_verdict(2'000'000, 1'000'000, 0);  // warm-up: thread shard
  std::uint64_t allocs = 0;
  std::uint64_t verdicts = 0;
  std::int64_t now = 2'000'000;
  for (auto _ : state) {
    const AllocProbe probe;
    for (int i = 0; i < 1000; ++i) {
      now += 50'000;  // ~50us between verdicts, latencies spread buckets
      tracker.on_ingest(now - 40'000, now - 90'000);
      tracker.on_verdict(now, now - 40'000, now - 90'000);
    }
    allocs += probe.count();
    verdicts += 1000;
  }
  state.SetItemsProcessed(state.iterations() * 1000);
  state.counters["allocs_per_verdict"] =
      static_cast<double>(allocs) / static_cast<double>(verdicts);
  state.counters["latency_recorded"] =
      static_cast<double>(tracker.recorded());
}
BENCHMARK(BM_VerdictLatencyPath);

}  // namespace

BENCHMARK_MAIN();
