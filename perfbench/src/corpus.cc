#include "corpus.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <random>
#include <stdexcept>

#include "analysis/from_pcap.h"
#include "pcap/capture.h"
#include "pcap/headers.h"
#include "pcap/pcap_file.h"
#include "tcp/congestion_control.h"
#include "util.h"

namespace perfbench {

using ccsig::FlowReport;
using ccsig::features::FlowFeatures;
namespace sim = ccsig::sim;
namespace pcap = ccsig::pcap;

std::uint64_t mix_seed(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

ccsig::testbed::TestbedConfig GridSpec::config() const {
  ccsig::testbed::TestbedConfig c;
  c.access_rate_mbps = link.rate_mbps;
  c.access_latency_ms = link.latency_ms;
  c.access_loss = link.loss;
  c.access_buffer_ms = link.buffer_ms;
  c.scenario = external ? ccsig::testbed::Scenario::kExternal
                        : ccsig::testbed::Scenario::kSelfInduced;
  c.congestion_control = cc;
  c.test_duration = sim::from_seconds(kTestSeconds);
  c.seed = seed;
  return c;
}

std::string GridSpec::label() const {
  return std::string(external ? "external/" : "self/") + cc + "/" + link.name;
}

std::vector<GridSpec> make_grid(const LinkPoint& link, std::uint64_t seed) {
  std::vector<GridSpec> grid;
  for (const bool external : {false, true}) {
    for (const auto& info : ccsig::tcp::congestion_control_registry()) {
      GridSpec g;
      g.index = static_cast<int>(grid.size());
      g.external = external;
      g.cc = info.name;
      g.link = link;
      g.seed = mix_seed(seed * 1000003u + static_cast<std::uint64_t>(g.index));
      grid.push_back(std::move(g));
    }
  }
  return grid;
}

bool same_features(const std::optional<FlowFeatures>& a,
                   const std::optional<FlowFeatures>& b) {
  if (a.has_value() != b.has_value()) return false;
  if (!a) return true;
  return a->norm_diff == b->norm_diff && a->cov == b->cov &&
         a->rtt_slope == b->rtt_slope && a->rtt_iqr == b->rtt_iqr &&
         a->rtt_samples == b->rtt_samples && a->min_rtt_ms == b->min_rtt_ms &&
         a->max_rtt_ms == b->max_rtt_ms &&
         a->slow_start_throughput_bps == b->slow_start_throughput_bps &&
         a->flow_throughput_bps == b->flow_throughput_bps &&
         a->slow_start_ended_by_retransmission ==
             b->slow_start_ended_by_retransmission &&
         a->flow_duration == b->flow_duration;
}

bool same_report(const FlowReport& a, const FlowReport& b) {
  if (!(a.data_key == b.data_key) || !same_features(a.features, b.features) ||
      a.insufficiency != b.insufficiency ||
      a.classification.has_value() != b.classification.has_value()) {
    return false;
  }
  if (a.classification &&
      (a.classification->verdict != b.classification->verdict ||
       a.classification->confidence != b.classification->confidence)) {
    return false;
  }
  return a.throughput_bps == b.throughput_bps && a.duration == b.duration &&
         a.data_packets == b.data_packets &&
         a.estimated_capacity_bps == b.estimated_capacity_bps;
}

bool RepRow::operator==(const RepRow& o) const {
  return same_features(features, o.features) &&
         segments_sent == o.segments_sent && retransmits == o.retransmits &&
         bytes_acked == o.bytes_acked &&
         receiver_throughput_bps == o.receiver_throughput_bps &&
         cross_traffic_bytes == o.cross_traffic_bytes;
}

std::uint64_t RepRow::digest(std::uint64_t h) const {
  char buf[512];
  const FlowFeatures f = features.value_or(FlowFeatures{});
  const int n = std::snprintf(
      buf, sizeof(buf), "%d|%.17g|%.17g|%zu|%.17g|%llu|%llu|%llu|%.17g|%llu",
      features.has_value() ? 1 : 0, f.norm_diff, f.cov, f.rtt_samples,
      f.slow_start_throughput_bps,
      static_cast<unsigned long long>(segments_sent),
      static_cast<unsigned long long>(retransmits),
      static_cast<unsigned long long>(bytes_acked), receiver_throughput_bps,
      static_cast<unsigned long long>(cross_traffic_bytes));
  return fnv1a(buf, static_cast<std::size_t>(n), h);
}

RepRow row_from(const ccsig::testbed::TestResult& r) {
  RepRow row;
  row.features = r.features;
  row.segments_sent = r.web100.segments_sent;
  row.retransmits = r.web100.retransmits;
  row.bytes_acked = r.web100.bytes_acked;
  row.receiver_throughput_bps = r.receiver_throughput_bps;
  row.cross_traffic_bytes = r.cross_traffic_bytes;
  return row;
}

std::vector<Frame> read_frames(const std::string& pcap_path) {
  std::vector<Frame> frames;
  for (pcap::PcapRecord& rec : pcap::read_all(pcap_path)) {
    if (rec.data.size() != kFrameBytes) {
      throw std::runtime_error("unexpected captured length in " + pcap_path);
    }
    Frame f;
    f.time = rec.timestamp;
    f.orig_len = rec.orig_len;
    std::memcpy(f.bytes.data(), rec.data.data(), kFrameBytes);
    frames.push_back(f);
  }
  return frames;
}

namespace {

// Serial-number "a is after b" for 32-bit sequence space.
bool seq_after(std::uint32_t a, std::uint32_t b) {
  return static_cast<std::int32_t>(a - b) > 0;
}

void put32(std::uint8_t* at, std::uint32_t v) {
  at[0] = static_cast<std::uint8_t>(v >> 24);
  at[1] = static_cast<std::uint8_t>(v >> 16);
  at[2] = static_cast<std::uint8_t>(v >> 8);
  at[3] = static_cast<std::uint8_t>(v);
}

void put16(std::uint8_t* at, std::uint16_t v) {
  at[0] = static_cast<std::uint8_t>(v >> 8);
  at[1] = static_cast<std::uint8_t>(v);
}

}  // namespace

bool close_with_fin(std::vector<Frame>& frames, const sim::FlowKey& data_key) {
  if (frames.empty()) throw std::runtime_error("empty base capture");
  // Next sequence number each side would send, and its last window.
  struct Side {
    bool seen = false;
    std::uint32_t next = 0;
    std::uint16_t window = 0;
  } side[2];  // 0 = payload sender, 1 = receiver
  for (const Frame& f : frames) {
    const auto d = pcap::decode_frame(f.bytes);
    if (!d) continue;
    const int s = (d->src_ip & 0x00FFFFFFu) == data_key.src_addr ? 0 : 1;
    const std::uint32_t end = d->seq32 + d->payload_bytes + (d->syn ? 1 : 0) +
                              (d->fin ? 1 : 0);
    if (!side[s].seen || seq_after(end, side[s].next)) side[s].next = end;
    side[s].seen = true;
    side[s].window = d->window;
  }
  if (!side[0].seen || !side[1].seen) return false;
  const auto make = [&](int s, sim::Time t, std::uint32_t seq,
                        std::uint32_t ack, bool fin) {
    sim::Packet p;
    p.key = s == 0 ? data_key : data_key.reversed();
    p.seq = seq;
    p.ack = ack;
    p.window = static_cast<std::uint32_t>(side[s].window) << 8;
    p.flags.ack = true;
    p.flags.fin = fin;
    Frame f;
    f.time = t;
    f.orig_len = static_cast<std::uint32_t>(kFrameBytes);
    f.bytes = pcap::encode_frame(p);
    return f;
  };
  const sim::Time t = frames.back().time;
  const std::uint32_t snd = side[0].next;
  const std::uint32_t rcv = side[1].next;
  frames.push_back(make(0, t + sim::kMillisecond, snd, rcv, true));
  frames.push_back(make(1, t + 2 * sim::kMillisecond, rcv, snd + 1, true));
  frames.push_back(make(0, t + 3 * sim::kMillisecond, snd + 1, rcv + 1, false));
  return true;
}

std::optional<FlowReport> analyze_frames(const std::vector<Frame>& frames,
                                         const ccsig::FlowAnalyzer& analyzer) {
  std::vector<pcap::PcapRecord> records(frames.size());
  for (std::size_t i = 0; i < frames.size(); ++i) {
    records[i].timestamp = frames[i].time;
    records[i].orig_len = frames[i].orig_len;
    records[i].data.assign(frames[i].bytes.begin(), frames[i].bytes.end());
  }
  std::vector<FlowReport> reports =
      analyzer.analyze(ccsig::analysis::trace_from_records(records));
  if (reports.size() > 1) {
    throw std::runtime_error("base capture holds more than one flow");
  }
  if (reports.empty()) return std::nullopt;
  return std::move(reports.front());
}

BaseCapture capture_base(const GridSpec& spec, const std::string& pcap_path,
                         const ccsig::FlowAnalyzer& analyzer) {
  BaseCapture b;
  b.spec = spec;
  {
    // The tap is declared first so the network that holds a pointer to
    // it is torn down before it.
    pcap::PcapCaptureTap tap(pcap_path);
    ccsig::testbed::TestbedExperiment exp(spec.config());
    exp.network().node("server1")->add_tap(&tap);
    b.row = row_from(exp.run());
    tap.flush();
    b.data_key.src_addr = exp.network().node("server1")->address();
    b.data_key.dst_addr = exp.network().node("pi1")->address();
  }
  b.frames = read_frames(pcap_path);
  if (b.frames.empty()) throw std::runtime_error("empty capture " + pcap_path);
  // The ports are the test flow's; take them from the first frame the
  // server sent.
  for (const Frame& f : b.frames) {
    const auto d = pcap::decode_frame(f.bytes);
    if (d && (d->src_ip & 0x00FFFFFFu) == b.data_key.src_addr) {
      b.data_key.src_port = d->src_port;
      b.data_key.dst_port = d->dst_port;
      break;
    }
  }
  b.source_frames = b.frames.size();
  b.fin_closed = close_with_fin(b.frames, b.data_key);
  b.oracle = analyze_frames(b.frames, analyzer);
  if (b.oracle && !(b.oracle->data_key == b.data_key)) {
    throw std::runtime_error("base capture payload direction is not server1");
  }
  return b;
}

sim::FlowKey copy_key(std::uint32_t copy, const sim::FlowKey& base_key) {
  sim::FlowKey k = base_key;
  k.src_addr = (1u << 16) | (copy & 0xFFFFu);
  k.dst_addr = (2u << 16) | (copy & 0xFFFFu);
  return k;
}

long copy_of(const sim::FlowKey& k) {
  if ((k.src_addr >> 16) != 1u || (k.dst_addr >> 16) != 2u) return -1;
  if ((k.src_addr & 0xFFFFu) != (k.dst_addr & 0xFFFFu)) return -1;
  return static_cast<long>(k.src_addr & 0xFFFFu);
}

void remap_frame(Frame& f, const sim::FlowKey& base_key, std::uint32_t copy) {
  const sim::FlowKey nk = copy_key(copy, base_key);
  std::uint8_t* eth = f.bytes.data();
  std::uint8_t* ip = eth + pcap::kEthernetHeaderBytes;
  const bool from_sender =
      (pcap::detail::get32(ip + 12) & 0x00FFFFFFu) == base_key.src_addr;
  const std::uint32_t src =
      pcap::to_ipv4(from_sender ? nk.src_addr : nk.dst_addr);
  const std::uint32_t dst =
      pcap::to_ipv4(from_sender ? nk.dst_addr : nk.src_addr);
  put32(eth + 1, dst);
  put32(eth + 7, src);
  put32(ip + 12, src);
  put32(ip + 16, dst);
  put16(ip + 10, 0);
  put16(ip + 10, pcap::internet_checksum({ip, pcap::kIpv4HeaderBytes}));
}

std::optional<FlowReport> expected_report(const BaseCapture& base,
                                          std::uint32_t copy) {
  std::optional<FlowReport> r = base.oracle;
  if (r) r->data_key = copy_key(copy, base.data_key);
  return r;
}

MergedCapture merge_copies(const std::vector<BaseCapture>& bases,
                           std::size_t max_copies, std::size_t min_records,
                           double arrivals_per_s, std::uint64_t seed,
                           const std::string& path) {
  if (bases.empty()) throw std::runtime_error("no base captures");
  if (max_copies > 65536) throw std::runtime_error("at most 65536 copies");
  MergedCapture m;
  std::mt19937_64 rng(mix_seed(seed));
  std::exponential_distribution<double> gap(arrivals_per_s);
  double t_s = 1.0;  // first arrival one second into the capture
  std::size_t records = 0;
  std::vector<std::uint32_t> order_of_bases(bases.size());
  while (m.copies.size() < max_copies &&
         (min_records == 0 || records < min_records)) {
    const std::size_t slot = m.copies.size() % bases.size();
    if (slot == 0) {
      // Every run of bases.size() copies holds each base once, in a
      // seeded order.
      for (std::uint32_t i = 0; i < bases.size(); ++i) order_of_bases[i] = i;
      std::shuffle(order_of_bases.begin(), order_of_bases.end(), rng);
    }
    MergedCapture::Copy c;
    c.base = order_of_bases[slot];
    c.offset = static_cast<sim::Time>(std::llround(t_s * 1e6)) *
               sim::kMicrosecond;
    records += bases[c.base].frames.size();
    m.copies.push_back(c);
    t_s += gap(rng);
  }

  struct Entry {
    sim::Time time;
    std::uint32_t copy;
    std::uint32_t idx;
  };
  std::vector<Entry> order;
  order.reserve(records);
  for (std::uint32_t c = 0; c < m.copies.size(); ++c) {
    const BaseCapture& b = bases[m.copies[c].base];
    const sim::Time t0 = b.frames.front().time;
    for (std::uint32_t i = 0; i < b.frames.size(); ++i) {
      order.push_back({b.frames[i].time - t0 + m.copies[c].offset, c, i});
    }
  }
  std::sort(order.begin(), order.end(), [](const Entry& a, const Entry& b) {
    if (a.time != b.time) return a.time < b.time;
    if (a.copy != b.copy) return a.copy < b.copy;
    return a.idx < b.idx;
  });

  m.path = path;
  m.records = order.size();
  pcap::PcapWriter out(path, static_cast<std::uint32_t>(kFrameBytes));
  std::size_t open = 0;
  for (std::size_t r = 0; r < order.size(); ++r) {
    const Entry& e = order[r];
    const BaseCapture& b = bases[m.copies[e.copy].base];
    Frame f = b.frames[e.idx];
    remap_frame(f, b.data_key, e.copy);
    out.write(e.time, f.bytes, f.orig_len);
    if (e.idx == 0) {
      m.copies[e.copy].first_record = r;
      m.peak_concurrent = std::max(m.peak_concurrent, ++open);
    }
    if (e.idx + 1 == b.frames.size()) {
      m.copies[e.copy].last_record = r;
      --open;
    }
  }
  out.flush();
  return m;
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) throw std::runtime_error("cannot read " + path);
  std::vector<std::uint8_t> b;
  std::uint8_t chunk[1 << 16];
  for (std::size_t n; (n = std::fread(chunk, 1, sizeof(chunk), f)) > 0;) {
    b.insert(b.end(), chunk, chunk + n);
  }
  const bool ok = !std::ferror(f);
  std::fclose(f);
  if (!ok) throw std::runtime_error("cannot read " + path);
  return b;
}

void write_file(const std::string& path, const std::vector<std::uint8_t>& b) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (!f) throw std::runtime_error("cannot write " + path);
  const std::size_t n = std::fwrite(b.data(), 1, b.size(), f);
  const bool ok = std::fclose(f) == 0 && n == b.size();
  if (!ok) throw std::runtime_error("short write to " + path);
}

}  // namespace perfbench
