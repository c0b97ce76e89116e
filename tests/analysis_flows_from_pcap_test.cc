// Differential test for single-pass batch ingest: flows_from_pcap_checked
// (cursor → wire record → FlowSplitter) must yield exactly the flows of the
// staged path read_all_checked → trace_from_records → split_flows — every
// TraceRecord field, every data_key, the flow order — and the same
// structured error, on healthy multi-flow captures, on a mutant corpus, and
// on hand-built captures that reuse a 4-tuple or wrap 32-bit sequence
// numbers.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "analysis/flow_trace.h"
#include "analysis/from_pcap.h"
#include "pcap/headers.h"
#include "pcap/pcap_file.h"
#include "runtime/fault_injection.h"
#include "test_helpers.h"

namespace ccsig::analysis {
namespace {

namespace fs = std::filesystem;

class FlowsFromPcapTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::temp_directory_path() /
            ("ccsig_flows_from_pcap_" +
             std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
             "_" + std::to_string(counter_++)))
               .string();
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string file(const std::string& name) const {
    return (fs::path(dir_) / name).string();
  }

  static int counter_;
  std::string dir_;
};

int FlowsFromPcapTest::counter_ = 0;

void expect_same_records(const std::vector<TraceRecord>& got,
                         const std::vector<TraceRecord>& want,
                         const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  for (std::size_t i = 0; i < want.size(); ++i) {
    const TraceRecord& g = got[i];
    const TraceRecord& w = want[i];
    EXPECT_EQ(g.time, w.time) << where << " record " << i;
    EXPECT_EQ(g.key, w.key) << where << " record " << i;
    EXPECT_EQ(g.seq, w.seq) << where << " record " << i;
    EXPECT_EQ(g.ack, w.ack) << where << " record " << i;
    EXPECT_EQ(g.payload_bytes, w.payload_bytes) << where << " record " << i;
    EXPECT_EQ(g.window, w.window) << where << " record " << i;
    EXPECT_EQ(g.flags, w.flags) << where << " record " << i;
  }
}

/// Runs both paths over `path` and requires identical flows and errors.
/// Returns the number of flows, so callers can assert the input was
/// non-trivial.
std::size_t expect_fused_matches_staged(const std::string& path) {
  const pcap::PcapReadResult raw = pcap::read_all_checked(path);
  const std::vector<FlowTrace> want =
      split_flows(trace_from_records(raw.records));
  const FlowsReadResult got = flows_from_pcap_checked(path);

  EXPECT_EQ(got.error.has_value(), raw.error.has_value()) << path;
  if (got.error && raw.error) {
    EXPECT_EQ(got.error->file, raw.error->file) << path;
    EXPECT_EQ(got.error->offset, raw.error->offset) << path;
    EXPECT_EQ(got.error->reason, raw.error->reason) << path;
  }
  EXPECT_EQ(got.flows.size(), want.size()) << path;
  if (got.flows.size() != want.size()) return want.size();
  for (std::size_t f = 0; f < want.size(); ++f) {
    const std::string where = path + " flow " + std::to_string(f);
    EXPECT_EQ(got.flows[f].data_key, want[f].data_key) << where;
    expect_same_records(got.flows[f].data, want[f].data, where + " data");
    expect_same_records(got.flows[f].acks, want[f].acks, where + " acks");
  }
  return want.size();
}

void write_packet(pcap::PcapWriter& out, sim::Time t, const sim::Packet& p) {
  const auto frame = pcap::encode_frame(p);
  out.write(t, frame,
            static_cast<std::uint32_t>(frame.size()) + p.payload_bytes);
}

sim::Packet data_packet(const sim::FlowKey& key, std::uint64_t seq,
                        std::uint64_t ack) {
  sim::Packet p;
  p.key = key;
  p.seq = seq;
  p.ack = ack;
  p.payload_bytes = 1000;
  p.window = 65535;
  p.flags.ack = true;
  return p;
}

sim::Packet ack_packet(const sim::FlowKey& key, std::uint64_t seq,
                       std::uint64_t ack) {
  sim::Packet p = data_packet(key.reversed(), seq, ack);
  p.payload_bytes = 0;
  return p;
}

TEST_F(FlowsFromPcapTest, RandomMultiFlowCapturesMatchStagedPath) {
  std::size_t multi_flow_captures = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const std::string path = file("random" + std::to_string(seed) + ".pcap");
    const int written = testutil::write_random_capture(seed, path);
    const std::size_t flows = expect_fused_matches_staged(path);
    EXPECT_EQ(flows, static_cast<std::size_t>(written)) << path;
    multi_flow_captures += flows > 1 ? 1 : 0;
  }
  EXPECT_GE(multi_flow_captures, 4u);
}

TEST_F(FlowsFromPcapTest, MutantCorpusMatchesStagedPath) {
  const std::string source = file("multi.pcap");
  ASSERT_GT(testutil::write_random_capture(/*seed=*/3, source), 1);
  const auto mutants = runtime::mutate_corpus(source, file("mutants"),
                                              /*seed=*/77, /*count=*/24);
  int damaged = 0;
  for (const std::string& mutant : mutants) {
    expect_fused_matches_staged(mutant);
    damaged += pcap::read_all_checked(mutant).ok() ? 0 : 1;
  }
  EXPECT_GE(damaged, 8);
}

TEST_F(FlowsFromPcapTest, MissingFileAndDamagedHeaderMatchStagedPath) {
  expect_fused_matches_staged(file("missing.pcap"));
  const std::string source = file("multi.pcap");
  testutil::write_random_capture(/*seed=*/5, source);
  runtime::truncate_file(source, 10);
  expect_fused_matches_staged(source);
}

TEST_F(FlowsFromPcapTest, ReusedFourTupleMatchesStagedPath) {
  // Two connections on one 4-tuple, the second after the first's FIN
  // handshake and from a fresh ISN, interleaved with a connection whose
  // payload runs against its canonical key (the backward half becomes the
  // data direction), a payload-free connection, and a non-TCP frame.
  const std::string path = file("reuse.pcap");
  {
    pcap::PcapWriter out(path);
    const sim::FlowKey reused{1, 2, 80, 5000};
    const sim::FlowKey upload{3, 2, 443, 5001};  // canonical: {2, 3, ...}
    const sim::FlowKey idle{4, 2, 22, 5002};
    sim::Time t = 0;
    const auto tick = [&t] { return t += sim::kMillisecond; };
    for (std::uint64_t i = 0; i < 20; ++i) {
      write_packet(out, tick(), data_packet(reused, 1 + i * 1000, 1));
      write_packet(out, tick(), ack_packet(reused, 1, 1001 + i * 1000));
      write_packet(out, tick(), ack_packet(upload, 1 + i * 1000, 1));
      write_packet(out, tick(), data_packet(upload, 1, 1001 + i * 1000));
    }
    sim::Packet fin = ack_packet(reused.reversed(), 20'001, 1);
    fin.flags.fin = true;
    write_packet(out, tick(), fin);
    fin = ack_packet(reused, 1, 20'002);
    fin.flags.fin = true;
    write_packet(out, tick(), fin);
    write_packet(out, tick(), ack_packet(idle, 1, 1));
    const std::uint8_t junk[60] = {0xAA};
    out.write(tick(), junk, sizeof(junk));
    for (std::uint64_t i = 0; i < 10; ++i) {
      write_packet(out, tick(), data_packet(reused, 7'000 + i * 1000, 1));
      write_packet(out, tick(), ack_packet(reused, 1, 8'000 + i * 1000));
    }
  }
  EXPECT_EQ(expect_fused_matches_staged(path), 2u);
}

TEST_F(FlowsFromPcapTest, SequenceWrapMatchesStagedPath) {
  // Both directions' 32-bit numbers cross 2^32 mid-flow, and two flows
  // interleave so each direction's unwrapper must stay its own.
  const std::string path = file("wrap.pcap");
  {
    pcap::PcapWriter out(path);
    const sim::FlowKey a{1, 2, 80, 6000};
    const sim::FlowKey b{1, 2, 80, 6001};
    const std::uint64_t isn_a = (1ull << 32) - 7'500;
    const std::uint64_t isn_b = (1ull << 32) - 2'500;
    sim::Time t = 0;
    for (std::uint64_t i = 0; i < 16; ++i) {
      t += sim::kMillisecond;
      write_packet(out, t, data_packet(a, isn_a + i * 1000, isn_b));
      write_packet(out, t, data_packet(b, isn_b + i * 1000, isn_a));
      write_packet(out, t + 1, ack_packet(a, isn_b, isn_a + (i + 1) * 1000));
      write_packet(out, t + 1, ack_packet(b, isn_a, isn_b + (i + 1) * 1000));
    }
  }
  EXPECT_EQ(expect_fused_matches_staged(path), 2u);
  const FlowsReadResult got = flows_from_pcap_checked(path);
  for (const FlowTrace& flow : got.flows) {
    ASSERT_EQ(flow.data.size(), 16u);
    EXPECT_EQ(flow.data.back().seq - flow.data.front().seq, 15'000u);
  }
}

}  // namespace
}  // namespace ccsig::analysis
