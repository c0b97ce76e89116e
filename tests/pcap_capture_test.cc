// Capture tap + pcap round trip: simulator packets -> pcap file -> analysis
// trace, including 32-bit sequence unwrapping.
#include <gtest/gtest.h>

#include <filesystem>

#include "analysis/from_pcap.h"
#include "pcap/capture.h"
#include "test_helpers.h"

namespace ccsig {
namespace {

class CaptureTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = (std::filesystem::temp_directory_path() /
             ("ccsig_capture_test_" + std::to_string(counter_++)))
                .string() +
            ".pcap";
  }
  void TearDown() override { std::filesystem::remove(path_); }
  static int counter_;
  std::string path_;
};

int CaptureTest::counter_ = 0;

TEST_F(CaptureTest, TransferRoundTripsThroughPcap) {
  testutil::TwoNodePath path(testutil::basic_link(10e6, 10, 100));
  pcap::PcapCaptureTap tap(path_);
  path.server->add_tap(&tap);
  const auto result = testutil::run_transfer(path, 300'000);
  ASSERT_TRUE(result.completed);
  tap.flush();
  path.server->remove_tap(&tap);

  const analysis::Trace from_pcap =
      analysis::trace_from_records(pcap::read_all(path_));
  const analysis::Trace& live = path.recorder.trace();
  ASSERT_EQ(from_pcap.size(), live.size());
  for (std::size_t i = 0; i < live.size(); ++i) {
    EXPECT_EQ(from_pcap[i].seq, live[i].seq) << "record " << i;
    EXPECT_EQ(from_pcap[i].ack, live[i].ack) << "record " << i;
    EXPECT_EQ(from_pcap[i].payload_bytes, live[i].payload_bytes);
    EXPECT_EQ(from_pcap[i].key.src_port, live[i].key.src_port);
    EXPECT_EQ(from_pcap[i].flags.syn, live[i].flags.syn);
    // Classic pcap stores µs; timestamps agree to within 1 µs.
    EXPECT_NEAR(static_cast<double>(from_pcap[i].time),
                static_cast<double>(live[i].time),
                static_cast<double>(sim::kMicrosecond));
  }
}

TEST_F(CaptureTest, SequenceUnwrapAcross32BitBoundary) {
  // Hand-build records whose 32-bit sequence numbers wrap.
  std::vector<pcap::PcapRecord> records;
  sim::Packet p;
  p.key = sim::FlowKey{1, 2, 10, 20};
  p.flags.ack = true;
  p.payload_bytes = 1000;
  const std::uint64_t start = (1ull << 32) - 3000;
  for (int i = 0; i < 6; ++i) {
    p.seq = start + static_cast<std::uint64_t>(i) * 1000;  // crosses 2^32
    pcap::PcapRecord rec;
    rec.timestamp = i * sim::kMillisecond;
    const auto frame = pcap::encode_frame(p);
    rec.data.assign(frame.begin(), frame.end());
    rec.orig_len = static_cast<std::uint32_t>(frame.size() + p.payload_bytes);
    records.push_back(std::move(rec));
  }
  const analysis::Trace trace = analysis::trace_from_records(records);
  ASSERT_EQ(trace.size(), 6u);
  for (int i = 0; i < 6; ++i) {
    // Unwrapped offsets must be monotone with the same spacing, modulo the
    // unknown epoch base (the first record anchors below 2^32).
    EXPECT_EQ(trace[static_cast<std::size_t>(i)].seq -
                  trace[0].seq,
              static_cast<std::uint64_t>(i) * 1000u);
  }
}

TEST_F(CaptureTest, NonTcpRecordsSkipped) {
  std::vector<pcap::PcapRecord> records;
  pcap::PcapRecord junk;
  junk.timestamp = 0;
  junk.data.assign(60, 0xAA);  // not a valid ethernet/IPv4/TCP frame
  junk.orig_len = 60;
  records.push_back(junk);
  EXPECT_TRUE(analysis::trace_from_records(records).empty());
}

TEST_F(CaptureTest, CapturedCountMatchesTapInvocations) {
  testutil::TwoNodePath path(testutil::basic_link(10e6, 5, 50));
  pcap::PcapCaptureTap tap(path_);
  path.server->add_tap(&tap);
  testutil::run_transfer(path, 50'000);
  path.server->remove_tap(&tap);
  tap.flush();
  EXPECT_EQ(tap.packets_captured(), path.recorder.trace().size());
}

}  // namespace
}  // namespace ccsig
