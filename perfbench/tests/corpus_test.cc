// Properties of the benchmark corpus builder: a remapped, FIN-closed,
// time-shifted copy of a simulated capture analyses exactly like its
// source capture, flows finalize on the appended FIN handshake, and the
// merge is a pure function of its seed.
#include <gtest/gtest.h>

#include "analysis/from_pcap.h"
#include "corpus.h"
#include "pcap/pcap_file.h"
#include "stream/stream.h"

namespace perfbench {
namespace {

const LinkPoint kLink{"link10", 10.0, 20.0, 0.0002, 50.0};

// The slow-start signature and everything derived from it. The appended
// handshake lengthens the flow by 3 ms, so flow_duration and
// flow_throughput_bps are compared against the FIN-closed oracle instead.
void expect_same_signature(const ccsig::features::FlowFeatures& a,
                           const ccsig::features::FlowFeatures& b) {
  EXPECT_EQ(a.norm_diff, b.norm_diff);
  EXPECT_EQ(a.cov, b.cov);
  EXPECT_EQ(a.rtt_slope, b.rtt_slope);
  EXPECT_EQ(a.rtt_iqr, b.rtt_iqr);
  EXPECT_EQ(a.rtt_samples, b.rtt_samples);
  EXPECT_EQ(a.min_rtt_ms, b.min_rtt_ms);
  EXPECT_EQ(a.max_rtt_ms, b.max_rtt_ms);
  EXPECT_EQ(a.slow_start_throughput_bps, b.slow_start_throughput_bps);
  EXPECT_EQ(a.slow_start_ended_by_retransmission,
            b.slow_start_ended_by_retransmission);
}

class CorpusTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // Self-induced reno: a flow with a full slow start and a verdict.
    base_ = new BaseCapture(
        capture_base(make_grid(kLink, 3).front(), "corpus_test_base.pcap",
                     ccsig::FlowAnalyzer()));
  }
  static void TearDownTestSuite() {
    delete base_;
    base_ = nullptr;
  }
  static BaseCapture* base_;
};

BaseCapture* CorpusTest::base_ = nullptr;

TEST_F(CorpusTest, RemappedFinClosedCopyMatchesItsSourceCapture) {
  const ccsig::FlowAnalyzer analyzer;
  // The source capture as the tap wrote it: no FIN, original tuple.
  const std::vector<ccsig::FlowReport> source =
      analyzer.analyze_pcap("corpus_test_base.pcap");
  ASSERT_EQ(source.size(), 1u);
  ASSERT_TRUE(source[0].classification.has_value());
  ASSERT_TRUE(base_->fin_closed);
  EXPECT_EQ(base_->frames.size(), base_->source_frames + 3);

  // Three copies, each shifted in time and given its own tuple.
  merge_copies({*base_}, 3, 0, 5.0, 11, "corpus_test_merged.pcap");
  const std::vector<ccsig::FlowReport> merged =
      analyzer.analyze_pcap("corpus_test_merged.pcap");
  ASSERT_EQ(merged.size(), 3u);
  for (const ccsig::FlowReport& r : merged) {
    const long c = copy_of(r.data_key);
    ASSERT_GE(c, 0);
    EXPECT_EQ(r.data_key, copy_key(static_cast<std::uint32_t>(c),
                                   source[0].data_key));
    ASSERT_TRUE(r.features.has_value());
    expect_same_signature(*r.features, *source[0].features);
    EXPECT_EQ(r.verdict(), source[0].verdict());
    EXPECT_EQ(r.classification->confidence,
              source[0].classification->confidence);
    EXPECT_EQ(r.insufficiency, source[0].insufficiency);
    // The whole report, throughput and duration included, equals the
    // oracle of the FIN-closed base under the copy's tuple.
    EXPECT_TRUE(same_report(
        r, *expected_report(*base_, static_cast<std::uint32_t>(c))));
  }
}

TEST_F(CorpusTest, CopiesFinalizeOnTheirFinHandshake) {
  merge_copies({*base_}, 4, 0, 5.0, 12, "corpus_test_fin.pcap");
  const ccsig::FlowAnalyzer analyzer;
  ccsig::stream::StreamEngine engine(analyzer);
  for (const ccsig::pcap::PcapRecord& rec :
       ccsig::pcap::read_all("corpus_test_fin.pcap")) {
    const auto w = ccsig::analysis::wire_record_from_frame(rec.timestamp,
                                                           rec.data);
    ASSERT_TRUE(w.has_value());
    engine.push(*w);
  }
  const std::vector<ccsig::FlowReport> reports = engine.finish();
  EXPECT_EQ(reports.size(), 4u);
  EXPECT_EQ(engine.stats().evicted_fin, 4u);
  EXPECT_EQ(engine.stats().flows_opened, 4u);
}

TEST_F(CorpusTest, MergeIsAPureFunctionOfTheSeed) {
  const MergedCapture a = merge_copies({*base_}, 5, 0, 50.0, 7, "a.pcap");
  const MergedCapture b = merge_copies({*base_}, 5, 0, 50.0, 7, "b.pcap");
  const MergedCapture c = merge_copies({*base_}, 5, 0, 50.0, 8, "c.pcap");
  EXPECT_EQ(read_file("a.pcap"), read_file("b.pcap"));
  EXPECT_NE(read_file("a.pcap"), read_file("c.pcap"));
  EXPECT_EQ(read_file("a.pcap").size(),
            kPcapHeaderBytes + a.records * kRecordBytes);
  EXPECT_EQ(a.records, 5 * base_->frames.size());
  // Arrival offsets are increasing and on the capture's microsecond grid.
  for (std::size_t i = 1; i < a.copies.size(); ++i) {
    EXPECT_GT(a.copies[i].offset, a.copies[i - 1].offset);
    EXPECT_EQ(a.copies[i].offset % ccsig::sim::kMicrosecond, 0);
  }
}

TEST(CorpusKeys, CopyIdsRoundTripInsideTheDecodedAddressSpace) {
  const ccsig::sim::FlowKey base{1, 7, 5001, 5002};
  for (std::uint32_t c : {0u, 1u, 4095u, 65535u}) {
    const ccsig::sim::FlowKey k = copy_key(c, base);
    EXPECT_EQ(k.src_addr & 0x00FFFFFFu, k.src_addr);
    EXPECT_EQ(copy_of(k), static_cast<long>(c));
    EXPECT_EQ(copy_of(k.reversed()), -1);
  }
}

}  // namespace
}  // namespace perfbench
