#include "pcap/pcap_file.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "pcap/cursor.h"

namespace ccsig::pcap {
namespace {

class PcapFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = (std::filesystem::temp_directory_path() /
             ("ccsig_pcap_test_" +
              std::to_string(::testing::UnitTest::GetInstance()
                                 ->random_seed()) +
              "_" + std::to_string(counter_++)))
                .string() +
            ".pcap";
  }
  void TearDown() override { std::filesystem::remove(path_); }

  static int counter_;
  std::string path_;
};

int PcapFileTest::counter_ = 0;

TEST_F(PcapFileTest, WriteReadRoundTrip) {
  {
    PcapWriter writer(path_);
    const std::uint8_t a[] = {1, 2, 3, 4};
    const std::uint8_t b[] = {9, 8, 7};
    writer.write(1 * sim::kSecond + 500 * sim::kMicrosecond, a, 4);
    writer.write(2 * sim::kSecond, b, 3);
    EXPECT_EQ(writer.records_written(), 2u);
  }
  const auto records = read_all(path_);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].timestamp, 1 * sim::kSecond + 500 * sim::kMicrosecond);
  EXPECT_EQ(records[0].data, (std::vector<std::uint8_t>{1, 2, 3, 4}));
  EXPECT_EQ(records[0].orig_len, 4u);
  EXPECT_EQ(records[1].data, (std::vector<std::uint8_t>{9, 8, 7}));
}

TEST_F(PcapFileTest, SnaplenTruncatesButKeepsOrigLen) {
  {
    PcapWriter writer(path_, /*snaplen=*/2);
    const std::uint8_t data[] = {1, 2, 3, 4, 5};
    writer.write(0, data, 5);
  }
  const auto records = read_all(path_);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].data.size(), 2u);
  EXPECT_EQ(records[0].orig_len, 5u);
}

TEST_F(PcapFileTest, HeaderFieldsSurvive) {
  { PcapWriter writer(path_, 96); }
  PcapCursor cursor(path_);
  EXPECT_EQ(cursor.snaplen(), 96u);
  EXPECT_EQ(cursor.linktype(), kLinktypeEthernet);
  EXPECT_FALSE(cursor.next().has_value());  // empty file
}

TEST_F(PcapFileTest, MicrosecondPrecisionOnDisk) {
  {
    PcapWriter writer(path_);
    const std::uint8_t d[] = {0};
    // Nanoseconds below 1 µs are truncated by the classic format.
    writer.write(123 * sim::kMicrosecond + 789, d, 1);
  }
  const auto records = read_all(path_);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].timestamp, 123 * sim::kMicrosecond);
}

TEST_F(PcapFileTest, RejectsBadMagic) {
  {
    std::ofstream out(path_, std::ios::binary);
    const char junk[32] = "not a pcap file at all";
    out.write(junk, sizeof(junk));
  }
  EXPECT_THROW(PcapCursor cursor(path_), std::runtime_error);
}

TEST_F(PcapFileTest, RejectsTruncatedRecord) {
  {
    PcapWriter writer(path_);
    const std::uint8_t d[] = {1, 2, 3, 4};
    writer.write(0, d, 4);
  }
  // Chop the last 2 bytes off.
  const auto size = std::filesystem::file_size(path_);
  std::filesystem::resize_file(path_, size - 2);
  PcapCursor cursor(path_);
  EXPECT_THROW((void)cursor.next(), std::runtime_error);
}

TEST_F(PcapFileTest, MissingFileThrows) {
  EXPECT_THROW(PcapCursor cursor("/nonexistent/dir/x.pcap"),
               std::runtime_error);
  EXPECT_THROW(PcapWriter writer("/nonexistent/dir/x.pcap"),
               std::runtime_error);
}

TEST_F(PcapFileTest, ManyRecordsStress) {
  const int n = 5000;
  {
    PcapWriter writer(path_);
    std::uint8_t d[8] = {};
    for (int i = 0; i < n; ++i) {
      d[0] = static_cast<std::uint8_t>(i & 0xFF);
      writer.write(i * sim::kMicrosecond, d, 8);
    }
  }
  const auto records = read_all(path_);
  ASSERT_EQ(records.size(), static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(records[static_cast<std::size_t>(i)].data[0], i & 0xFF);
  }
}

}  // namespace
}  // namespace ccsig::pcap
