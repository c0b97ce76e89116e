// Pins the pcap error contract to a committed golden.
//
// Every entry point that reads a capture must stop a damaged file at the
// same byte offset with the same reason: the record reader
// (pcap::read_all_checked), the batch analyzer
// (FlowAnalyzer::analyze_pcap_checked) and the streaming engine
// (stream::analyze_pcap_stream). Comparing them with each other only proves
// they agree; this test compares each of them with tests/goldens/
// pcap_errors.txt, so a change to the shared cursor cannot move the contract
// unnoticed.
//
// The inputs are the seed-77 mutant set of ingest_corpus_test plus one
// hand-built file per failure mode. The golden holds one line per input:
// file name, then the error's byte offset and reason ("ok" for none). The
// temporary directory is left out so the text is machine-independent.
//
// Regenerating the golden (only legitimate when the error contract changes
// on purpose): CCSIG_UPDATE_GOLDENS=1 ./pcap_error_golden_test
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/analyzer.h"
#include "pcap/capture.h"
#include "pcap/pcap_file.h"
#include "runtime/fault_injection.h"
#include "runtime/parse_error.h"
#include "stream/stream.h"
#include "test_helpers.h"

#ifndef CCSIG_GOLDEN_DIR
#error "CCSIG_GOLDEN_DIR must be defined (see tests/CMakeLists.txt)"
#endif

namespace ccsig {
namespace {

namespace fs = std::filesystem;

using ErrorOf =
    std::function<std::optional<runtime::ParseError>(const std::string&)>;

class PcapErrorGoldenTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::temp_directory_path() /
            ("ccsig_pcap_errors_" +
             std::to_string(::testing::UnitTest::GetInstance()->random_seed())))
               .string();
    fs::create_directories(dir_);
    inputs_ = build_inputs();
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string file(const std::string& name) const {
    return (fs::path(dir_) / name).string();
  }

  /// The capture ingest_corpus_test mutates: one buffer-limited transfer.
  std::string write_capture() const {
    const std::string path = file("healthy.pcap");
    testutil::TwoNodePath net(testutil::basic_link(10e6, 10, 25));
    pcap::PcapCaptureTap tap(path);
    net.server->add_tap(&tap);
    const auto result = testutil::run_transfer(net, 300'000);
    net.server->remove_tap(&tap);
    tap.flush();
    EXPECT_TRUE(result.completed);
    return path;
  }

  std::string copy_as(const std::string& source,
                      const std::string& name) const {
    const std::string dst = file(name);
    fs::copy_file(source, dst, fs::copy_options::overwrite_existing);
    return dst;
  }

  std::vector<std::string> build_inputs() const {
    const std::string healthy = write_capture();
    const std::uint64_t size = fs::file_size(healthy);
    std::vector<std::string> inputs{healthy};

    const std::string header = copy_as(healthy, "truncated_file_header.pcap");
    runtime::truncate_file(header, 10);
    inputs.push_back(header);

    const std::string rec_header =
        copy_as(healthy, "truncated_record_header.pcap");
    runtime::truncate_file(rec_header, 24 + 10);
    inputs.push_back(rec_header);

    const std::string body = copy_as(healthy, "truncated_record_body.pcap");
    runtime::truncate_file(body, size - 7);
    inputs.push_back(body);

    const std::string magic = file("bad_magic.pcap");
    {
      std::ofstream out(magic, std::ios::binary);
      const char junk[64] = "this is not a capture";
      out.write(junk, sizeof(junk));
    }
    inputs.push_back(magic);

    // The first record's incl_len (file header 24 bytes, then ts_sec and
    // ts_usec) set far past snaplen + 64 KiB.
    const std::string oversize = copy_as(healthy, "oversize_incl_len.pcap");
    {
      std::fstream io(oversize,
                      std::ios::binary | std::ios::in | std::ios::out);
      io.seekp(24 + 8);
      const unsigned char incl_len[4] = {0x00, 0x00, 0x10, 0x00};  // 1 MiB
      io.write(reinterpret_cast<const char*>(incl_len), sizeof(incl_len));
    }
    inputs.push_back(oversize);

    inputs.push_back(file("missing.pcap"));

    const auto mutants = runtime::mutate_corpus(healthy, file("mutants"),
                                                /*seed=*/77, /*count=*/14);
    inputs.insert(inputs.end(), mutants.begin(), mutants.end());
    return inputs;
  }

  /// One golden line per input: name, offset, reason (or "ok").
  std::string render(const ErrorOf& error_of) const {
    std::ostringstream os;
    for (const std::string& input : inputs_) {
      os << fs::path(input).filename().string() << '\t';
      const auto err = error_of(input);
      if (!err) {
        os << "ok\n";
        continue;
      }
      EXPECT_EQ(err->file, input);
      os << err->offset << '\t' << err->reason << '\n';
    }
    return os.str();
  }

  std::string dir_;
  std::vector<std::string> inputs_;
};

bool update_goldens() {
  const char* env = std::getenv("CCSIG_UPDATE_GOLDENS");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

std::string golden_path() {
  return std::string(CCSIG_GOLDEN_DIR) + "/pcap_errors.txt";
}

std::string read_golden() {
  std::ifstream in(golden_path(), std::ios::binary);
  if (!in) ADD_FAILURE() << "cannot open " << golden_path();
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST_F(PcapErrorGoldenTest, RecordReaderMatchesGolden) {
  const std::string actual = render([](const std::string& path) {
    return pcap::read_all_checked(path).error;
  });
  if (update_goldens()) {
    std::ofstream out(golden_path(), std::ios::binary | std::ios::trunc);
    out << actual;
    ASSERT_TRUE(out.good()) << "failed writing golden " << golden_path();
    return;
  }
  EXPECT_EQ(actual, read_golden());
}

TEST_F(PcapErrorGoldenTest, BatchAnalyzerMatchesGolden) {
  const FlowAnalyzer analyzer;
  EXPECT_EQ(render([&](const std::string& path) {
              return analyzer.analyze_pcap_checked(path).error;
            }),
            read_golden());
}

TEST_F(PcapErrorGoldenTest, StreamEngineMatchesGolden) {
  const FlowAnalyzer analyzer;
  EXPECT_EQ(render([&](const std::string& path) {
              return stream::analyze_pcap_stream(path, analyzer).error;
            }),
            read_golden());
}

}  // namespace
}  // namespace ccsig
