// Deterministic benchmark corpus built from the in-repo simulator.
//
// Base captures: one testbed rep per (scenario, congestion control) on a
// point of the paper's access-link grid, captured by a PcapCaptureTap on
// server1 exactly as `ccsig_run_testbed --pcap` does. Every capture is
// kept — external reps whose slow start yields too few RTT samples too —
// and each is closed with a FIN handshake (the simulated sender never
// sends one), so a flow finalizes on FIN rather than at end of capture.
//
// Merged captures: many copies of the base captures, each with its own
// 4-tuple and a Poisson arrival offset, time-merged into one pcap image.
//
// Oracle: each FIN-closed base capture is analysed on its own; the
// expected result for a copy is that report under the copy's tuple.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/analyzer.h"
#include "sim/packet.h"
#include "testbed/experiment.h"

namespace perfbench {

/// One access-link point of the paper's testbed grid (§3.1).
struct LinkPoint {
  std::string name;
  double rate_mbps = 0;
  double latency_ms = 0;
  double loss = 0;
  double buffer_ms = 0;
};

/// Test-flow duration of every rep. Slow start ends well inside it on
/// every grid point, so the signature is the same as in a 10 s test.
inline constexpr double kTestSeconds = 1.0;

/// One testbed rep: scenario x congestion-control module on one link.
struct GridSpec {
  int index = 0;
  bool external = false;
  std::string cc;
  LinkPoint link;
  std::uint64_t seed = 0;

  ccsig::testbed::TestbedConfig config() const;
  std::string label() const;
};

/// {self, external} x every registered congestion-control module on
/// `link`; rep seeds are derived from `seed`.
std::vector<GridSpec> make_grid(const LinkPoint& link, std::uint64_t seed);

/// The comparable outcome of one rep.
struct RepRow {
  std::optional<ccsig::features::FlowFeatures> features;
  std::uint64_t segments_sent = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t bytes_acked = 0;
  double receiver_throughput_bps = 0;
  std::uint64_t cross_traffic_bytes = 0;

  bool operator==(const RepRow& o) const;
  std::uint64_t digest(std::uint64_t h) const;
};

RepRow row_from(const ccsig::testbed::TestResult& r);

/// Bit-exact comparisons (doubles compared by value, NaN never equal).
bool same_features(const std::optional<ccsig::features::FlowFeatures>& a,
                   const std::optional<ccsig::features::FlowFeatures>& b);
bool same_report(const ccsig::FlowReport& a, const ccsig::FlowReport& b);

// Headers-only frames (the tap's snap length), so a capture is a 24-byte
// file header followed by fixed-size records.
inline constexpr std::size_t kFrameBytes = 54;
inline constexpr std::size_t kPcapHeaderBytes = 24;
inline constexpr std::size_t kRecordBytes = 16 + kFrameBytes;

struct Frame {
  ccsig::sim::Time time = 0;  // ns, microsecond-aligned like the file
  std::uint32_t orig_len = 0;
  std::array<std::uint8_t, kFrameBytes> bytes{};
};

struct BaseCapture {
  GridSpec spec;
  RepRow row;                     // reference row for the grid phase
  ccsig::sim::FlowKey data_key;   // the simulator's test-flow tuple
  std::vector<Frame> frames;      // FIN-closed, in capture order
  std::size_t source_frames = 0;  // frames before the appended handshake
  bool fin_closed = false;        // false: no handshake to close
  /// The FIN-closed capture analysed alone; nullopt when the flow never
  /// carried payload (a lost SYN), which the analyzer reports as no flow.
  std::optional<ccsig::FlowReport> oracle;
};

/// Runs `spec` with a capture tap on server1 writing `pcap_path`, reads
/// the capture back, closes it with a FIN handshake and analyses it.
BaseCapture capture_base(const GridSpec& spec, const std::string& pcap_path,
                         const ccsig::FlowAnalyzer& analyzer);

/// Reads a headers-only capture written by PcapCaptureTap.
std::vector<Frame> read_frames(const std::string& pcap_path);

/// Appends FIN/ACK (sender), FIN/ACK (receiver), ACK (sender) one
/// millisecond apart after the last frame, with sequence and ack numbers
/// that close both directions. `data_key` is the payload direction.
/// Returns false, appending nothing, when the receiver never answered
/// (no handshake to close).
bool close_with_fin(std::vector<Frame>& frames,
                    const ccsig::sim::FlowKey& data_key);

/// Analyses frames as one stand-alone capture (at most one flow).
std::optional<ccsig::FlowReport> analyze_frames(const std::vector<Frame>& frames,
                                 const ccsig::FlowAnalyzer& analyzer);

/// Copy `copy` of a base flow: sender address 1.<copy>, receiver 2.<copy>
/// (inside the 24-bit address space the decoder keeps), same ports.
ccsig::sim::FlowKey copy_key(std::uint32_t copy,
                             const ccsig::sim::FlowKey& base_key);
/// The copy id a remapped payload-direction tuple encodes, or -1.
long copy_of(const ccsig::sim::FlowKey& data_key);
/// Rewrites the frame's addresses (MAC, IP, checksum) for copy `copy`.
void remap_frame(Frame& f, const ccsig::sim::FlowKey& base_key,
                 std::uint32_t copy);

/// Expected report of a copy (nullopt: the copy yields no verdict).
std::optional<ccsig::FlowReport> expected_report(const BaseCapture& base, std::uint32_t copy);

/// A time-merged capture of many copies, written to `path`.
struct MergedCapture {
  struct Copy {
    std::uint32_t base = 0;
    ccsig::sim::Time offset = 0;   // arrival time of its first frame
    std::size_t first_record = 0;  // merged index of its first frame
    std::size_t last_record = 0;   // merged index of its closing frame
  };
  std::string path;
  std::size_t records = 0;
  std::vector<Copy> copies;  // indexed by copy id
  std::size_t peak_concurrent = 0;  // most copies open at one instant
};

/// Each run of bases.size() consecutive copies uses every base once, in a
/// seeded order; arrival gaps are exponential with mean 1/arrivals_per_s
/// (capture time, microsecond grid). Stops after `max_copies` copies, or
/// earlier once the merge holds at least `min_records` records (0 = no
/// record target). Writes the capture to `path` with pcap::PcapWriter at
/// the tap's snap length, so every record is kRecordBytes long.
MergedCapture merge_copies(const std::vector<BaseCapture>& bases,
                           std::size_t max_copies, std::size_t min_records,
                           double arrivals_per_s, std::uint64_t seed,
                           const std::string& path);

/// splitmix64: derives independent seeds from one.
std::uint64_t mix_seed(std::uint64_t x);

std::vector<std::uint8_t> read_file(const std::string& path);
void write_file(const std::string& path, const std::vector<std::uint8_t>& b);

}  // namespace perfbench
