// Classic libpcap file format (the format tcpdump writes by default).
//
// Little-endian, magic 0xa1b2c3d4, microsecond timestamps — readable by
// tcpdump/tshark/wireshark. Only what the project needs: linktype EN10MB.
#pragma once

#include <cstdint>
#include <fstream>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "runtime/parse_error.h"
#include "sim/time.h"

namespace ccsig::pcap {

inline constexpr std::uint32_t kPcapMagic = 0xa1b2c3d4;
inline constexpr std::uint32_t kLinktypeEthernet = 1;

// On-disk structures are little-endian; x86-64 is little-endian, so plain
// memcpy of packed fields is byte-exact. (A big-endian port would need
// byte swapping here and nowhere else.)
struct FileHeader {
  std::uint32_t magic;
  std::uint16_t version_major;
  std::uint16_t version_minor;
  std::int32_t thiszone;
  std::uint32_t sigfigs;
  std::uint32_t snaplen;
  std::uint32_t linktype;
};
static_assert(sizeof(FileHeader) == 24);

struct RecordHeader {
  std::uint32_t ts_sec;
  std::uint32_t ts_usec;
  std::uint32_t incl_len;
  std::uint32_t orig_len;
};
static_assert(sizeof(RecordHeader) == 16);

/// One captured record: timestamp, the bytes actually stored (possibly
/// truncated at the snap length), and the original frame length.
struct PcapRecord {
  sim::Time timestamp = 0;       // nanoseconds (µs precision on disk)
  std::uint32_t orig_len = 0;    // length of the frame on the wire
  std::vector<std::uint8_t> data;  // captured bytes (<= snaplen)
};

/// Streams records into a pcap file.
class PcapWriter {
 public:
  /// Opens (truncates) `path`. Throws std::runtime_error on failure.
  explicit PcapWriter(const std::string& path,
                      std::uint32_t snaplen = 65535);

  /// Writes one record; `data` is truncated to the snap length.
  void write(sim::Time timestamp, std::span<const std::uint8_t> data,
             std::uint32_t orig_len);

  void flush() { out_.flush(); }
  std::uint64_t records_written() const { return records_; }

 private:
  std::ofstream out_;
  std::uint32_t snaplen_;
  std::uint64_t records_ = 0;
};

/// Reads every record into its own PcapRecord, through PcapCursor's
/// buffered backend (pcap/cursor.h; that cursor is the only pcap reader).
/// Throws runtime::ParseException on malformed input.
std::vector<PcapRecord> read_all(const std::string& path);

/// Everything readable from a (possibly damaged) capture: the longest
/// clean prefix of records, plus the structured error that stopped
/// parsing, if any.
struct PcapReadResult {
  std::vector<PcapRecord> records;
  std::optional<runtime::ParseError> error;
  bool ok() const { return !error.has_value(); }
};

/// Non-throwing read: truncated or corrupt captures yield the good prefix
/// and a ParseError instead of an exception.
PcapReadResult read_all_checked(const std::string& path);

}  // namespace ccsig::pcap
