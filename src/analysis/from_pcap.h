// Bridges pcap files into the analysis representation.
#pragma once

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "analysis/flow_trace.h"
#include "analysis/seq_unwrap.h"
#include "analysis/trace_record.h"
#include "pcap/headers.h"
#include "pcap/pcap_file.h"

namespace ccsig::analysis {

/// Decodes one captured frame's headers into a WireRecord (timestamp,
/// 4-tuple, 32-bit wire fields). Returns nullopt for frames that are not
/// TCP/IPv4 — the same frames trace_from_records skips. Inline because it
/// runs once per record on the ingest fast path.
inline std::optional<WireRecord> wire_record_from_frame(
    sim::Time timestamp, std::span<const std::uint8_t> frame) {
  const auto decoded = pcap::decode_frame(frame);
  if (!decoded) return std::nullopt;
  WireRecord w;
  w.time = timestamp;
  w.key.src_addr = decoded->src_ip & 0x00FFFFFFu;
  w.key.dst_addr = decoded->dst_ip & 0x00FFFFFFu;
  w.key.src_port = decoded->src_port;
  w.key.dst_port = decoded->dst_port;
  w.seq32 = decoded->seq32;
  w.ack32 = decoded->ack32;
  w.payload_bytes = decoded->payload_bytes;
  w.window = decoded->window;
  w.flags.syn = decoded->syn;
  w.flags.ack = decoded->ack;
  w.flags.fin = decoded->fin;
  w.flags.rst = decoded->rst;
  return w;
}

/// Decodes captured frames into TraceRecords, unwrapping 32-bit wire
/// sequence/ack numbers into 64-bit stream offsets (per flow direction).
/// Non-TCP/IPv4 records are skipped.
Trace trace_from_records(const std::vector<pcap::PcapRecord>& records);

/// A capture decoded straight into flows: the longest clean record prefix
/// of a (possibly damaged) file, plus the structured error that stopped
/// reading, if any.
struct FlowsReadResult {
  std::vector<FlowTrace> flows;
  std::optional<runtime::ParseError> error;
  bool ok() const { return !error.has_value(); }
};

/// Single-pass batch ingest: PcapCursor (buffered backend) →
/// wire_record_from_frame → FlowSplitter. The flows equal
/// split_flows(trace_from_records(read_all_checked(path).records)), but no
/// record is held twice and no raw frame bytes are kept.
FlowsReadResult flows_from_pcap_checked(const std::string& path);

}  // namespace ccsig::analysis
