// The normalized packet-observation record all analysis code consumes,
// whether it came from a live simulator tap or from a pcap file.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/packet.h"
#include "sim/time.h"

namespace ccsig::analysis {

// Field order packs the 12-byte key beside the 32-bit fields and the flags
// into the tail: 48 bytes with no interior padding. Batch ingest holds one
// record per captured packet, so this size is most of its peak memory.
struct TraceRecord {
  sim::Time time = 0;
  std::uint64_t seq = 0;   // 64-bit stream offset (unwrapped)
  std::uint64_t ack = 0;
  sim::FlowKey key;
  std::uint32_t payload_bytes = 0;
  std::uint32_t window = 0;
  sim::TcpFlags flags;
};
static_assert(sizeof(TraceRecord) == 48);

using Trace = std::vector<TraceRecord>;

}  // namespace ccsig::analysis
