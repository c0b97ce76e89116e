// The TCP data receiver (client side of a download).
//
// Replies to the SYN, generates cumulative ACKs (configurable delayed-ACK
// factor, with immediate duplicate ACKs for out-of-order data per RFC 5681),
// advertises a receive window, and tracks goodput.
#pragma once

#include <cstdint>

#include "sim/fifo_vector.h"
#include "sim/node.h"
#include "sim/packet.h"
#include "sim/simulator.h"
#include "sim/timer.h"
#include "tcp/tcp_types.h"

namespace ccsig::tcp {

class TcpSink {
 public:
  struct Config {
    /// The *server-to-client* flow key, i.e. the key of the data direction;
    /// the sink listens at (key.dst_addr, key.dst_port).
    sim::FlowKey data_key;
    std::uint64_t rwnd_bytes = 4ull << 20;  // advertised window
    /// ACK every Nth in-order segment (Linux delayed-ACK behaviour is 2).
    /// A 40 ms delayed-ACK timer flushes a pending ACK either way.
    int segments_per_ack = 2;
    sim::Duration delayed_ack_timeout = 40 * sim::kMillisecond;
    bool enable_sack = true;  // attach SACK blocks for out-of-order data
    /// Linux-style quickack: ACK every segment for the first N in-order
    /// segments of the connection (slow start needs a dense ACK clock).
    int quickack_segments = 32;
  };

  struct Stats {
    std::uint64_t bytes_received = 0;      // cumulative in-order payload
    std::uint64_t segments_received = 0;   // data segments seen (incl. dup)
    std::uint64_t duplicate_segments = 0;  // below rcv_nxt (spurious retx)
    std::uint64_t out_of_order_segments = 0;
    std::uint64_t acks_sent = 0;
    sim::Time first_data_at = -1;
    sim::Time last_data_at = -1;
  };

  TcpSink(sim::Simulator& sim, sim::Node* local, Config cfg);
  ~TcpSink();
  TcpSink(const TcpSink&) = delete;
  TcpSink& operator=(const TcpSink&) = delete;

  const Stats& stats() const { return stats_; }

  /// In-order bytes received so far (the download's goodput numerator).
  std::uint64_t bytes_received() const { return stats_.bytes_received; }

 private:
  void on_packet(const sim::Packet& p);
  void on_data(const sim::Packet& p);
  // Stashes the out-of-order segment [start, end).
  void stash(std::uint64_t start, std::uint64_t end);
  void send_ack();

  sim::Simulator& sim_;
  sim::Node* local_;
  Config cfg_;
  sim::Timer delayed_ack_timer_;  // flushes a pending delayed ACK

  // One stashed out-of-order segment. Segments are kept as they arrived,
  // one entry per distinct start (a repeat keeps the longer end), not
  // merged into runs: SACK blocks report the highest entries.
  struct OooSegment {
    std::uint64_t start;
    std::uint64_t end;  // exclusive
  };

  std::uint64_t rcv_nxt_ = 0;        // next expected wire sequence
  sim::FifoVector<OooSegment> ooo_;  // sorted by start
  int unacked_segments_ = 0;
  int quickack_sent_ = 0;

  Stats stats_;
};

}  // namespace ccsig::tcp
