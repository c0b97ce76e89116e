#include "tcp/tcp_sink.h"

#include <algorithm>

namespace ccsig::tcp {

TcpSink::TcpSink(sim::Simulator& sim, sim::Node* local, Config cfg)
    : sim_(sim),
      local_(local),
      cfg_(std::move(cfg)),
      delayed_ack_timer_(sim, [this] { send_ack(); }) {
  local_->register_endpoint(cfg_.data_key.dst_port,
                            [this](const sim::Packet& p) { on_packet(p); });
}

TcpSink::~TcpSink() { local_->unregister_endpoint(cfg_.data_key.dst_port); }

void TcpSink::on_packet(const sim::Packet& p) {
  if (p.flags.syn) {
    // Reply SYN-ACK; the peer's SYN consumes wire sequence 0, so the next
    // expected byte is 1.
    rcv_nxt_ = 1;
    sim::Packet synack;
    synack.key = cfg_.data_key.reversed();
    synack.seq = 0;
    synack.ack = 1;
    synack.flags.syn = true;
    synack.flags.ack = true;
    synack.window = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(cfg_.rwnd_bytes, 0xFFFFFFFFu));
    local_->send(synack);
    return;
  }
  if (p.payload_bytes > 0) {
    on_data(p);
    return;
  }
  if (p.flags.fin) {
    ++rcv_nxt_;
    send_ack();
  }
  // Pure ACKs from the peer (handshake completion) need no action.
}

void TcpSink::on_data(const sim::Packet& p) {
  ++stats_.segments_received;
  if (stats_.first_data_at < 0) stats_.first_data_at = sim_.now();
  stats_.last_data_at = sim_.now();

  const std::uint64_t seg_end = p.seq + p.payload_bytes;
  if (seg_end <= rcv_nxt_) {
    // Entirely duplicate (spurious retransmission): re-ACK immediately so
    // the sender's state converges.
    ++stats_.duplicate_segments;
    send_ack();
    return;
  }
  if (p.seq > rcv_nxt_) {
    // A hole precedes this segment: stash it and emit an immediate
    // duplicate ACK (RFC 5681 §3.2).
    ++stats_.out_of_order_segments;
    stash(p.seq, seg_end);
    send_ack();
    return;
  }
  // In-order (possibly overlapping) delivery.
  stats_.bytes_received += seg_end - rcv_nxt_;
  rcv_nxt_ = seg_end;
  // Absorb any out-of-order segments this unlocked.
  auto it = ooo_.begin();
  for (; it != ooo_.end() && it->start <= rcv_nxt_; ++it) {
    if (it->end > rcv_nxt_) {
      stats_.bytes_received += it->end - rcv_nxt_;
      rcv_nxt_ = it->end;
    }
  }
  ooo_.retire_before(it);

  if (!ooo_.empty()) {
    // Filling part of a hole: ACK immediately to speed recovery.
    send_ack();
    return;
  }
  if (quickack_sent_ < cfg_.quickack_segments) {
    ++quickack_sent_;
    send_ack();
    return;
  }
  if (++unacked_segments_ >= cfg_.segments_per_ack) {
    send_ack();
  } else if (!delayed_ack_timer_.armed()) {
    delayed_ack_timer_.arm_in(cfg_.delayed_ack_timeout);
  }
}

void TcpSink::stash(std::uint64_t start, std::uint64_t end) {
  const auto it = std::lower_bound(
      ooo_.begin(), ooo_.end(), start,
      [](const OooSegment& s, std::uint64_t v) { return s.start < v; });
  if (it == ooo_.end() || it->start != start) {
    ooo_.insert(it, OooSegment{start, end});
  } else if (end > it->end) {
    it->end = end;
  }
}

void TcpSink::send_ack() {
  unacked_segments_ = 0;
  delayed_ack_timer_.cancel();
  sim::Packet ack;
  ack.key = cfg_.data_key.reversed();
  ack.seq = 1;  // we send no data; our SYN-ACK consumed sequence 0
  ack.ack = rcv_nxt_;
  ack.flags.ack = true;
  if (cfg_.enable_sack && !ooo_.empty()) {
    // Up to 3 SACK blocks, newest-touched range first (RFC 2018). The
    // newest range is the one containing the most recently arrived data;
    // report the highest ranges, which is where recent arrivals live.
    for (auto it = ooo_.end();
         it != ooo_.begin() && !ack.sack_blocks.full();) {
      --it;
      ack.sack_blocks.push_back(it->start, it->end);
    }
  }
  ack.window = static_cast<std::uint32_t>(
      std::min<std::uint64_t>(cfg_.rwnd_bytes, 0xFFFFFFFFu));
  local_->send(ack);
  ++stats_.acks_sent;
}

}  // namespace ccsig::tcp
