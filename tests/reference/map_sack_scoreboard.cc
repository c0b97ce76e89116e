#include "reference/map_sack_scoreboard.h"

#include <algorithm>
#include <cassert>

namespace ccsig::tcp::reference {

void MapSackScoreboard::insert(std::uint64_t seq, std::uint32_t len,
                            sim::Time now) {
  in_flight_.emplace(seq, Segment{len, now, false});
}

void MapSackScoreboard::mark_retransmitted(std::uint64_t seq, sim::Time now) {
  auto it = in_flight_.find(seq);
  if (it != in_flight_.end()) {
    it->second.retransmitted = true;
    it->second.sent_at = now;
  }
}

bool MapSackScoreboard::head_for_retransmit(std::uint64_t snd_una,
                                         std::uint64_t* seq,
                                         std::uint32_t* len) const {
  auto it = in_flight_.find(snd_una);
  if (it == in_flight_.end()) {
    // The head segment boundary can shift after a partial ACK of a resized
    // segment; retransmit whatever the earliest outstanding segment is.
    it = in_flight_.begin();
    if (it == in_flight_.end()) return false;
  }
  *seq = it->first;
  *len = it->second.len;
  return true;
}

void MapSackScoreboard::apply_sack(const sim::Packet& p) {
  for (const auto& [start, end] : p.sack_blocks) {
    // Mark every in-flight segment fully inside the block. A span cache
    // entry overlapping the block's start proves everything below its
    // resume position is already marked, so the scan starts there.
    std::uint64_t scan_from = start;
    SackSpan* hit = nullptr;
    for (auto& span : sack_spans_) {
      if (span.end != 0 && span.start <= start && start <= span.end) {
        hit = &span;
        break;
      }
    }
    if (hit != nullptr) {
      if (end <= hit->end) continue;  // block fully processed before
      scan_from = std::max(scan_from, hit->end);
    }
    auto it = in_flight_.lower_bound(scan_from);
    std::uint64_t block_high = 0;  // highest end newly marked in this block
    while (it != in_flight_.end() && it->first + it->second.len <= end) {
      if (!it->second.sacked) {
        Segment& seg = it->second;
        const std::uint64_t seg_end = it->first + seg.len;
        seg.sacked = true;
        sacked_bytes_ += seg.len;
        // If the old boundary already counted it presumed-lost, move it
        // from the loss sum to the sacked sum.
        if (seg_end <= highest_sacked_ && !seg.lost_rtx) {
          lost_unrtx_bytes_ -= seg.len;
        }
        block_high = seg_end;  // ends ascend within the block
      }
      ++it;
    }
    if (block_high > highest_sacked_) raise_highest_sacked(block_high);
    // Resume position: the first segment not fully covered (it may be a
    // straddler that a later, longer block covers entirely), or the block
    // end when everything below it was covered.
    const std::uint64_t processed_to =
        it == in_flight_.end() ? end : std::min<std::uint64_t>(end, it->first);
    if (hit != nullptr) {
      hit->end = std::max(hit->end, processed_to);
    } else {
      sack_spans_[sack_span_victim_] = SackSpan{start, processed_to};
      sack_span_victim_ = (sack_span_victim_ + 1) % kSackSpanCacheSize;
    }
  }
}

void MapSackScoreboard::raise_highest_sacked(std::uint64_t new_end) {
  // Segment boundaries never move except the scoreboard head (partial
  // ACK), so the old boundary always aligns with a segment start and the
  // range scan visits each segment once over the connection's lifetime.
  for (auto it = in_flight_.lower_bound(highest_sacked_);
       it != in_flight_.end() && it->first + it->second.len <= new_end;
       ++it) {
    if (!it->second.sacked && !it->second.lost_rtx) {
      lost_unrtx_bytes_ += it->second.len;
    }
  }
  highest_sacked_ = new_end;
}

bool MapSackScoreboard::next_lost_retransmit(std::uint64_t* seq,
                                          std::uint32_t* len) {
  // Find the first presumed-lost, not-yet-retransmitted segment. The
  // cursor skips the permanently ineligible prefix (sacked or already
  // retransmitted) so repeated calls don't re-walk the scoreboard.
  for (auto it = in_flight_.lower_bound(rtx_cursor_); it != in_flight_.end();
       ++it) {
    const std::uint64_t s = it->first;
    Segment& seg = it->second;
    if (s + seg.len > highest_sacked_) break;
    if (seg.sacked || seg.lost_rtx) {
      rtx_cursor_ = s + seg.len;
      continue;
    }
    seg.lost_rtx = true;
    lost_unrtx_bytes_ -= seg.len;  // its retransmission re-enters the pipe
    rtx_cursor_ = s + seg.len;
    *seq = s;
    *len = seg.len;
    return true;
  }
  return false;
}

sim::Duration MapSackScoreboard::ack_advance(std::uint64_t ack,
                                             sim::Time now) {
  // RTT sample: highest fully-covered, never-retransmitted segment (Karn).
  sim::Duration rtt_sample = -1;
  for (auto it = in_flight_.begin();
       it != in_flight_.end() && it->first + it->second.len <= ack;) {
    const Segment& seg = it->second;
    if (!seg.retransmitted) rtt_sample = now - seg.sent_at;
    if (seg.sacked) {
      sacked_bytes_ -= seg.len;
    } else if (it->first + seg.len <= highest_sacked_ && !seg.lost_rtx) {
      lost_unrtx_bytes_ -= seg.len;
    }
    it = in_flight_.erase(it);
  }
  // A partial ACK inside a segment: split bookkeeping (rare; only after MSS
  // changes). Treat remainder as a fresh segment boundary.
  if (!in_flight_.empty() && in_flight_.begin()->first < ack) {
    auto node = in_flight_.extract(in_flight_.begin());
    const std::uint32_t trim = static_cast<std::uint32_t>(ack - node.key());
    // The head is never SACKed here (cumulative ACKs cannot land inside a
    // received run), so only the loss sum can be holding its bytes.
    if (node.key() + node.mapped().len <= highest_sacked_ &&
        !node.mapped().lost_rtx) {
      lost_unrtx_bytes_ -= trim;
    }
    node.mapped().len -= trim;
    node.key() = ack;
    in_flight_.insert(std::move(node));
  }
  return rtt_sample;
}

void MapSackScoreboard::on_rto() {
  // Allow every presumed-lost segment to be retransmitted again; SACK marks
  // stay (the receiver still holds that data). Clearing the marks
  // invalidates the recovery cursor's skipped prefix and the loss sum;
  // rebuild both (an RTO is rare enough for the full walk).
  lost_unrtx_bytes_ = 0;
  for (auto& [seq, seg] : in_flight_) {
    seg.lost_rtx = false;
    if (!seg.sacked && seq + seg.len <= highest_sacked_) {
      lost_unrtx_bytes_ += seg.len;
    }
  }
  rtx_cursor_ = 0;
}

std::uint64_t MapSackScoreboard::pipe_bytes(std::uint64_t flight) const {
  // RFC 6675 pipe: bytes believed in the network. SACKed bytes arrived;
  // unSACKed bytes below the highest SACK are presumed lost (unless their
  // retransmission is in flight). Both sums are maintained incrementally,
  // so this is O(1) where a scoreboard scan per recovery ACK used to make
  // loss episodes quadratic.
  assert(sacked_bytes_ + lost_unrtx_bytes_ <= flight);
  return flight - sacked_bytes_ - lost_unrtx_bytes_;
}

}  // namespace ccsig::tcp::reference
