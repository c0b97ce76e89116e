// The outstanding-segment window behind every RTT sample (paper §3.2).
//
// Data segments enter by their end sequence number. An ACK is matched to
// the newest outstanding segment it covers, and every segment at or below
// the ACK leaves the window. A retransmitted range is tainted and never
// yields a sample (Karn's rule). The batch estimator
// (extract_rtt_samples) and the streaming sampler (stream::FlowState) both
// match through this one type, which is what keeps their samples
// identical.
//
// Layout: a sim::FifoVector sorted by seq_end instead of an ordered map.
// Data almost always arrives with strictly increasing seq_end (push_back),
// ACKs retire a prefix, and retransmissions, the only case needing a real
// ordered lookup, binary-search the live range. No per-segment node
// allocation, no rebalancing, and the hot paths are O(1) amortized.
// Capacity never exceeds max(2 * peak live, 16) entries (see
// fifo_vector.h); release() returns the memory once the caller stops
// sampling.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <optional>
#include <span>

#include "analysis/rtt_estimator.h"
#include "sim/fifo_vector.h"
#include "sim/time.h"

namespace ccsig::analysis {

class OutstandingWindow {
 public:
  struct Entry {
    std::uint64_t seq_end;
    sim::Time sent_at;
    bool tainted;  // retransmitted range: excluded per Karn's rule
  };

  /// Records a data segment ending at `seq_end`, sent at `at`. Returns
  /// true when the segment is a retransmission (it ends at or below the
  /// highest end ever sent).
  bool on_send(std::uint64_t seq_end, sim::Time at) {
    if (seq_end > highest_sent_) {
      // Fresh data: by definition the largest boundary seen, so it belongs
      // at the back and is untainted.
      entries_.push_back(Entry{seq_end, at, false});
      highest_sent_ = seq_end;
      return false;
    }
    // Retransmitted range: tainted either way.
    auto it = std::lower_bound(
        entries_.begin(), entries_.end(), seq_end,
        [](const Entry& e, std::uint64_t v) { return e.seq_end < v; });
    if (it != entries_.end() && it->seq_end == seq_end) {
      // Same range sent again: taint and refresh the send time.
      it->tainted = true;
      it->sent_at = at;
      return true;
    }
    // A boundary below live ones, or inside an already-ACKed range (e.g. a
    // partial retransmit after loss): rare, so the O(n) insert is fine.
    entries_.insert(it, Entry{seq_end, at, true});
    return true;
  }

  /// Matches an ACK of `ack` arriving at `at` to the newest covered
  /// segment, and retires every segment at or below it. Returns the RTT
  /// sample unless nothing was covered or the covered segment is tainted.
  std::optional<RttSample> on_ack(std::uint64_t ack, sim::Time at) {
    const auto it = std::upper_bound(
        entries_.begin(), entries_.end(), ack,
        [](std::uint64_t v, const Entry& e) { return v < e.seq_end; });
    if (it == entries_.begin()) return std::nullopt;  // duplicate ACK
    const Entry covered = *std::prev(it);
    entries_.retire_before(it);
    if (covered.tainted) return std::nullopt;
    return RttSample{at, at - covered.sent_at, covered.seq_end};
  }

  /// Nothing is outstanding: no ACK can produce a sample.
  bool empty() const { return entries_.empty(); }

  /// The live entries, in seq_end order.
  std::span<const Entry> live() const {
    return std::span<const Entry>(entries_.begin(), entries_.end());
  }

  std::size_t capacity() const { return entries_.capacity(); }

  /// Frees the storage, leaving the window empty (for a caller that has
  /// stopped sampling).
  void release() { entries_.release(); }

 private:
  sim::FifoVector<Entry> entries_;  // sorted by seq_end
  std::uint64_t highest_sent_ = 0;  // highest seq_end ever sent
};

}  // namespace ccsig::analysis
