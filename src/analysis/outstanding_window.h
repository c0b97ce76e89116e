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
// Layout: a flat vector sorted by seq_end, live from a head cursor, instead
// of an ordered map. Data almost always arrives with strictly increasing
// seq_end (push_back), ACKs consume a prefix (advance the cursor), and
// retransmissions, the only case needing a real ordered lookup,
// binary-search the live range. No per-segment node allocation, no
// rebalancing, and the hot paths are O(1) amortized.
//
// Memory is bounded by the live flight, not by the consumed prefix:
//   * an ACK that consumes everything clears the vector (capacity kept, so
//     the next flight reuses it);
//   * otherwise the consumed prefix is erased once it is at least 32
//     entries and at least half the vector;
//   * a send into a full vector first drops the consumed prefix in place
//     if it is at least half the vector, and otherwise regrows to twice the
//     live count, copying only live entries.
// Capacity therefore never exceeds max(2 * peak live, 16) entries.
// release() returns the memory once the caller stops sampling.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <optional>
#include <span>
#include <vector>

#include "analysis/rtt_estimator.h"
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
      make_room();
      entries_.push_back(Entry{seq_end, at, false});
      highest_sent_ = seq_end;
      return false;
    }
    // Retransmitted range: tainted either way.
    auto it = std::lower_bound(
        live_begin(), entries_.end(), seq_end,
        [](const Entry& e, std::uint64_t v) { return e.seq_end < v; });
    if (it != entries_.end() && it->seq_end == seq_end) {
      // Same range sent again: taint and refresh the send time.
      it->tainted = true;
      it->sent_at = at;
      return true;
    }
    // A boundary below live ones, or inside an already-ACKed range (e.g. a
    // partial retransmit after loss): rare, so the O(n) insert is fine.
    // make_room() only drops consumed entries, so the offset into the
    // live range stays valid.
    const auto offset = it - live_begin();
    make_room();
    entries_.insert(live_begin() + offset, Entry{seq_end, at, true});
    return true;
  }

  /// Matches an ACK of `ack` arriving at `at` to the newest covered
  /// segment, and retires every segment at or below it. Returns the RTT
  /// sample unless nothing was covered or the covered segment is tainted.
  std::optional<RttSample> on_ack(std::uint64_t ack, sim::Time at) {
    const auto it = std::upper_bound(
        live_begin(), entries_.end(), ack,
        [](std::uint64_t v, const Entry& e) { return v < e.seq_end; });
    if (it == live_begin()) return std::nullopt;  // duplicate ACK
    const Entry covered = *std::prev(it);
    retire_before(it);
    if (covered.tainted) return std::nullopt;
    return RttSample{at, at - covered.sent_at, covered.seq_end};
  }

  /// Nothing is outstanding: no ACK can produce a sample.
  bool empty() const { return head_ == entries_.size(); }

  /// The live entries, in seq_end order.
  std::span<const Entry> live() const {
    return std::span<const Entry>(entries_).subspan(head_);
  }

  std::size_t capacity() const { return entries_.capacity(); }

  /// Frees the storage, leaving the window empty (for a caller that has
  /// stopped sampling).
  void release() {
    std::vector<Entry>().swap(entries_);
    head_ = 0;
  }

 private:
  std::vector<Entry>::iterator live_begin() {
    return entries_.begin() + static_cast<std::ptrdiff_t>(head_);
  }

  /// Retires every entry before `end`, compacting as described above.
  void retire_before(std::vector<Entry>::iterator end) {
    head_ = static_cast<std::size_t>(end - entries_.begin());
    if (head_ == entries_.size()) {
      entries_.clear();
      head_ = 0;
    } else if (head_ >= 32 && head_ * 2 >= entries_.size()) {
      drop_consumed();
    }
  }

  void drop_consumed() {
    entries_.erase(entries_.begin(), live_begin());
    head_ = 0;
  }

  /// Ensures one more entry fits without the vector's own doubling, which
  /// would size the storage by the consumed prefix too.
  void make_room() {
    if (entries_.size() < entries_.capacity()) return;
    if (head_ > 0 && head_ * 2 >= entries_.size()) {
      drop_consumed();
      return;
    }
    std::vector<Entry> grown;
    grown.reserve(std::max<std::size_t>(2 * (entries_.size() - head_), 16));
    grown.assign(live_begin(), entries_.end());
    entries_.swap(grown);
    head_ = 0;
  }

  std::vector<Entry> entries_;  // sorted by seq_end; live from head_
  std::size_t head_ = 0;
  std::uint64_t highest_sent_ = 0;  // highest seq_end ever sent
};

}  // namespace ccsig::analysis
