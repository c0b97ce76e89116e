// Reference model for differential tests: the SACK scoreboard as it was
// when it kept its segments in a std::map keyed by seq. Same interface and
// same decisions as tcp::SackScoreboard, which keeps them in a flat vector;
// tcp_scoreboard_flat_test runs the two side by side.
#pragma once

#include <cstdint>
#include <map>

#include "sim/packet.h"
#include "sim/time.h"

namespace ccsig::tcp::reference {

class MapSackScoreboard {
 public:
  struct Segment {
    std::uint32_t len = 0;
    sim::Time sent_at = 0;
    bool retransmitted = false;
    bool sacked = false;    // covered by a SACK block
    bool lost_rtx = false;  // presumed lost and already retransmitted
  };
  using SegmentMap = std::map<std::uint64_t, Segment>;

  /// Records a newly sent segment at `seq`.
  void insert(std::uint64_t seq, std::uint32_t len, sim::Time now);

  /// Marks the segment at `seq` retransmitted now (no-op if unknown —
  /// the head boundary can shift under partial ACKs).
  void mark_retransmitted(std::uint64_t seq, sim::Time now);

  /// The segment to retransmit on RTO or NewReno partial ACK: the one at
  /// `snd_una`, or the earliest outstanding when the head boundary moved.
  /// Returns false when nothing is outstanding.
  bool head_for_retransmit(std::uint64_t snd_una, std::uint64_t* seq,
                           std::uint32_t* len) const;

  /// Applies the packet's SACK blocks to the scoreboard.
  void apply_sack(const sim::Packet& p);

  /// RFC 6675 NextSeg() step 1: finds the first presumed-lost segment whose
  /// retransmission is not in flight, marks it as retransmitted-for-loss,
  /// and returns its range. Returns false when no hole remains.
  bool next_lost_retransmit(std::uint64_t* seq, std::uint32_t* len);

  /// A cumulative ACK advanced to `ack`: drops covered segments (splitting
  /// a straddled head) and returns the freshest Karn-valid RTT sample
  /// (-1 when every covered segment was retransmitted).
  sim::Duration ack_advance(std::uint64_t ack, sim::Time now);

  /// An RTO fired: every presumed-lost segment becomes eligible for
  /// retransmission again. SACK marks stay (the receiver holds that data);
  /// the loss sum and the recovery cursor are rebuilt from scratch.
  void on_rto();

  /// RFC 6675 pipe: bytes believed in the network, from the incrementally
  /// maintained sums (`flight` is snd_nxt - snd_una, owned by the sender).
  std::uint64_t pipe_bytes(std::uint64_t flight) const;

  std::uint64_t highest_sacked() const { return highest_sacked_; }
  std::size_t size() const { return in_flight_.size(); }
  bool empty() const { return in_flight_.empty(); }

 private:
  void raise_highest_sacked(std::uint64_t new_end);

  SegmentMap in_flight_;

  std::uint64_t highest_sacked_ = 0;  // seq_end of highest SACKed byte

  // SACK-recovery accelerators. Both are pure strength reductions: the
  // decisions (and therefore every emitted packet) are identical to the
  // naive full scans, which made loss recovery quadratic in the flight
  // size and dominated the simulator's profile.
  //
  // Scoreboard position below which no recovery retransmission candidate
  // remains: every earlier segment is SACKed or already retransmitted, and
  // both marks are sticky until an RTO (which resets the cursor).
  std::uint64_t rtx_cursor_ = 0;
  // Running sums over the scoreboard, kept exact at every transition so
  // the RFC 6675 pipe is O(1) instead of a full scan per recovery ACK:
  // pipe = flight - sacked - presumed-lost, where presumed-lost counts
  // unSACKed segments below highest_sacked_ whose retransmission is not
  // in flight.
  std::uint64_t sacked_bytes_ = 0;
  std::uint64_t lost_unrtx_bytes_ = 0;
  // Recently processed SACK spans. Receivers repeat the same blocks on
  // every duplicate ACK and extend one run at a time, so block scans
  // resume where the previous scan stopped instead of re-walking the
  // (already marked) run from its start. `end` is the resume position:
  // every segment fully inside [start, end) is marked sacked.
  struct SackSpan {
    std::uint64_t start = 0;
    std::uint64_t end = 0;  // 0 = empty entry
  };
  static constexpr int kSackSpanCacheSize = 4;
  SackSpan sack_spans_[kSackSpanCacheSize];
  int sack_span_victim_ = 0;  // round-robin replacement
};

}  // namespace ccsig::tcp::reference
