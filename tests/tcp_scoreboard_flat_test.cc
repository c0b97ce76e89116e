// Differential tests of the transport's flat sequence-keyed state against
// the std::map models it replaced.
//
// * SackScoreboard (a sorted sim::FifoVector) runs side by side with
//   reference::MapSackScoreboard over seeded random sender/receiver
//   histories: new data, loss, retransmissions (by loss marking and of the
//   head), SACK blocks (repeated, extended, reordered), cumulative and
//   partial ACKs, and RTOs. Every return value, pipe_bytes() and
//   highest_sacked() must match after every step, and the flat storage
//   must stay within max(2 x peak live segments, 16) entries.
// * TcpSink (out-of-order segments in a sorted sim::FifoVector) receives seeded
//   random arrivals (reordered, lost, duplicated, overlapping) and every
//   ACK it emits must carry the cumulative ACK and SACK blocks that a
//   std::map reassembly predicts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <random>
#include <vector>

#include "reference/map_sack_scoreboard.h"
#include "sim/node.h"
#include "sim/simulator.h"
#include "sim/trace.h"
#include "tcp/scoreboard.h"
#include "tcp/tcp_sink.h"

namespace ccsig::tcp {
namespace {

using sim::SackBlock;

constexpr std::uint32_t kMss = 1448;

/// What a receiver holds of the stream: the cumulative point plus the
/// out-of-order segments as they arrived (start -> end, the longer end on
/// a repeat), exactly as the map-based TcpSink kept them.
struct ReceiverModel {
  std::uint64_t rcv_nxt = 1;
  std::map<std::uint64_t, std::uint64_t> ooo;
  std::uint64_t bytes_received = 0;

  void receive(std::uint64_t seq, std::uint64_t end) {
    if (end <= rcv_nxt) return;
    if (seq > rcv_nxt) {
      auto [it, inserted] = ooo.emplace(seq, end);
      if (!inserted && end > it->second) it->second = end;
      return;
    }
    bytes_received += end - rcv_nxt;
    rcv_nxt = end;
    for (auto it = ooo.begin(); it != ooo.end() && it->first <= rcv_nxt;) {
      if (it->second > rcv_nxt) {
        bytes_received += it->second - rcv_nxt;
        rcv_nxt = it->second;
      }
      it = ooo.erase(it);
    }
  }

  /// The SACK blocks the sink reports: the three highest stashed segments,
  /// highest first.
  std::vector<SackBlock> sink_blocks() const {
    std::vector<SackBlock> out;
    for (auto it = ooo.rbegin(); it != ooo.rend() && out.size() < 3; ++it) {
      out.push_back(SackBlock{it->first, it->second});
    }
    return out;
  }

  /// The same data reported as merged runs (how most stacks report it),
  /// highest three first.
  std::vector<SackBlock> run_blocks() const {
    std::vector<SackBlock> runs;
    for (const auto& [start, end] : ooo) {
      if (!runs.empty() && start <= runs.back().end) {
        runs.back().end = std::max(runs.back().end, end);
      } else {
        runs.push_back(SackBlock{start, end});
      }
    }
    std::reverse(runs.begin(), runs.end());
    if (runs.size() > 3) runs.resize(3);
    return runs;
  }
};

/// Drives the flat and the map scoreboard with the same random history and
/// compares them after every step.
class ScoreboardDuel {
 public:
  explicit ScoreboardDuel(std::uint64_t seed) : rng_(seed) {}

  void run(int steps) {
    for (int step = 0; step < steps; ++step) {
      now_ += pick(0, 2000) * sim::kMicrosecond;
      // The window limit drifts so the outstanding count swings between a
      // handful and several hundred segments (exercising both compaction
      // and regrowth).
      if (pick(0, 199) == 0) window_segments_ = pick(1, 800);
      const int op = pick(0, 99);
      if (op < 45) {
        for (int burst = pick(1, 8); burst > 0; --burst) send_new();
      } else if (op < 55) {
        retransmit_lost();
      } else if (op < 58) {
        retransmit_head();
      } else if (op < 61) {
        mark_random();
      } else if (op < 92) {
        ack();
      } else if (op < 94) {
        partial_delivery();
      } else if (op < 95) {
        flat_.on_rto();
        map_.on_rto();
      } else {
        repeat_last_sack();
      }
      check(step);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }

  std::size_t peak_live() const { return peak_live_; }

 private:
  int pick(int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng_);
  }
  bool chance(double p) { return std::bernoulli_distribution(p)(rng_); }

  /// The network: each transmission reaches the receiver with 85 %
  /// probability; a few arrive cut short (a middlebox resegmenting).
  void transmit(std::uint64_t seq, std::uint32_t len) {
    if (!chance(0.85)) return;
    std::uint64_t end = seq + len;
    if (len > 1 && chance(0.03)) end = seq + pick(1, static_cast<int>(len) - 1);
    rx_.receive(seq, end);
  }

  void send_new() {
    if (snd_nxt_ - snd_una_ >= std::uint64_t{kMss} * window_segments_) return;
    const std::uint32_t len =
        chance(0.85) ? kMss : static_cast<std::uint32_t>(pick(1, kMss));
    flat_.insert(snd_nxt_, len, now_);
    map_.insert(snd_nxt_, len, now_);
    segments_.emplace(snd_nxt_, len);
    transmit(snd_nxt_, len);
    snd_nxt_ += len;
    peak_live_ = std::max(peak_live_, flat_.size());
  }

  void retransmit_lost() {
    std::uint64_t seq_f = 0, seq_m = 0;
    std::uint32_t len_f = 0, len_m = 0;
    const bool found_f = flat_.next_lost_retransmit(&seq_f, &len_f);
    const bool found_m = map_.next_lost_retransmit(&seq_m, &len_m);
    ASSERT_EQ(found_f, found_m);
    if (!found_f) return;
    ASSERT_EQ(seq_f, seq_m);
    ASSERT_EQ(len_f, len_m);
    flat_.mark_retransmitted(seq_f, now_);
    map_.mark_retransmitted(seq_m, now_);
    transmit(seq_f, len_f);
  }

  void retransmit_head() {
    std::uint64_t seq_f = 0, seq_m = 0;
    std::uint32_t len_f = 0, len_m = 0;
    const bool found_f = flat_.head_for_retransmit(snd_una_, &seq_f, &len_f);
    const bool found_m = map_.head_for_retransmit(snd_una_, &seq_m, &len_m);
    ASSERT_EQ(found_f, found_m);
    if (!found_f) return;
    ASSERT_EQ(seq_f, seq_m);
    ASSERT_EQ(len_f, len_m);
    flat_.mark_retransmitted(seq_f, now_);
    map_.mark_retransmitted(seq_m, now_);
    transmit(seq_f, len_f);
  }

  /// mark_retransmitted at a segment start, or at a seq that starts no
  /// segment (must be a no-op for both).
  void mark_random() {
    if (snd_nxt_ == snd_una_) return;
    const int span = static_cast<int>(snd_nxt_ - snd_una_);
    std::uint64_t seq = snd_una_ + static_cast<std::uint64_t>(pick(0, span));
    if (chance(0.5)) {
      const auto it = segments_.lower_bound(seq);
      if (it != segments_.end()) seq = it->first;
    }
    flat_.mark_retransmitted(seq, now_);
    map_.mark_retransmitted(seq, now_);
  }

  /// The receiver's ACK: cumulative point plus SACK blocks, either the
  /// sink's per-segment blocks or merged runs, sometimes reordered or cut
  /// to fewer blocks. Some ACKs are lost on the way back.
  void ack() {
    std::vector<SackBlock> blocks =
        chance(0.5) ? rx_.sink_blocks() : rx_.run_blocks();
    if (blocks.size() > 1 && chance(0.2)) {
      std::shuffle(blocks.begin(), blocks.end(), rng_);
    }
    if (!blocks.empty() && chance(0.1)) {
      blocks.resize(static_cast<std::size_t>(
          pick(1, static_cast<int>(blocks.size()))));
    }
    if (chance(0.1)) return;  // lost ACK
    deliver_ack(rx_.rcv_nxt, blocks);
  }

  /// The receiver gets a prefix of the head segment alone, so the next
  /// cumulative ACK lands inside it.
  void partial_delivery() {
    if (snd_una_ == snd_nxt_ || rx_.rcv_nxt != snd_una_) return;
    const auto head = segments_.lower_bound(snd_una_);
    if (head == segments_.end() || head->first != snd_una_ ||
        head->second < 2) {
      return;
    }
    rx_.receive(snd_una_, snd_una_ + pick(1, head->second - 1));
    deliver_ack(rx_.rcv_nxt, rx_.sink_blocks());
  }

  void repeat_last_sack() { deliver_ack(last_ack_, last_blocks_); }

  void deliver_ack(std::uint64_t ack, const std::vector<SackBlock>& blocks) {
    last_ack_ = ack;
    last_blocks_ = blocks;
    sim::Packet p;
    p.ack = ack;
    for (const SackBlock& b : blocks) p.sack_blocks.push_back(b.start, b.end);
    flat_.apply_sack(p);
    map_.apply_sack(p);
    if (ack <= snd_una_) return;
    const sim::Duration rtt_f = flat_.ack_advance(ack, now_);
    const sim::Duration rtt_m = map_.ack_advance(ack, now_);
    ASSERT_EQ(rtt_f, rtt_m);
    // Mirror the scoreboards' segment boundaries: covered segments leave,
    // a straddled head is trimmed to start at the ACK.
    while (!segments_.empty() &&
           segments_.begin()->first + segments_.begin()->second <= ack) {
      segments_.erase(segments_.begin());
    }
    if (!segments_.empty() && segments_.begin()->first < ack) {
      const auto head = segments_.begin();
      const std::uint32_t len = static_cast<std::uint32_t>(
          head->first + head->second - ack);
      segments_.erase(head);
      segments_.emplace(ack, len);
    }
    snd_una_ = ack;
  }

  void check(int step) {
    const std::uint64_t flight = snd_nxt_ - snd_una_;
    ASSERT_EQ(flat_.pipe_bytes(flight), map_.pipe_bytes(flight))
        << "step " << step;
    ASSERT_EQ(flat_.highest_sacked(), map_.highest_sacked()) << "step " << step;
    ASSERT_EQ(flat_.size(), map_.size()) << "step " << step;
    ASSERT_EQ(flat_.empty(), map_.empty()) << "step " << step;
    ASSERT_LE(flat_.capacity(), std::max<std::size_t>(2 * peak_live_, 16))
        << "step " << step;
  }

  std::mt19937_64 rng_;
  SackScoreboard flat_;
  reference::MapSackScoreboard map_;
  ReceiverModel rx_;
  std::map<std::uint64_t, std::uint32_t> segments_;  // outstanding: seq -> len
  std::uint64_t snd_una_ = 1;
  std::uint64_t snd_nxt_ = 1;
  int window_segments_ = 64;
  sim::Time now_ = 0;
  std::size_t peak_live_ = 0;
  std::uint64_t last_ack_ = 1;
  std::vector<SackBlock> last_blocks_;
};

TEST(ScoreboardFlatVsMap, SeededRandomHistoriesAgree) {
  std::size_t max_peak = 0;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    ScoreboardDuel duel(seed);
    duel.run(6000);
    if (HasFatalFailure()) return;
    max_peak = std::max(max_peak, duel.peak_live());
  }
  // The histories must actually reach windows large enough to compact and
  // regrow the flat storage.
  EXPECT_GT(max_peak, 200u);
}

TEST(ScoreboardFlatVsMap, EmptyScoreboardHasNoHead) {
  SackScoreboard flat;
  reference::MapSackScoreboard map;
  std::uint64_t seq = 7;
  std::uint32_t len = 7;
  EXPECT_FALSE(flat.head_for_retransmit(1, &seq, &len));
  EXPECT_FALSE(map.head_for_retransmit(1, &seq, &len));
  EXPECT_FALSE(flat.next_lost_retransmit(&seq, &len));
  EXPECT_EQ(flat.ack_advance(1, 0), map.ack_advance(1, 0));
  EXPECT_TRUE(flat.empty());
  EXPECT_EQ(flat.capacity(), 0u);
}

// ---- TcpSink reassembly vs a std::map model ------------------------------

/// Records the ACKs a node sends.
class AckTap : public sim::TraceSink {
 public:
  explicit AckTap(sim::Address self) : self_(self) {}
  void on_packet(sim::Time, const sim::Packet& p) override {
    if (p.key.src_addr == self_ && !p.flags.syn) acks.push_back(p);
  }
  std::vector<sim::Packet> acks;

 private:
  sim::Address self_;
};

void run_sink_duel(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  const auto pick = [&](std::uint64_t lo, std::uint64_t hi) {
    return std::uniform_int_distribution<std::uint64_t>(lo, hi)(rng);
  };
  sim::Simulator sim;
  sim::Node client(sim, 2, "client");
  AckTap tap(client.address());
  client.add_tap(&tap);
  TcpSink::Config cfg;
  cfg.data_key = sim::FlowKey{1, 2, 80, 5000};
  cfg.quickack_segments = static_cast<int>(pick(0, 40));
  TcpSink sink(sim, &client, cfg);

  sim::Packet syn;
  syn.key = cfg.data_key;
  syn.flags.syn = true;
  client.receive(syn);

  ReceiverModel model;
  constexpr std::uint64_t kStreamBytes = 400 * kMss;
  std::uint64_t frontier = 1;  // highest byte sent so far
  std::size_t checked = 0;
  std::uint64_t last_seq = 1;
  std::uint64_t last_len = kMss;
  for (int step = 0; step < 3000 && model.rcv_nxt <= kStreamBytes; ++step) {
    // Pick a range: mostly the next MSS at the send frontier, else a
    // retransmission at an MSS boundary in the window (sometimes cut short,
    // so a later full copy extends the same start), a network duplicate of
    // the previous arrival, a duplicate below rcv_nxt, or an overlapping
    // fragment.
    std::uint64_t seq = 0;
    std::uint64_t len = kMss;
    const std::uint64_t kind = pick(0, 99);
    if (kind < 50) {
      seq = frontier;
    } else if (kind < 72) {
      seq = model.rcv_nxt + kMss * pick(0, 30);
      if (pick(0, 2) == 0) len = pick(1, kMss - 1);
    } else if (kind < 80) {
      seq = last_seq;
      len = last_len;
    } else if (kind < 88) {
      seq = model.rcv_nxt > kMss ? model.rcv_nxt - pick(1, kMss) : 1;
    } else {
      seq = pick(model.rcv_nxt, frontier + kMss);
      len = pick(1, 2 * kMss);
    }
    frontier = std::max(frontier, seq + len);
    if (pick(0, 99) < 15) continue;  // lost on the way
    last_seq = seq;
    last_len = len;

    sim::Packet data;
    data.key = cfg.data_key;
    data.seq = seq;
    data.ack = 1;
    data.flags.ack = true;
    data.payload_bytes = static_cast<std::uint32_t>(len);
    client.receive(data);
    model.receive(seq, seq + len);
    // Let the delayed-ACK timer fire now and then.
    sim.run_until(sim.now() +
                  static_cast<sim::Duration>(pick(0, 60)) * sim::kMillisecond);

    const std::vector<SackBlock> expected = model.sink_blocks();
    for (; checked < tap.acks.size(); ++checked) {
      const sim::Packet& a = tap.acks[checked];
      ASSERT_EQ(a.ack, model.rcv_nxt) << "step " << step;
      ASSERT_EQ(a.sack_blocks.size(), expected.size()) << "step " << step;
      for (std::size_t i = 0; i < expected.size(); ++i) {
        ASSERT_EQ(a.sack_blocks[i], expected[i]) << "step " << step;
      }
    }
    ASSERT_EQ(sink.bytes_received(), model.bytes_received) << "step " << step;
  }
  EXPECT_GT(checked, 100u);
}

TEST(SinkFlatVsMap, SeededRandomArrivalsAgree) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    run_sink_duel(seed);
    if (HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace ccsig::tcp
