// Differential test of analysis::OutstandingWindow against an ordered-map
// reference with the semantics the streaming sampler used to implement on
// its own: seeded random sequences of fresh sends, exact and partial
// retransmits, and cumulative, duplicate and stale ACKs must produce the
// same return values, the same RTT samples and the same live
// (seq_end, sent_at, tainted) set after every operation. A second group
// pins the memory bound on long flows whose flight never drains.
#include "analysis/outstanding_window.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <map>
#include <optional>
#include <random>
#include <string>
#include <vector>

namespace ccsig::analysis {
namespace {

/// The map-based window: seq_end -> {sent_at, tainted}, consumed prefix
/// erased on every ACK.
class ReferenceWindow {
 public:
  bool on_send(std::uint64_t seq_end, sim::Time at) {
    const bool is_retx = seq_end <= highest_sent_;
    auto [it, inserted] = pending_.emplace(seq_end, Info{at, is_retx});
    if (!inserted) {
      it->second.tainted = true;
      it->second.sent_at = at;
    }
    highest_sent_ = std::max(highest_sent_, seq_end);
    return is_retx;
  }

  std::optional<RttSample> on_ack(std::uint64_t ack, sim::Time at) {
    auto it = pending_.upper_bound(ack);
    if (it == pending_.begin()) return std::nullopt;
    --it;
    std::optional<RttSample> sample;
    if (!it->second.tainted) {
      sample = RttSample{at, at - it->second.sent_at, it->first};
    }
    pending_.erase(pending_.begin(), std::next(it));
    return sample;
  }

  std::vector<OutstandingWindow::Entry> live() const {
    std::vector<OutstandingWindow::Entry> out;
    for (const auto& [seq_end, info] : pending_) {
      out.push_back({seq_end, info.sent_at, info.tainted});
    }
    return out;
  }

  std::uint64_t highest_sent() const { return highest_sent_; }

 private:
  struct Info {
    sim::Time sent_at;
    bool tainted;
  };
  std::map<std::uint64_t, Info> pending_;
  std::uint64_t highest_sent_ = 0;
};

bool same_live(std::span<const OutstandingWindow::Entry> got,
               const std::vector<OutstandingWindow::Entry>& want) {
  return std::equal(got.begin(), got.end(), want.begin(), want.end(),
                    [](const auto& a, const auto& b) {
                      return a.seq_end == b.seq_end &&
                             a.sent_at == b.sent_at && a.tainted == b.tainted;
                    });
}

bool same_sample(const std::optional<RttSample>& a,
                 const std::optional<RttSample>& b) {
  if (a.has_value() != b.has_value()) return false;
  return !a || (a->at == b->at && a->rtt == b->rtt &&
                a->acked_seq == b->acked_seq);
}

enum class Op {
  kFresh,
  kExactRetx,
  kPartialRetxLive,   // boundary between or below live entries
  kPartialRetxAcked,  // boundary inside an already-ACKed range
  kCumulativeAck,
  kDuplicateAck,
  kStaleAck,
};

/// How often each path was taken, so the caller can check coverage.
struct Coverage {
  int exact_retx = 0;
  int mid_window_inserts = 0;
  int below_head_inserts = 0;
  int samples = 0;
  std::size_t peak_live = 0;
};

/// Runs `ops` random operations from `seed` through both windows,
/// comparing after every one, and adds the paths taken to `cov`.
void run_differential(std::uint64_t seed, int ops, Coverage& cov) {
  std::mt19937_64 rng(seed);
  const auto uniform = [&rng](std::uint64_t lo, std::uint64_t hi) {
    return std::uniform_int_distribution<std::uint64_t>(lo, hi)(rng);
  };
  OutstandingWindow window;
  ReferenceWindow ref;
  sim::Time now = 0;
  std::uint64_t last_ack = 0;  // highest cumulative ACK sent so far
  // Odd seeds ACK anywhere up to the highest byte sent, so the window
  // drains often; even seeds advance by one or two live segments, so the
  // flight grows and the prefix compaction and regrowth paths run.
  const bool slow_acks = seed % 2 == 0;
  std::size_t peak_live = 0;
  for (int i = 0; i < ops; ++i) {
    now += static_cast<sim::Time>(uniform(0, 3)) * sim::kMillisecond;
    const auto live = ref.live();
    // Bias toward fresh sends and cumulative ACKs, like a real flow.
    const std::uint64_t roll = uniform(0, 99);
    Op op = roll < 40   ? Op::kFresh
            : roll < 48 ? Op::kExactRetx
            : roll < 54 ? Op::kPartialRetxLive
            : roll < 58 ? Op::kPartialRetxAcked
            : roll < 88 ? Op::kCumulativeAck
            : roll < 94 ? Op::kDuplicateAck
                        : Op::kStaleAck;
    if (live.empty() && (op == Op::kExactRetx || op == Op::kPartialRetxLive)) {
      op = Op::kFresh;
    }
    if (last_ack == 0 && op == Op::kPartialRetxAcked) op = Op::kFresh;

    const std::string context = "seed " + std::to_string(seed) + " op " +
                                std::to_string(i);
    if (op == Op::kCumulativeAck || op == Op::kDuplicateAck ||
        op == Op::kStaleAck) {
      std::uint64_t ack = last_ack;
      if (op == Op::kCumulativeAck) {
        // Anywhere up to just past the highest byte sent: an exact
        // boundary, a point inside a segment, or beyond every boundary.
        ack = uniform(last_ack, ref.highest_sent() + 1);
        if (!live.empty() && slow_acks) {
          ack = live[uniform(0, std::min<std::size_t>(live.size() - 1, 1))]
                    .seq_end;
        } else if (!live.empty() && uniform(0, 1) == 0) {
          ack = live[uniform(0, live.size() - 1)].seq_end;
        }
      } else if (op == Op::kStaleAck) {
        ack = uniform(0, last_ack);
      }
      last_ack = std::max(last_ack, ack);
      const auto got = window.on_ack(ack, now);
      const auto want = ref.on_ack(ack, now);
      ASSERT_TRUE(same_sample(got, want)) << context << " ack " << ack;
      if (got) ++cov.samples;
    } else {
      std::uint64_t seq_end = 0;
      if (op == Op::kFresh) {
        seq_end = ref.highest_sent() + uniform(1, 1500);
      } else if (op == Op::kExactRetx) {
        seq_end = live[uniform(0, live.size() - 1)].seq_end;
        ++cov.exact_retx;
      } else if (op == Op::kPartialRetxLive) {
        const std::uint64_t lo = last_ack + 1;
        seq_end = uniform(std::min(lo, ref.highest_sent()),
                          ref.highest_sent());
        const bool is_key =
            std::any_of(live.begin(), live.end(),
                        [&](const auto& e) { return e.seq_end == seq_end; });
        if (!is_key) ++cov.mid_window_inserts;
      } else {
        seq_end = uniform(1, last_ack);
        ++cov.below_head_inserts;
      }
      const bool got = window.on_send(seq_end, now);
      const bool want = ref.on_send(seq_end, now);
      ASSERT_EQ(got, want) << context << " send " << seq_end;
    }
    ASSERT_TRUE(same_live(window.live(), ref.live())) << context;
    ASSERT_EQ(window.empty(), ref.live().empty()) << context;
    peak_live = std::max(peak_live, window.live().size());
    ASSERT_LE(window.capacity(), std::max<std::size_t>(2 * peak_live, 16))
        << context;
  }
  cov.peak_live = std::max(cov.peak_live, peak_live);
}

TEST(OutstandingWindow, MatchesMapReferenceOnRandomOperations) {
  Coverage total;
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    run_differential(seed, 2000, total);
    if (HasFatalFailure()) return;
  }
  // Every path was exercised, not just the fresh-send/ACK fast path.
  EXPECT_GT(total.exact_retx, 1000);
  EXPECT_GT(total.mid_window_inserts, 1000);
  EXPECT_GT(total.below_head_inserts, 1000);
  EXPECT_GT(total.samples, 1000);
  EXPECT_GT(total.peak_live, 200u);
}

TEST(OutstandingWindow, TaintedSegmentsNeverSample) {
  OutstandingWindow w;
  EXPECT_FALSE(w.on_send(100, 0));
  EXPECT_TRUE(w.on_send(100, 5));  // exact retransmit: taint + refresh
  EXPECT_FALSE(w.on_ack(100, 30).has_value());
  EXPECT_TRUE(w.empty());
  EXPECT_FALSE(w.on_send(200, 40));
  EXPECT_TRUE(w.on_send(150, 41));  // partial retransmit below a live end
  ASSERT_EQ(w.live().size(), 2u);
  EXPECT_FALSE(w.on_ack(170, 60).has_value());  // newest covered is 150
  const auto s = w.on_ack(200, 70);
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->rtt, 30);
  EXPECT_EQ(s->acked_seq, 200u);
}

/// A flow whose flight never fully drains: every round sends a burst and
/// ACKs slightly less than it sent, so the head never reaches the end and
/// only prefix compaction or regrowth keeps the storage small. The
/// capacity must stay within max(2 x the peak live count, 16).
void expect_bounded(std::uint64_t seed, std::size_t target_flight) {
  std::mt19937_64 rng(seed);
  OutstandingWindow w;
  std::uint64_t next = 0;
  std::vector<std::uint64_t> ends;  // every seq_end sent, in order
  std::size_t acked = 0;            // ends[0..acked) are ACKed
  std::size_t peak_live = 0;
  sim::Time now = 0;
  for (int round = 0; round < 20000; ++round) {
    const std::size_t live = ends.size() - acked;
    // Random walk of the flight around `target_flight`, never below 1.
    const std::size_t burst = std::uniform_int_distribution<std::size_t>(
        1, live < target_flight ? 8 : 3)(rng);
    for (std::size_t i = 0; i < burst; ++i) {
      next += 1448;
      ends.push_back(next);
      w.on_send(next, ++now);
    }
    const std::size_t in_flight = ends.size() - acked;
    peak_live = std::max(peak_live, in_flight);
    const std::size_t max_ack = std::min<std::size_t>(in_flight - 1, 6);
    const std::size_t n_ack =
        std::uniform_int_distribution<std::size_t>(0, max_ack)(rng);
    if (n_ack > 0) {
      acked += n_ack;
      w.on_ack(ends[acked - 1], ++now);
    }
    ASSERT_EQ(w.live().size(), ends.size() - acked);
    ASSERT_FALSE(w.empty());
    ASSERT_LE(w.capacity(), std::max<std::size_t>(2 * peak_live, 16))
        << "seed " << seed << " round " << round;
  }
  EXPECT_GT(ends.size(), 20 * peak_live);  // the prefix was recycled
}

TEST(OutstandingWindow, CapacityBoundedByPeakLiveFlight) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    expect_bounded(seed, 4);
    expect_bounded(seed, 40);
    expect_bounded(seed, 400);
    if (HasFatalFailure()) return;
  }
}

TEST(OutstandingWindow, ReleaseFreesStorage) {
  OutstandingWindow w;
  for (std::uint64_t i = 1; i <= 100; ++i) w.on_send(i * 10, 0);
  EXPECT_GT(w.capacity(), 0u);
  w.release();
  EXPECT_EQ(w.capacity(), 0u);
  EXPECT_TRUE(w.empty());
}

}  // namespace
}  // namespace ccsig::analysis
