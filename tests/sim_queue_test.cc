// The drop-tail queue at the head of every link, and the slot ring that
// holds it. The queue's byte accounting lives in Link (its ring's undeparted
// tail is the queue), so the queue tests drive a Link whose token bucket
// starts empty: sent packets stay queued until the simulator runs.
#include "sim/ring.h"

#include <gtest/gtest.h>

#include <vector>

#include "sim/link.h"
#include "sim/random.h"

namespace ccsig::sim {
namespace {

Packet make_packet(std::uint32_t payload) {
  Packet p;
  p.payload_bytes = payload;
  return p;
}

/// A link with room for `buffer_bytes` whose first departure waits for
/// tokens, recording the payload sizes it delivers.
struct QueuedLink {
  explicit QueuedLink(std::size_t buffer_bytes)
      : link(sim, config(buffer_bytes), Rng(1)) {
    link.set_receiver(
        [this](const Packet& p) { delivered.push_back(p.payload_bytes); });
  }

  static Link::Config config(std::size_t buffer_bytes) {
    Link::Config cfg;
    cfg.rate_bps = 8e6;  // 1 byte per microsecond
    cfg.burst_bytes = 0;  // empty bucket: nothing departs at send time
    cfg.buffer_bytes = buffer_bytes;
    return cfg;
  }

  Simulator sim;
  Link link;
  std::vector<std::uint32_t> delivered;
};

TEST(DropTailQueue, AcceptsWithinCapacity) {
  QueuedLink q(1000);
  q.link.send(make_packet(500));  // 540 wire bytes
  EXPECT_EQ(q.link.queue_bytes(), 540u);
  EXPECT_EQ(q.link.stats().buffer_drops, 0u);
  q.sim.run();
  EXPECT_EQ(q.delivered, std::vector<std::uint32_t>{500});
}

TEST(DropTailQueue, DropsWhenFull) {
  QueuedLink q(600);
  q.link.send(make_packet(500));  // 540
  q.link.send(make_packet(100));  // 140 would exceed 600
  EXPECT_EQ(q.link.stats().buffer_drops, 1u);
  EXPECT_EQ(q.link.queue_bytes(), 540u);
  q.sim.run();
  EXPECT_EQ(q.delivered, std::vector<std::uint32_t>{500});
  EXPECT_EQ(q.link.stats().delivered_bytes, 540u);
}

TEST(DropTailQueue, FifoOrder) {
  QueuedLink q(1 << 20);
  for (std::uint32_t i = 1; i <= 5; ++i) q.link.send(make_packet(i));
  q.sim.run();
  EXPECT_EQ(q.delivered, (std::vector<std::uint32_t>{1, 2, 3, 4, 5}));
  EXPECT_EQ(q.link.queue_bytes(), 0u);
}

TEST(DropTailQueue, MaxOccupancyHighWaterMark) {
  QueuedLink q(10000);
  q.link.send(make_packet(1000));
  q.link.send(make_packet(1000));
  EXPECT_EQ(q.link.stats().max_queue_bytes, 2080u);
  q.sim.run();
  EXPECT_EQ(q.delivered.size(), 2u);
  EXPECT_EQ(q.link.stats().max_queue_bytes, 2080u);  // sticky
  EXPECT_EQ(q.link.queue_bytes(), 0u);
}

TEST(DropTailQueue, ZeroCapacityDropsEverything) {
  QueuedLink q(0);
  q.link.send(make_packet(1));
  EXPECT_EQ(q.link.stats().buffer_drops, 1u);
  q.sim.run();
  EXPECT_TRUE(q.delivered.empty());
}

TEST(Ring, InPlacePushFifoAcrossWraparound) {
  Ring<Packet> ring;
  // Advance head past the initial capacity so pushes wrap the ring, then
  // check FIFO order survives the index masking.
  std::uint32_t next_in = 0;
  std::uint32_t next_out = 0;
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 11; ++i) ring.push().payload_bytes = next_in++;
    for (int i = 0; i < 11; ++i) {
      EXPECT_EQ(ring.front().payload_bytes, next_out++);
      ring.pop();
    }
  }
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(ring.slot_capacity(), 16u);  // never needed to grow
}

TEST(Ring, IndexedAccessAcrossWraparound) {
  Ring<int> ring;
  // Put the head at slot 10 so the live span wraps past the end of the
  // 16-slot ring, then read and update every slot by index.
  for (int i = 0; i < 10; ++i) ring.push() = -1;
  for (int i = 0; i < 10; ++i) ring.pop();
  for (int i = 0; i < 12; ++i) ring.push() = i;
  ASSERT_EQ(ring.slot_capacity(), 16u);
  for (std::size_t i = 0; i < ring.size(); ++i) {
    EXPECT_EQ(ring[i], static_cast<int>(i));
    ring[i] += 100;  // in place, as a link stamps a departed slot
  }
  EXPECT_EQ(ring.front(), 100);
  EXPECT_EQ(ring[11], 111);
}

TEST(Ring, GrowthLinearizesLiveSpan) {
  Ring<Packet> ring;
  // Offset the head so the live span straddles the ring boundary, then
  // force growth and verify nothing is reordered or lost.
  for (std::uint32_t i = 0; i < 12; ++i) ring.push().payload_bytes = i;
  for (std::uint32_t i = 0; i < 12; ++i) {
    EXPECT_EQ(ring.front().payload_bytes, i);
    ring.pop();
  }
  for (std::uint32_t i = 0; i < 40; ++i) ring.push().payload_bytes = 100 + i;
  EXPECT_EQ(ring.size(), 40u);
  EXPECT_EQ(ring.slot_capacity(), 64u);
  for (std::uint32_t i = 0; i < 40; ++i) {
    EXPECT_EQ(ring[i].payload_bytes, 100 + i);
  }
  for (std::uint32_t i = 0; i < 40; ++i) {
    EXPECT_EQ(ring.front().payload_bytes, 100 + i);
    ring.pop();
  }
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(ring.slot_capacity(), 64u);  // pool is sticky, never shrinks
}

// Property: under random send traffic at random times, occupancy never
// exceeds capacity and always equals the wire bytes accepted but not yet
// departed (the link counts delivered_bytes at departure), and every packet
// is either delivered or counted as a drop once the link drains.
class QueueInvariants : public ::testing::TestWithParam<std::size_t> {};

TEST_P(QueueInvariants, OccupancyAccountingHolds) {
  const std::size_t capacity = GetParam();
  QueuedLink q(capacity);
  Rng rng(capacity);
  std::uint64_t sent = 0;
  std::uint64_t accepted = 0;
  std::uint64_t accepted_bytes = 0;
  for (int step = 0; step < 5000; ++step) {
    if (rng.chance(0.6)) {
      const Packet p = make_packet(
          static_cast<std::uint32_t>(rng.uniform_int(0, 1460)));
      const std::uint64_t drops_before = q.link.stats().buffer_drops;
      q.link.send(p);
      ++sent;
      if (q.link.stats().buffer_drops == drops_before) {
        ++accepted;
        accepted_bytes += p.wire_bytes();
      }
    } else {
      q.sim.run_until(q.sim.now() + rng.uniform_int(0, 2000) * kMicrosecond);
    }
    const Link::Stats st = q.link.stats();
    ASSERT_LE(q.link.queue_bytes(), capacity);
    ASSERT_EQ(q.link.queue_bytes(), accepted_bytes - st.delivered_bytes);
    ASSERT_LE(st.max_queue_bytes, capacity);
    ASSERT_EQ(st.buffer_drops, sent - accepted);
    ASSERT_LE(st.delivered_packets, accepted);
    ASSERT_LE(q.delivered.size(), st.delivered_packets);
  }
  q.sim.run();
  const Link::Stats st = q.link.stats();
  EXPECT_EQ(q.link.queue_bytes(), 0u);
  EXPECT_EQ(st.delivered_packets, accepted);
  EXPECT_EQ(st.delivered_bytes, accepted_bytes);
  EXPECT_EQ(q.delivered.size(), accepted);
}

INSTANTIATE_TEST_SUITE_P(Capacities, QueueInvariants,
                         ::testing::Values(100, 1500, 4096, 65536, 1 << 20));

}  // namespace
}  // namespace ccsig::sim
