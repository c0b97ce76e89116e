#include "sim/link.h"

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

namespace ccsig::sim {
namespace {

struct LinkFixture {
  Simulator sim;
  std::vector<std::pair<Time, Packet>> delivered;

  Link make(Link::Config cfg, std::uint64_t seed = 1) {
    Link link(sim, std::move(cfg), Rng(seed));
    return link;
  }
};

Packet payload_packet(std::uint32_t bytes, std::uint64_t id = 0) {
  Packet p;
  p.payload_bytes = bytes;
  p.id = id;
  return p;
}

TEST(BufferBytesFor, ConvertsMillisecondsAtRate) {
  // 100 ms at 20 Mbps = 20e6/8 * 0.1 = 250000 bytes.
  EXPECT_EQ(buffer_bytes_for(20e6, 100.0), 250000u);
  EXPECT_EQ(buffer_bytes_for(1e9, 50.0), 6250000u);
  EXPECT_EQ(buffer_bytes_for(10e6, 0.0), 0u);
}

TEST(Link, DeliversAtConfiguredRate) {
  Simulator sim;
  Link::Config cfg;
  cfg.rate_bps = 8e6;  // 1 byte per microsecond
  cfg.prop_delay = 0;
  cfg.buffer_bytes = 1 << 20;
  cfg.burst_bytes = 0;  // pure rate shaping
  Link link(sim, cfg, Rng(1));
  std::vector<Time> times;
  link.set_receiver([&](const Packet&) { times.push_back(sim.now()); });
  // 10 packets of 1000 payload bytes = 1040 wire bytes each.
  for (int i = 0; i < 10; ++i) link.send(payload_packet(1000));
  sim.run();
  ASSERT_EQ(times.size(), 10u);
  // Sustained spacing must match serialization at 1 byte/us = 1040 us.
  for (std::size_t i = 1; i < times.size(); ++i) {
    EXPECT_NEAR(static_cast<double>(times[i] - times[i - 1]),
                1040.0 * kMicrosecond, 2.0 * kMicrosecond);
  }
}

TEST(Link, BurstPassesInstantly) {
  Simulator sim;
  Link::Config cfg;
  cfg.rate_bps = 1e6;
  cfg.burst_bytes = 10000;  // enough for ~9 packets at once
  cfg.buffer_bytes = 1 << 20;
  Link link(sim, cfg, Rng(1));
  std::vector<Time> times;
  link.set_receiver([&](const Packet&) { times.push_back(sim.now()); });
  for (int i = 0; i < 5; ++i) link.send(payload_packet(1000));
  sim.run();
  ASSERT_EQ(times.size(), 5u);
  // All fit in the initial token bucket -> delivered at t=0.
  for (Time t : times) EXPECT_EQ(t, 0);
}

TEST(Link, PropagationDelayAdds) {
  Simulator sim;
  Link::Config cfg;
  cfg.rate_bps = 1e9;
  cfg.prop_delay = 20 * kMillisecond;
  cfg.buffer_bytes = 1 << 20;
  Link link(sim, cfg, Rng(1));
  Time delivered_at = -1;
  link.set_receiver([&](const Packet&) { delivered_at = sim.now(); });
  link.send(payload_packet(100));
  sim.run();
  EXPECT_GE(delivered_at, 20 * kMillisecond);
  EXPECT_LT(delivered_at, 21 * kMillisecond);
}

TEST(Link, JitterBoundedAndFifo) {
  Simulator sim;
  Link::Config cfg;
  cfg.rate_bps = 1e8;
  cfg.prop_delay = 10 * kMillisecond;
  cfg.jitter = 2 * kMillisecond;
  cfg.buffer_bytes = 1 << 22;
  Link link(sim, cfg, Rng(7));
  std::vector<std::pair<Time, std::uint64_t>> deliveries;
  link.set_receiver([&](const Packet& p) {
    deliveries.emplace_back(sim.now(), p.id);
  });
  for (std::uint64_t i = 0; i < 200; ++i) link.send(payload_packet(1000, i));
  sim.run();
  ASSERT_EQ(deliveries.size(), 200u);
  for (std::size_t i = 0; i < deliveries.size(); ++i) {
    // FIFO despite jitter.
    EXPECT_EQ(deliveries[i].second, i);
    if (i > 0) {
      EXPECT_GE(deliveries[i].first, deliveries[i - 1].first);
    }
  }
}

TEST(Link, RandomLossRate) {
  Simulator sim;
  Link::Config cfg;
  cfg.rate_bps = 1e9;
  cfg.loss_rate = 0.1;
  cfg.buffer_bytes = 1 << 26;
  Link link(sim, cfg, Rng(11));
  int received = 0;
  link.set_receiver([&](const Packet&) { ++received; });
  const int n = 20000;
  for (int i = 0; i < n; ++i) link.send(payload_packet(100));
  sim.run();
  EXPECT_NEAR(static_cast<double>(received) / n, 0.9, 0.01);
  EXPECT_EQ(link.stats().random_losses, static_cast<std::uint64_t>(n) -
                                            static_cast<std::uint64_t>(received));
}

TEST(Link, BufferOverflowDrops) {
  Simulator sim;
  Link::Config cfg;
  cfg.rate_bps = 1e6;          // slow
  cfg.burst_bytes = 0;
  cfg.buffer_bytes = 3000;     // fits 2 packets of 1040
  Link link(sim, cfg, Rng(1));
  int received = 0;
  link.set_receiver([&](const Packet&) { ++received; });
  for (int i = 0; i < 10; ++i) link.send(payload_packet(1000));
  sim.run();
  EXPECT_LT(received, 10);
  EXPECT_GT(link.stats().buffer_drops, 0u);
  EXPECT_EQ(static_cast<std::uint64_t>(received) + link.stats().buffer_drops,
            10u);
}

TEST(Link, StatsCountArrivalsAndDeliveries) {
  Simulator sim;
  Link::Config cfg;
  cfg.rate_bps = 1e9;
  cfg.buffer_bytes = 1 << 20;
  Link link(sim, cfg, Rng(1));
  link.set_receiver([](const Packet&) {});
  for (int i = 0; i < 7; ++i) link.send(payload_packet(100));
  sim.run();
  const auto stats = link.stats();
  EXPECT_EQ(stats.arrived_packets, 7u);
  EXPECT_EQ(stats.delivered_packets, 7u);
  EXPECT_EQ(stats.delivered_bytes, 7u * 140u);
}

TEST(Link, QueueingDelayEstimate) {
  Simulator sim;
  Link::Config cfg;
  cfg.rate_bps = 8e6;  // 1 byte/us
  cfg.burst_bytes = 0;
  cfg.buffer_bytes = 1 << 20;
  Link link(sim, cfg, Rng(1));
  link.set_receiver([](const Packet&) {});
  for (int i = 0; i < 10; ++i) link.send(payload_packet(1000));
  // 10 packets of 1040 bytes queued at 1 byte/us ~ 10.4 ms total.
  EXPECT_NEAR(static_cast<double>(link.queueing_delay_estimate()),
              10.4 * kMillisecond, 1.5 * kMillisecond);
  sim.run();
  EXPECT_EQ(link.queueing_delay_estimate(), 0);
}

// ---------------------------------------------------------------------------
// Delivery order. A link queues only its front packet's delivery, but each
// delivery runs under the key reserved when the packet departed, so it
// keeps the (time, order) a per-packet `schedule_at(due, ...)` made on
// departure gives it. `EagerWire` is that per-packet reference: the same
// propagation delay, jitter draw and FIFO clamp as Link::deliver, with one
// queued event per packet. Both run with an unlimited token bucket, so
// every packet departs inside `send()`.

struct EagerWire {
  EagerWire(Simulator& sim, const Link::Config& cfg, Rng rng)
      : sim(sim), cfg(cfg), rng(rng) {}

  void set_receiver(PacketHandler r) { receiver = std::move(r); }

  void send(const Packet& p) {
    Duration delay = cfg.prop_delay;
    if (cfg.jitter > 0) {
      delay += static_cast<Duration>(rng.uniform(
          -static_cast<double>(cfg.jitter), static_cast<double>(cfg.jitter)));
      if (delay < 0) delay = 0;
    }
    Time due = sim.now() + delay;
    if (due < last) due = last;
    last = due;
    sim.schedule_at(due, [this, p] { receiver(p); });
  }

  Simulator& sim;
  Link::Config cfg;
  Rng rng;
  Time last = 0;
  PacketHandler receiver;
};

Link::Config unshaped(Duration prop, Duration jitter) {
  Link::Config cfg;
  cfg.rate_bps = 1e15;
  cfg.burst_bytes = std::size_t{1} << 40;
  cfg.buffer_bytes = std::size_t{1} << 40;
  cfg.prop_delay = prop;
  cfg.jitter = jitter;
  return cfg;
}

/// Sends bursts interleaved with marker events at the deliveries'
/// timestamps; the receiver loops each packet back into the same wire
/// (`seq` counts the remaining hops) and drops markers at its own time.
template <typename Wire>
std::vector<std::string> delivery_log(const Link::Config& cfg) {
  Simulator sim;
  Wire wire(sim, cfg, Rng(3));
  std::vector<std::string> log;
  const auto marker = [&](Time t, const std::string& name) {
    sim.schedule_at(t, [&log, &sim, name] {
      log.push_back(name + "@" + std::to_string(sim.now()));
    });
  };
  wire.set_receiver([&](const Packet& p) {
    log.push_back("p" + std::to_string(p.id) + "/" + std::to_string(p.seq) +
                  "@" + std::to_string(sim.now()));
    if (p.seq == 0) return;
    marker(sim.now(), "before-loop");
    Packet again = p;
    --again.seq;
    wire.send(again);
    marker(sim.now(), "after-loop");
    marker(sim.now() + cfg.prop_delay, "one-hop-later");
  });
  for (std::uint64_t round = 0; round < 4; ++round) {
    const Time at = static_cast<Time>(round) * cfg.prop_delay / 2;
    sim.schedule_at(at, [&, round] {
      for (std::uint64_t i = 0; i < 6; ++i) {
        marker(sim.now() + cfg.prop_delay, "pre" + std::to_string(i));
        Packet p = payload_packet(100, round * 10 + i);
        p.seq = i % 3;  // hops left
        wire.send(p);
        marker(sim.now() + cfg.prop_delay, "post" + std::to_string(i));
      }
    });
  }
  sim.run();
  return log;
}

TEST(LinkDeliveryOrder, ZeroDelayMatchesPerPacketEvents) {
  const Link::Config cfg = unshaped(0, 0);
  const auto got = delivery_log<Link>(cfg);
  EXPECT_EQ(got, delivery_log<EagerWire>(cfg));
  EXPECT_GT(got.size(), 100u);
}

TEST(LinkDeliveryOrder, JitteredMatchesPerPacketEvents) {
  // Small and delay-sized jitter; with the latter many due times clamp to
  // the previous packet's, so deliveries share timestamps with each other
  // and with the markers.
  for (const Duration jitter : {Duration{1'000}, Duration{40'000}}) {
    const Link::Config cfg = unshaped(40'000, jitter);
    EXPECT_EQ(delivery_log<Link>(cfg), delivery_log<EagerWire>(cfg))
        << "jitter " << jitter;
  }
}

TEST(LinkDeliveryOrder, InFlightRingStopsGrowingInSteadyState) {
  Simulator sim;
  Link::Config cfg;
  cfg.rate_bps = 10e6;
  cfg.prop_delay = 20 * kMillisecond;
  cfg.jitter = 2 * kMillisecond;
  cfg.buffer_bytes = 1 << 20;
  Link link(sim, cfg, Rng(5));
  std::uint64_t delivered = 0;
  link.set_receiver([&](const Packet&) { ++delivered; });
  // A 1000-byte packet every millisecond (8 Mbit/s offered) for 2 s.
  int sent = 0;
  std::function<void()> source = [&] {
    link.send(payload_packet(1000));
    if (++sent < 2000) sim.schedule_in(kMillisecond, source);
  };
  sim.schedule_at(0, source);
  sim.run_until(500 * kMillisecond);
  const std::size_t warm = link.ring_capacity();
  sim.run();
  EXPECT_EQ(delivered, 2000u);
  EXPECT_GT(warm, 0u);
  EXPECT_EQ(link.ring_capacity(), warm);
  // ~20 packets are in flight at once, yet the queue holds only the
  // source's next send, the link's front delivery and its pump.
  EXPECT_LE(sim.queue_peak(), 3u);
}

}  // namespace
}  // namespace ccsig::sim
