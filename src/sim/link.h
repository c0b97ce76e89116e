// Unidirectional shaped link: token-bucket rate shaping (like `tc tbf`),
// byte-limited drop-tail buffer, propagation delay, jitter, and i.i.d.
// random loss (like `tc netem`). A full-duplex physical link is two `Link`s.
// The buffer's capacity is in bytes because the paper sizes buffers in
// milliseconds at the link rate and we convert.
#pragma once

#include <cstdint>
#include <string>

#include "sim/packet.h"
#include "sim/random.h"
#include "sim/ring.h"
#include "sim/simulator.h"
#include "sim/time.h"

namespace ccsig::sim {

/// Converts a buffer depth expressed in milliseconds at a given rate into
/// bytes, as the paper specifies buffer sizes ("a 100 ms buffer").
std::size_t buffer_bytes_for(double rate_bps, double buffer_ms);

class Link {
 public:
  struct Config {
    std::string name = "link";
    double rate_bps = 1e9;          // shaped rate
    Duration prop_delay = 0;        // one-way propagation delay
    Duration jitter = 0;            // +/- uniform jitter added to delay
    double loss_rate = 0.0;         // i.i.d. drop probability on arrival
    std::size_t buffer_bytes = 256 * 1024;  // drop-tail queue capacity
    std::size_t burst_bytes = 5 * 1024;     // token-bucket burst (tc default)
  };

  struct Stats {
    std::uint64_t arrived_packets = 0;
    std::uint64_t delivered_packets = 0;
    std::uint64_t delivered_bytes = 0;
    std::uint64_t random_losses = 0;
    std::uint64_t buffer_drops = 0;
    std::size_t max_queue_bytes = 0;
  };

  Link(Simulator& sim, Config cfg, Rng rng);

  /// Sets the downstream consumer (a Node's receive entry, or an endpoint).
  void set_receiver(PacketHandler receiver) { receiver_ = std::move(receiver); }

  /// Entry point: a packet arrives at the head of the link.
  void send(const Packet& p);

  /// Instantaneous queue occupancy in bytes: packets accepted but not yet
  /// departed (for tests/instrumentation).
  std::size_t queue_bytes() const { return queue_bytes_; }

  /// Expected queueing delay of a packet entering now, in nanoseconds.
  Duration queueing_delay_estimate() const;

  Stats stats() const;
  const Config& config() const { return cfg_; }

  /// Slot-pool size of the packet ring, queued and in flight together
  /// (tests assert it stops growing in steady state).
  std::size_t ring_capacity() const { return ring_.slot_capacity(); }

 private:
  void pump();  // tries to transmit the head-of-line packet
  // Accrues tokens up to max(burst, cap_floor); the floor guarantees the
  // head-of-line packet can eventually depart.
  void refill_tokens(std::size_t cap_floor);
  Duration time_until_tokens(std::size_t bytes) const;
  // Departs the head-of-line queued packet: applies propagation delay +
  // jitter, FIFO, and stamps its slot with the reserved delivery key.
  void deliver();
  // Fires when the oldest in-flight packet reaches the far end, and queues
  // the next packet's delivery.
  void deliver_due();

  // One packet from arrival to delivery. `due` is the event key its
  // delivery reserved on departure (unset while it is still queued).
  struct Slot {
    Packet packet;
    EventKey due;
  };

  Simulator& sim_;
  Config cfg_;
  Rng rng_;
  // Every accepted packet, oldest first: the first in_flight_ slots have
  // departed and wait for delivery (only the front's delivery is queued);
  // the rest is the drop-tail queue, whose bytes queue_bytes_ counts.
  Ring<Slot> ring_;
  std::size_t in_flight_ = 0;
  PacketHandler receiver_;

  std::size_t queue_bytes_ = 0;
  std::size_t max_queue_bytes_ = 0;

  double tokens_bytes_ = 0;    // current token-bucket fill
  Time last_refill_ = 0;
  bool pump_scheduled_ = false;
  Time last_delivery_time_ = 0;  // enforces FIFO delivery despite jitter

  std::uint64_t arrived_packets_ = 0;
  std::uint64_t delivered_packets_ = 0;
  std::uint64_t delivered_bytes_ = 0;
  std::uint64_t random_losses_ = 0;
  std::uint64_t buffer_drops_ = 0;
};

}  // namespace ccsig::sim
