#include "sim/link.h"

#include <algorithm>
#include <cmath>

#include "obs/metrics.h"

namespace ccsig::sim {

namespace {

// Process-wide link counters, registered once. Recording is one relaxed
// atomic add per packet — allocation-free, enforced by the bench harness.
struct LinkMetrics {
  obs::Counter packets_arrived;
  obs::Counter packets_delivered;
  obs::Counter bytes_delivered;
  obs::Counter random_losses;
  obs::Counter tail_drops;
};

LinkMetrics& link_metrics() {
  auto& reg = obs::MetricsRegistry::global();
  static LinkMetrics m{reg.counter("sim.link.packets_arrived"),
                       reg.counter("sim.link.packets_delivered"),
                       reg.counter("sim.link.bytes_delivered"),
                       reg.counter("sim.link.random_losses"),
                       reg.counter("sim.link.tail_drops")};
  return m;
}

}  // namespace

std::size_t buffer_bytes_for(double rate_bps, double buffer_ms) {
  return static_cast<std::size_t>(rate_bps / 8.0 * buffer_ms / 1000.0);
}

Link::Link(Simulator& sim, Config cfg, Rng rng)
    : sim_(sim),
      cfg_(std::move(cfg)),
      rng_(rng),
      tokens_bytes_(static_cast<double>(cfg_.burst_bytes)) {}

void Link::send(const Packet& p) {
  ++arrived_packets_;
  link_metrics().packets_arrived.inc();
  if (cfg_.loss_rate > 0.0 && rng_.chance(cfg_.loss_rate)) {
    ++random_losses_;
    link_metrics().random_losses.inc();
    return;
  }
  const std::size_t wire = p.wire_bytes();
  if (queue_bytes_ + wire > cfg_.buffer_bytes) {  // drop-tail
    ++buffer_drops_;
    link_metrics().tail_drops.inc();
    return;
  }
  queue_bytes_ += wire;
  max_queue_bytes_ = std::max(max_queue_bytes_, queue_bytes_);
  ring_.push().packet = p;
  pump();
}

void Link::refill_tokens(std::size_t cap_floor) {
  // The bucket must be able to hold at least one head-of-line packet, or a
  // burst size below the MTU would deadlock the link (tc tbf has the same
  // burst >= MTU requirement; we are more forgiving).
  const double cap =
      static_cast<double>(std::max(cfg_.burst_bytes, cap_floor));
  const Time now = sim_.now();
  if (now > last_refill_) {
    const double elapsed_s = to_seconds(now - last_refill_);
    tokens_bytes_ =
        std::min(cap, tokens_bytes_ + elapsed_s * cfg_.rate_bps / 8.0);
    last_refill_ = now;
  }
}

Duration Link::time_until_tokens(std::size_t bytes) const {
  const double deficit = static_cast<double>(bytes) - tokens_bytes_;
  if (deficit <= 0) return 0;
  return static_cast<Duration>(
      std::ceil(deficit * 8.0 / cfg_.rate_bps * static_cast<double>(kSecond)));
}

void Link::pump() {
  if (pump_scheduled_) return;
  while (ring_.size() > in_flight_) {
    const std::size_t need = ring_[in_flight_].packet.wire_bytes();
    refill_tokens(need);
    const Duration wait = time_until_tokens(need);
    if (wait > 0) {
      pump_scheduled_ = true;
      sim_.schedule_in(wait, [this] {
        pump_scheduled_ = false;
        pump();
      });
      return;
    }
    tokens_bytes_ -= static_cast<double>(need);
    deliver();
  }
}

void Link::deliver() {
  Slot& slot = ring_[in_flight_];
  const std::size_t wire = slot.packet.wire_bytes();
  Duration delay = cfg_.prop_delay;
  if (cfg_.jitter > 0) {
    delay += static_cast<Duration>(rng_.uniform(
        -static_cast<double>(cfg_.jitter), static_cast<double>(cfg_.jitter)));
    if (delay < 0) delay = 0;
  }
  // FIFO: jitter never reorders packets within a link (matches a tbf+netem
  // qdisc chain, which stays in-order).
  Time due = sim_.now() + delay;
  if (due < last_delivery_time_) due = last_delivery_time_;
  last_delivery_time_ = due;

  queue_bytes_ -= wire;
  ++delivered_packets_;
  delivered_bytes_ += wire;
  LinkMetrics& m = link_metrics();
  m.packets_delivered.inc();
  m.bytes_delivered.add(wire);
  // Deliveries are FIFO (due times are clamped monotone above, and keys
  // reserved later order later at equal times), so the packet and its
  // reserved key wait in the link's ring and only the front's delivery is
  // queued: the event queue holds one delivery per link, not one per
  // packet in flight. Each delivery still runs under the key it reserved
  // here, so it keeps its place among other events.
  slot.due = sim_.reserve_at(due);
  if (++in_flight_ == 1) {
    sim_.schedule_reserved(slot.due, [this] { deliver_due(); });
  }
}

void Link::deliver_due() {
  // Copy out before invoking the receiver: the callback can re-enter this
  // link (a routing loop) and grow the ring under a live reference.
  const Packet p = ring_.front().packet;
  ring_.pop();
  if (--in_flight_ > 0) {
    sim_.schedule_reserved(ring_.front().due, [this] { deliver_due(); });
  }
  if (receiver_) receiver_(p);
}

Duration Link::queueing_delay_estimate() const {
  return static_cast<Duration>(static_cast<double>(queue_bytes_) *
                               8.0 / cfg_.rate_bps *
                               static_cast<double>(kSecond));
}

Link::Stats Link::stats() const {
  return Stats{arrived_packets_, delivered_packets_, delivered_bytes_,
               random_losses_,   buffer_drops_,      max_queue_bytes_};
}

}  // namespace ccsig::sim
