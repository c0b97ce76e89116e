// Restartable one-shot timer that keeps at most one live event queued.
#pragma once

#include <cstdint>
#include <utility>

#include "sim/event_queue.h"
#include "sim/simulator.h"
#include "sim/time.h"

namespace ccsig::sim {

/// A one-shot timer that can be re-armed or cancelled at any time, as TCP's
/// retransmission, delayed-ACK and pacing timers are on almost every
/// packet. Each arm reserves a key exactly where scheduling a fresh event
/// would have put it, but the timer keeps a single *carrier* event queued:
///
///   - arming with no carrier queued, or earlier than the carrier, queues a
///     carrier under the new key;
///   - otherwise the carrier stays put, and when it fires before the newest
///     key it re-queues itself under that key;
///   - a key superseded or cancelled before it is queued is abandoned to the
///     simulator as a ghost (see Simulator), as is the pending key of a
///     timer destroyed while armed.
///
/// `on_fire` therefore runs at exactly the (time, seq) an event-per-arm
/// timer with a generation check would have run it, and every other event
/// keeps its key. The timer is disarmed before `on_fire` runs, so the
/// callback may re-arm it. Carriers check a simulator-owned lifetime lease
/// before touching the timer, so the owner may be destroyed while one is
/// queued.
class Timer {
 public:
  Timer(Simulator& sim, EventFn on_fire)
      : sim_(sim), on_fire_(std::move(on_fire)), life_(sim.lease_lifetime()) {}

  ~Timer() {
    cancel();
    sim_.release_lifetime(life_);
  }

  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;

  /// Arms (or re-arms) the timer to fire at absolute time `t` (clamped to
  /// now if in the past).
  void arm_at(Time t) {
    cancel();
    due_ = sim_.reserve_at(t);
    armed_ = true;
    if (!carrier_queued_ || due_ < carrier_) queue_carrier(due_);
  }

  /// Arms (or re-arms) the timer after a relative delay (negative delays
  /// fire "now").
  void arm_in(Duration d) { arm_at(sim_.now() + (d < 0 ? 0 : d)); }

  /// Disarms the timer; a no-op when it is not armed.
  void cancel() {
    if (!armed_) return;
    armed_ = false;
    if (!(carrier_queued_ && carrier_ == due_)) sim_.abandon(due_);
  }

  bool armed() const { return armed_; }

 private:
  void queue_carrier(EventKey key) {
    carrier_queued_ = true;
    carrier_ = key;
    sim_.schedule_reserved(
        key, [self = this, sim = &sim_, life = life_, seq = key.seq] {
          if (sim->alive(life)) self->on_carrier(seq);
        });
  }

  void on_carrier(std::uint64_t seq) {
    // A carrier displaced by an earlier arm runs as the no-op its arm would
    // have been.
    if (!carrier_queued_ || carrier_.seq != seq) return;
    carrier_queued_ = false;
    if (!armed_) return;
    if (due_.seq != seq) {
      queue_carrier(due_);
      return;
    }
    armed_ = false;
    on_fire_();
  }

  Simulator& sim_;
  EventFn on_fire_;
  Simulator::LifetimeLease life_;
  EventKey due_;      // newest arm; meaningful while armed_
  EventKey carrier_;  // key of the queued carrier; valid while queued
  bool armed_ = false;
  bool carrier_queued_ = false;
};

}  // namespace ccsig::sim
