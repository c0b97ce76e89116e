// The discrete-event simulation driver.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/event_queue.h"
#include "sim/time.h"

namespace ccsig::sim {

/// Process-wide simulator instruments (registered once; recording is
/// lock-free and allocation-free, see obs/metrics.h).
struct SimMetrics {
  obs::Counter events_executed;
  obs::Gauge event_queue_depth;
  obs::Gauge event_queue_peak;
};

inline SimMetrics& sim_metrics() {
  static SimMetrics m{
      obs::MetricsRegistry::global().counter("sim.events_executed"),
      obs::MetricsRegistry::global().gauge("sim.event_queue_depth"),
      obs::MetricsRegistry::global().gauge("sim.event_queue_peak")};
  return m;
}

/// Owns the clock and the event queue. Components hold a `Simulator&` and
/// schedule callbacks; `run_until()` drives them. Single-threaded by design.
///
/// A FIFO source of events (a link's deliveries, a restartable timer) keeps
/// only its next event queued: it reserves a key for every event at the
/// moment it would have scheduled one, and queues each callback under its
/// key when the one before it has run. A reserved key that is never queued
/// is a *ghost* — a superseded or cancelled timer arm, which a queue of one
/// event per arm would have run as a no-op. `abandon()` accounts for it so
/// that `run_until()` leaves `now()` and `idle()` exactly as if every ghost
/// had run.
class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulation time.
  Time now() const { return now_; }

  /// Schedules `cb` at absolute time `t` (clamped to now if in the past).
  void schedule_at(Time t, EventQueue::Callback cb) {
    queue_.schedule(t < now_ ? now_ : t, std::move(cb));
  }

  /// Schedules `cb` after a relative delay (negative delays fire "now").
  void schedule_in(Duration d, EventQueue::Callback cb) {
    schedule_at(now_ + (d < 0 ? 0 : d), std::move(cb));
  }

  /// Returns the key `schedule_at(t, ...)` would take now (with the same
  /// clamping) and consumes its sequence number. The key must later be
  /// either queued with `schedule_reserved()` or given up with `abandon()`.
  EventKey reserve_at(Time t) { return queue_.reserve(t < now_ ? now_ : t); }

  /// Queues `cb` under a key reserved earlier; it runs exactly where a
  /// `schedule_at()` made at reservation time would have run.
  void schedule_reserved(EventKey key, EventQueue::Callback cb) {
    queue_.schedule_reserved(key, std::move(cb));
  }

  /// Declares that a reserved key will never be queued (a ghost). Ghosts
  /// due by the deadline of the run in progress fold into one running max;
  /// later ones wait in a min-heap of times until a run reaches them.
  void abandon(EventKey key) {
    if (key.time <= horizon_) {
      ghost_max_ = std::max(ghost_max_, key.time);
    } else {
      late_ghosts_.push_back(key.time);
      std::push_heap(late_ghosts_.begin(), late_ghosts_.end(),
                     std::greater<>());
    }
  }

  /// Runs events until the queue is exhausted or the clock passes `deadline`.
  /// Returns the number of events executed (ghosts do not count).
  std::uint64_t run_until(Time deadline) {
    obs::TraceSpan span("sim.run_until", "sim");
    std::uint64_t executed = 0;
    horizon_ = deadline;
    while (!queue_.empty() && queue_.next_time() <= deadline) {
      now_ = queue_.next_time();
      auto cb = queue_.pop();
      cb();
      ++executed;
    }
    horizon_ = kNoHorizon;
    // The clock ends on the last event that would have run, ghost or not.
    while (!late_ghosts_.empty() && late_ghosts_.front() <= deadline) {
      ghost_max_ = std::max(ghost_max_, late_ghosts_.front());
      std::pop_heap(late_ghosts_.begin(), late_ghosts_.end(),
                    std::greater<>());
      late_ghosts_.pop_back();
    }
    if (now_ < ghost_max_) now_ = ghost_max_;
    if (now_ < deadline && idle()) now_ = deadline;
    SimMetrics& m = sim_metrics();
    m.events_executed.add(executed);
    m.event_queue_depth.set(static_cast<double>(queue_.size()));
    m.event_queue_peak.set(static_cast<double>(queue_.peak_size()));
    return executed;
  }

  /// Runs until no events remain.
  std::uint64_t run() { return run_until(std::numeric_limits<Time>::max()); }

  /// True when nothing is pending, ghosts included (meaningful between
  /// runs).
  bool idle() const { return queue_.empty() && late_ghosts_.empty(); }
  std::uint64_t events_executed_hint() const { return queue_.scheduled_count(); }

  /// High-water mark of queued events over the simulator's life.
  std::size_t queue_peak() const { return queue_.peak_size(); }

  /// A lease on a liveness slot. A closure that captures a raw pointer to a
  /// component that can be torn down mid-simulation (a `Timer` of a TCP
  /// endpoint of a finished fetch) also captures the lease and asks
  /// `alive()` before touching the pointer. The generation table is owned
  /// by the simulator, so the check never reads freed memory — unlike a
  /// generation counter stored inside the possibly-destroyed object itself.
  struct LifetimeLease {
    std::uint32_t slot = 0;
    std::uint64_t gen = 0;
  };

  LifetimeLease lease_lifetime() {
    std::uint32_t slot;
    if (!free_lifetime_slots_.empty()) {
      slot = free_lifetime_slots_.back();
      free_lifetime_slots_.pop_back();
    } else {
      slot = static_cast<std::uint32_t>(lifetime_gens_.size());
      lifetime_gens_.push_back(0);
    }
    return LifetimeLease{slot, lifetime_gens_[slot]};
  }

  /// Invalidates every closure holding `l`; the slot is recycled, so churn
  /// of short-lived components does not grow the table.
  void release_lifetime(LifetimeLease l) {
    ++lifetime_gens_[l.slot];
    free_lifetime_slots_.push_back(l.slot);
  }

  bool alive(LifetimeLease l) const { return lifetime_gens_[l.slot] == l.gen; }

 private:
  static constexpr Time kNoHorizon = std::numeric_limits<Time>::min();

  Time now_ = 0;
  EventQueue queue_;
  Time horizon_ = kNoHorizon;  // deadline of the run in progress, if any
  Time ghost_max_ = 0;         // latest ghost due by some run's deadline
  std::vector<Time> late_ghosts_;  // min-heap of the other ghosts' times
  std::vector<std::uint64_t> lifetime_gens_;
  std::vector<std::uint32_t> free_lifetime_slots_;
};

}  // namespace ccsig::sim
