#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <tuple>
#include <vector>

#include "sim/timer.h"

namespace ccsig::sim {
namespace {

TEST(Simulator, StartsAtZero) {
  Simulator sim;
  EXPECT_EQ(sim.now(), 0);
  EXPECT_TRUE(sim.idle());
}

TEST(Simulator, ClockAdvancesWithEvents) {
  Simulator sim;
  Time seen = -1;
  sim.schedule_at(100, [&] { seen = sim.now(); });
  sim.run_until(1000);
  EXPECT_EQ(seen, 100);
  EXPECT_EQ(sim.now(), 1000);  // clock lands on the deadline when idle
}

TEST(Simulator, RunUntilStopsBeforeLaterEvents) {
  Simulator sim;
  bool late_fired = false;
  sim.schedule_at(2000, [&] { late_fired = true; });
  sim.run_until(1000);
  EXPECT_FALSE(late_fired);
  sim.run_until(3000);
  EXPECT_TRUE(late_fired);
}

TEST(Simulator, ScheduleInIsRelative) {
  Simulator sim;
  std::vector<Time> fire_times;
  sim.schedule_at(500, [&] {
    sim.schedule_in(250, [&] { fire_times.push_back(sim.now()); });
  });
  sim.run_until(10000);
  ASSERT_EQ(fire_times.size(), 1u);
  EXPECT_EQ(fire_times[0], 750);
}

TEST(Simulator, PastEventsClampToNow) {
  Simulator sim;
  Time seen = -1;
  sim.schedule_at(100, [&] {
    sim.schedule_at(50, [&] { seen = sim.now(); });  // in the past
  });
  sim.run_until(1000);
  EXPECT_EQ(seen, 100);
}

TEST(Simulator, NegativeDelayClamps) {
  Simulator sim;
  Time seen = -1;
  sim.schedule_at(10, [&] {
    sim.schedule_in(-5, [&] { seen = sim.now(); });
  });
  sim.run_until(100);
  EXPECT_EQ(seen, 10);
}

TEST(Simulator, EventsScheduledDuringRunExecute) {
  Simulator sim;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 100) sim.schedule_in(1, chain);
  };
  sim.schedule_at(0, chain);
  const auto executed = sim.run_until(1000);
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(executed, 100u);
}

TEST(Simulator, RunDrainsEverything) {
  Simulator sim;
  int count = 0;
  for (int i = 0; i < 10; ++i) sim.schedule_at(i * 10, [&] { ++count; });
  sim.run();
  EXPECT_EQ(count, 10);
  EXPECT_TRUE(sim.idle());
}

TEST(Simulator, ReservedKeyKeepsItsPlaceAmongEqualTimes) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(10, [&] { order.push_back(0); });
  const EventKey k = sim.reserve_at(10);
  sim.schedule_at(10, [&] { order.push_back(2); });
  sim.schedule_reserved(k, [&] { order.push_back(1); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(Simulator, QueuePeakTracksHighWater) {
  Simulator sim;
  for (int i = 0; i < 5; ++i) sim.schedule_at(i, [] {});
  sim.run_until(2);
  sim.schedule_at(10, [] {});
  sim.run();
  EXPECT_EQ(sim.queue_peak(), 5u);
}

// ---------------------------------------------------------------------------
// Differential test of sim::Timer against the scheme it replaced: every arm
// queues a fresh event, and a generation check turns superseded, cancelled
// and orphaned ones into no-ops. The carrier timer must fire at the same
// (time, order) and leave now() and idle() where the eager scheme leaves
// them after every run_until window, ghosts included.

class EagerTimer {
 public:
  EagerTimer(Simulator& sim, EventFn on_fire)
      : sim_(sim), on_fire_(std::move(on_fire)), life_(sim.lease_lifetime()) {}
  ~EagerTimer() { sim_.release_lifetime(life_); }
  EagerTimer(const EagerTimer&) = delete;
  EagerTimer& operator=(const EagerTimer&) = delete;

  void arm_at(Time t) {
    armed_ = true;
    const std::uint64_t gen = ++gen_;
    sim_.schedule_at(t, [self = this, sim = &sim_, life = life_, gen] {
      if (sim->alive(life)) self->fire(gen);
    });
  }
  void cancel() {
    armed_ = false;
    ++gen_;
  }
  bool armed() const { return armed_; }

 private:
  void fire(std::uint64_t gen) {
    if (!armed_ || gen != gen_) return;
    armed_ = false;
    on_fire_();
  }

  Simulator& sim_;
  EventFn on_fire_;
  Simulator::LifetimeLease life_;
  std::uint64_t gen_ = 0;
  bool armed_ = false;
};

// (kind, id, time): kind 0 = timer `id` fired, 1 = background event `id`
// ran, 2 = a window ended with idle() == id.
using Log = std::vector<std::tuple<int, int, Time>>;

template <typename TimerT>
class TimerWorld {
 public:
  TimerWorld(int timers, std::uint64_t seed) : timers_(timers), rng_(seed) {
    for (int i = 0; i < timers; ++i) make(i);
  }

  Simulator& sim() { return sim_; }
  const Log& log() const { return log_; }

  void make(int i) {
    timers_[i] = std::make_unique<TimerT>(sim_, [this, i] { fired(i); });
  }
  void arm(int i, Time t) {
    if (timers_[i]) timers_[i]->arm_at(t);
  }
  void cancel(int i) {
    if (timers_[i]) timers_[i]->cancel();
  }
  void destroy(int i) { timers_[i].reset(); }
  void background(Time t) {
    const int id = next_background_++;
    sim_.schedule_at(t, [this, id] {
      log_.emplace_back(1, id, sim_.now());
      if (random_) random_ops(2);
    });
  }
  void window(Duration d) {
    sim_.run_until(sim_.now() + d);
    log_.emplace_back(2, sim_.idle() ? 1 : 0, sim_.now());
  }

  /// Random arms (earlier and later than pending ones, often at equal
  /// times), cancels, owner destruction and background events.
  void random_ops(int n) {
    for (int k = 0; k < n; ++k) {
      const int i = pick(static_cast<int>(timers_.size()));
      const Time t = sim_.now() + 5 * pick(12);
      switch (pick(8)) {
        case 0:
        case 1:
        case 2:
          arm(i, t);
          break;
        case 3:
          cancel(i);
          break;
        case 4:
          if (i != firing_) destroy(i);
          break;
        case 5:
          if (!timers_[i]) make(i);
          break;
        default:
          background(t);
          break;
      }
    }
  }

  void run_random(int windows) {
    random_ = true;
    for (int w = 0; w < windows; ++w) {
      random_ops(pick(4));
      window(5 * pick(10));
    }
  }

 private:
  int pick(int n) {
    return static_cast<int>(rng_() % static_cast<std::uint64_t>(n));
  }
  void fired(int i) {
    log_.emplace_back(0, i, sim_.now());
    if (!random_) return;
    firing_ = i;
    random_ops(2);
    firing_ = -1;
  }

  Simulator sim_;
  std::vector<std::unique_ptr<TimerT>> timers_;
  std::mt19937_64 rng_;
  Log log_;
  int next_background_ = 0;
  int firing_ = -1;
  bool random_ = false;
};

/// Runs `script` against both timers and expects identical logs; returns
/// the carrier world's log for further checks.
template <typename Script>
Log expect_same_as_eager(int timers, Script script) {
  TimerWorld<Timer> lazy(timers, 1);
  TimerWorld<EagerTimer> eager(timers, 1);
  script(lazy);
  script(eager);
  EXPECT_EQ(lazy.log(), eager.log());
  return lazy.log();
}

TEST(Timer, ReArmEarlierThanPendingCarrier) {
  const Log log = expect_same_as_eager(1, [](auto& w) {
    w.arm(0, 50);
    w.window(10);  // the clock stays at 0: the queue is not idle
    w.arm(0, 20);  // earlier than the carrier queued at 50
    w.window(20);
    w.window(40);  // the displaced carrier at 50 runs as a no-op
    w.arm(0, 90);
    w.window(40);
  });
  EXPECT_EQ(log, (Log{{2, 0, 0},
                      {0, 0, 20},
                      {2, 0, 20},
                      {2, 1, 60},
                      {0, 0, 90},
                      {2, 1, 100}}));
}

TEST(Timer, ReArmLaterRequeuesCarrierUnderNewestKey) {
  expect_same_as_eager(2, [](auto& w) {
    w.arm(0, 10);
    w.arm(1, 30);
    w.arm(0, 30);  // carrier stays at 10, then re-queues at (30, after 1)
    w.background(30);
    w.window(100);
  });
}

TEST(Timer, CancelThenReArm) {
  const Log log = expect_same_as_eager(1, [](auto& w) {
    w.arm(0, 20);
    w.cancel(0);
    w.arm(0, 40);
    w.window(30);
    w.cancel(0);
    w.arm(0, 35);
    w.window(30);
  });
  EXPECT_EQ(log, (Log{{2, 0, 20}, {0, 0, 35}, {2, 1, 50}}));
}

TEST(Timer, DestroyingOwnerWithCarrierPending) {
  expect_same_as_eager(2, [](auto& w) {
    w.arm(0, 20);
    w.arm(0, 60);  // pending key 60 rides on the carrier at 20
    w.arm(1, 40);
    w.window(10);
    w.destroy(0);  // carrier at 20 finds a dead lease; 60 is a ghost
    w.destroy(1);  // carrier at 40 finds a dead lease
    w.background(100);
    w.window(30);
    w.window(40);
    w.window(40);
  });
}

TEST(Timer, GhostBetweenLastLiveEventAndDeadline) {
  const Log log = expect_same_as_eager(1, [](auto& w) {
    w.background(40);
    w.background(200);  // keeps the queue non-empty past the deadline
    w.arm(0, 30);
    w.arm(0, 60);
    w.arm(0, 70);  // 60 becomes a ghost
    w.cancel(0);   // 70 becomes a ghost
    w.window(100);
  });
  // The eager queue ran no-ops at 60 and 70, so the clock stops at 70, not
  // at the last live event (40) or the deadline.
  EXPECT_EQ(log, (Log{{1, 0, 40}, {2, 0, 70}}));
}

TEST(Timer, GhostPastDeadlineKeepsSimulatorBusy) {
  const Log log = expect_same_as_eager(1, [](auto& w) {
    w.arm(0, 10);
    w.arm(0, 150);
    w.cancel(0);  // 150 is a ghost; the carrier at 10 runs as a no-op
    w.window(100);
    w.window(100);
    w.window(200);
  });
  EXPECT_EQ(log, (Log{{2, 0, 10}, {2, 0, 10}, {2, 1, 210}}));
}

TEST(Timer, RandomScriptsMatchEagerTimer) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    TimerWorld<Timer> lazy(4, seed);
    TimerWorld<EagerTimer> eager(4, seed);
    lazy.run_random(60);
    eager.run_random(60);
    ASSERT_EQ(lazy.log(), eager.log()) << "seed " << seed;
    EXPECT_LE(lazy.sim().queue_peak(), eager.sim().queue_peak());
  }
}

}  // namespace
}  // namespace ccsig::sim
