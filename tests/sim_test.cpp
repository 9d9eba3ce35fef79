#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "sim/simulator.hpp"
#include "sim/timer.hpp"
#include "test_timers.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace maxmin::sim {
namespace {

using simtest::LambdaTimer;
using simtest::Posts;

TEST(Simulator, ExecutesInTimeOrder) {
  Simulator s;
  Posts ev{s};
  std::vector<int> order;
  ev.post(Duration::micros(30), [&] { order.push_back(3); });
  ev.post(Duration::micros(10), [&] { order.push_back(1); });
  ev.post(Duration::micros(20), [&] { order.push_back(2); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now().asMicros(), 30);
}

TEST(Simulator, SameInstantIsFifo) {
  Simulator s;
  Posts ev{s};
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    ev.post(Duration::micros(5), [&order, i] { order.push_back(i); });
  }
  s.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulator, ZeroDelayRunsAfterCurrentInstantFifo) {
  Simulator s;
  Posts ev{s};
  std::vector<int> order;
  ev.post(Duration::micros(1), [&] {
    order.push_back(1);
    ev.post(Duration::zero(), [&] { order.push_back(2); });
  });
  ev.post(Duration::micros(1), [&] { order.push_back(3); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 3, 2}));
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator s;
  Posts ev{s};
  bool ran = false;
  ev.post(Duration::micros(10), [&] { ran = true; }).cancel();
  s.run();
  EXPECT_FALSE(ran);
  EXPECT_EQ(s.pendingEvents(), 0u);
}

TEST(Simulator, CancelIsIdempotentAndSafeAfterFire) {
  Simulator s;
  Posts ev{s};
  int runs = 0;
  Timer& t = ev.post(Duration::micros(1), [&] { ++runs; });
  s.run();
  t.cancel();  // already fired: no-op
  t.cancel();
  EXPECT_EQ(s.cancelledEvents(), 0u);
  ev.post(Duration::micros(1), [&] { ++runs; });
  s.run();
  EXPECT_EQ(runs, 2);
}

TEST(Simulator, RunUntilAdvancesClockPastLastEvent) {
  Simulator s;
  Posts ev{s};
  int runs = 0;
  ev.post(Duration::micros(10), [&] { ++runs; });
  ev.post(Duration::micros(100), [&] { ++runs; });
  s.runUntil(TimePoint::origin() + Duration::micros(50));
  EXPECT_EQ(runs, 1);
  EXPECT_EQ(s.now().asMicros(), 50);
  s.runUntil(TimePoint::origin() + Duration::micros(200));
  EXPECT_EQ(runs, 2);
  EXPECT_EQ(s.now().asMicros(), 200);
}

TEST(Simulator, RunUntilIncludesBoundaryEvents) {
  Simulator s;
  Posts ev{s};
  bool ran = false;
  ev.post(Duration::micros(50), [&] { ran = true; });
  s.runUntil(TimePoint::origin() + Duration::micros(50));
  EXPECT_TRUE(ran);
}

TEST(Simulator, SchedulingInPastThrows) {
  Simulator s;
  LambdaTimer<> t{s, [] {}};
  t.timer.arm(Duration::micros(10));
  s.run();
  EXPECT_THROW(t.timer.arm(Duration::micros(-5)), InvariantViolation);
}

TEST(Simulator, EventsCanScheduleEvents) {
  Simulator s;
  Posts ev{s};
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) ev.post(Duration::micros(1), recurse);
  };
  ev.post(Duration::micros(1), recurse);
  s.run();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(s.now().asMicros(), 5);
  EXPECT_EQ(s.executedEvents(), 5u);
}

// Regression: cancelling an already-fired event used to insert its id into
// the kernel's tombstone set forever (a leak) and double-cancel could drive
// the pending-event count negative. A fired timer has no key to cancel.
TEST(Simulator, CancelAfterFireNeitherLeaksNorUnderflows) {
  Simulator s;
  Posts ev{s};
  Timer& t = ev.post(Duration::micros(1), [] {});
  s.run();
  EXPECT_EQ(s.pendingEvents(), 0u);
  t.cancel();
  t.cancel();  // idempotent
  EXPECT_EQ(s.pendingEvents(), 0u);
  // The queue must still work normally afterwards.
  bool fired = false;
  ev.post(Duration::micros(1), [&] { fired = true; });
  EXPECT_EQ(s.pendingEvents(), 1u);
  s.run();
  EXPECT_TRUE(fired);
  EXPECT_EQ(s.pendingEvents(), 0u);
}

// A timer that was never armed has nothing to cancel, hold or release.
TEST(Simulator, CancelOfNeverIssuedIdIsNoOp) {
  Simulator s;
  Posts ev{s};
  int idleFires = 0;
  LambdaTimer<> idle{s, [&] { ++idleFires; }};
  idle.timer.cancel();
  idle.timer.hold();
  idle.timer.release();
  EXPECT_EQ(s.pendingEvents(), 0u);
  bool fired = false;
  ev.post(Duration::micros(1), [&] { fired = true; });
  idle.timer.cancel();
  EXPECT_EQ(s.pendingEvents(), 1u);
  s.run();
  EXPECT_TRUE(fired);
  EXPECT_EQ(idleFires, 0);
  EXPECT_EQ(s.cancelledEvents(), 0u);
}

// A cancelled arming leaves nothing queued that could fire, or cancel,
// the same timer's later arming.
TEST(Simulator, StaleIdCannotCancelReusedSlot) {
  Simulator s;
  std::vector<std::int64_t> times;
  LambdaTimer<> t{s, [&] { times.push_back(s.now().asMicros()); }};
  t.timer.arm(Duration::micros(5));
  t.timer.cancel();
  t.timer.arm(Duration::micros(10));
  EXPECT_EQ(s.pendingEvents(), 1u);
  t.timer.arm(Duration::micros(3));  // earlier: the 10 us key goes
  t.timer.cancel();
  t.timer.arm(Duration::micros(10));
  EXPECT_EQ(s.pendingEvents(), 1u);
  s.run();
  EXPECT_EQ(times, (std::vector<std::int64_t>{10}));
  EXPECT_EQ(s.executedEvents(), 1u);
  EXPECT_EQ(s.cancelledEvents(), 3u);
}

TEST(Simulator, HeavyCancellationKeepsCountsExact) {
  Simulator s;
  Posts ev{s};
  std::vector<Timer*> timers;
  for (int i = 0; i < 10000; ++i) {
    timers.push_back(&ev.post(Duration::micros(i % 997), [] {}));
  }
  // Cancel two thirds, some twice: keys leave the heap from every depth.
  for (std::size_t i = 0; i < timers.size(); ++i) {
    if (i % 3 != 0) timers[i]->cancel();
    if (i % 6 == 1) timers[i]->cancel();
  }
  EXPECT_EQ(s.pendingEvents(), 3334u);
  EXPECT_EQ(s.cancelledEvents(), 6666u);
  s.run();
  EXPECT_EQ(s.pendingEvents(), 0u);
  EXPECT_EQ(s.executedEvents(), 3334u);
}

TEST(Simulator, RunUntilNowWithPendingSameInstantEvents) {
  Simulator s;
  Posts ev{s};
  int fired = 0;
  ev.post(Duration::zero(), [&] { ++fired; });
  ev.post(Duration::zero(), [&] { ++fired; });
  ev.post(Duration::micros(5), [&] { ++fired; });
  s.runUntil(s.now());  // zero-length window: runs the t=0 events only
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(s.now().asMicros(), 0);
  s.runUntil(TimePoint{} + Duration::micros(5));
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(s.now().asMicros(), 5);
}

TEST(Simulator, FifoPreservedAcrossWindowRebuilds) {
  // Batches of same-instant events far apart in time, all queued before
  // any runs: the heap reshapes many times between pops of one instant,
  // and FIFO within each instant must survive.
  Simulator s;
  Posts ev{s};
  std::vector<int> order;
  for (int batch = 0; batch < 5; ++batch) {
    for (int i = 0; i < 7; ++i) {
      ev.post(Duration::millis(batch * 100), [&order, batch, i] {
        order.push_back(batch * 7 + i);
      });
    }
  }
  s.run();
  ASSERT_EQ(order.size(), 35u);
  for (int i = 0; i < 35; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  }
}

TEST(Simulator, QueueMemoryStaysBoundedByLiveEventsInOneWindow) {
  // A far sentinel stays queued while 10^6 firings pass through kLive
  // timers, each re-arming itself and pulling a neighbour's deadline in
  // (an eager re-arm, which takes the old key out). The keys held must
  // track the pending count, not the number of keys ever queued.
  Simulator s;
  Posts ev{s};
  ev.post(Duration::seconds(1000.0), [] {});
  constexpr std::size_t kLive = 64;
  constexpr std::int64_t kEvents = 1'000'000;
  std::int64_t fired = 0;
  std::size_t maxKeys = 0;
  std::vector<std::unique_ptr<LambdaTimer<>>> timers;
  for (std::size_t i = 0; i < kLive; ++i) {
    timers.push_back(std::make_unique<LambdaTimer<>>(s, [&, i] {
      ++fired;
      maxKeys = std::max(maxKeys, s.pendingEvents());
      if (fired + static_cast<std::int64_t>(kLive) > kEvents) return;
      timers[i]->timer.arm(Duration::micros(1 + fired % 7));
      Timer& next = timers[(i + 1) % kLive]->timer;
      if (next.pending() && next.deadline() > s.now() + Duration::micros(1)) {
        next.arm(Duration::micros(1));
      }
    }));
    timers.back()->timer.arm(Duration::micros(static_cast<std::int64_t>(i)));
  }
  s.runUntil(TimePoint{} + Duration::seconds(100.0));
  EXPECT_EQ(fired, kEvents);
  EXPECT_EQ(s.pendingEvents(), 1u);  // the sentinel
  EXPECT_GT(s.cancelledEvents(), 0u);
  EXPECT_LE(maxKeys, kLive + 1);
}

// Reference-order property: seeded random scripts drive timers (arm at
// equal and distinct instants, re-arm later — deferred — and earlier —
// eager —, cancel, hold, release, destroy, runUntil cut points), from
// outside the loop and from inside callbacks, while an independent model
// of every live key (where it sits and where its timer will fire)
// predicts every pop: deferral hops as well as callbacks. With `ties`,
// thousands of keys crowd a handful of instants, so nearly every compare
// in the heap falls through to seq.
class ReferenceOrderScript {
 public:
  explicit ReferenceOrderScript(std::uint64_t seed, bool ties = false)
      : rng_{seed}, ties_{ties} {}

  void run(int rounds) {
    for (int r = 0; r < rounds; ++r) {
      const auto ops = ties_ ? pick(0, 60) : pick(0, 6);
      for (std::int64_t i = 0; i < ops; ++i) randomOp();
      if (pick(0, 15) == 0) cancelBurst();
      // Tied keys pile up while the clock mostly stays at its instant.
      const std::int64_t step =
          ties_ ? static_cast<std::int64_t>(pick(0, 63) == 0) : pick(0, 40);
      const TimePoint cut = sim_.now() + Duration::micros(step);
      sim_.runUntil(cut);
      EXPECT_EQ(sim_.now(), cut);
      settleThrough(cut.asMicros());
      EXPECT_EQ(sim_.pendingEvents(), model_.size());
    }
    sim_.run();
    settleThrough(INT64_MAX);
    EXPECT_TRUE(model_.empty());
    EXPECT_EQ(sim_.pendingEvents(), 0u);
    EXPECT_EQ(sim_.executedEvents(), executed_);
    EXPECT_EQ(sim_.scheduledEvents(), pushed_);
    EXPECT_GT(fires_, 1000u);
    EXPECT_GT(executed_, fires_) << "script never deferred";
    EXPECT_GT(sim_.cancelledEvents(), 1000u);
    if (ties_) {
      EXPECT_GT(sim_.maxPendingEvents(), 2000u);
    }
    EXPECT_EQ(mismatches_, 0) << "pops out of (when, seq) order";
  }

 private:
  using Key = std::pair<std::int64_t, std::uint64_t>;  // (when µs, seq)

  /// One scripted timer and the model's view of it.
  struct Entry {
    explicit Entry(ReferenceOrderScript& s)
        : script{&s}, timer{s.sim_, bind<&Entry::fire>(this)} {}
    void fire() { script->fired(*this); }

    ReferenceOrderScript* script;
    std::optional<Key> queued;  ///< its live key
    std::optional<Key> armed;   ///< where the current arming fires
    bool held = false;
    Timer timer;
  };

  std::int64_t pick(std::int64_t lo, std::int64_t hi) {
    return rng_.uniformInt(lo, hi);
  }

  /// Mostly the current instant or a handful of near ones, so equal
  /// timestamps are common; now and then a far one.
  TimePoint when() {
    const std::int64_t d = pick(0, ties_ ? 99 : 9) == 0 ? pick(0, 100000)
                                                         : pick(0, 4);
    return sim_.now() + Duration::micros(d);
  }

  Entry& anyEntry() {
    if (pool_.empty() || pick(0, ties_ ? 1 : 7) == 0) {
      pool_.push_back(std::make_unique<Entry>(*this));
    }
    return *pool_[static_cast<std::size_t>(
        pick(0, static_cast<std::int64_t>(pool_.size()) - 1))];
  }

  void enqueue(Entry& e, Key k) {
    e.queued = k;
    model_.emplace(k, &e);
    ++pushed_;
  }
  void unqueue(Entry& e) {
    if (e.queued) model_.erase(*e.queued);
    e.queued.reset();
  }

  /// Pop the model's front key as the kernel would: a key that is not
  /// where its timer fires hops there; any other should have fired.
  void popFront() {
    const auto [k, e] = *model_.begin();
    model_.erase(model_.begin());
    lastRun_ = k;
    ++executed_;
    if (e->queued != e->armed) {
      enqueue(*e, *e->armed);
    } else {
      ++mismatches_;  // a callback that never ran
      e->queued.reset();
      e->armed.reset();
    }
  }
  void settleThrough(std::int64_t whenUs) {
    while (!model_.empty() && model_.begin()->first.first <= whenUs) {
      popFront();
    }
  }

  void fired(Entry& e) {
    ++fires_;
    if (!e.armed) {
      ++mismatches_;
      return;
    }
    const Key k = *e.armed;
    while (!model_.empty() && model_.begin()->first < k) popFront();
    if (model_.empty() || model_.begin()->first != k ||
        model_.begin()->second != &e || sim_.now().asMicros() != k.first) {
      ++mismatches_;
    }
    model_.erase(k);
    e.queued.reset();
    e.armed.reset();
    lastRun_ = k;
    ++executed_;
    // May destroy `e`: nothing below touches it.
    const auto ops = pick(0, 2);
    for (std::int64_t i = 0; i < ops; ++i) randomOp();
  }

  void arm(Entry& e) {
    const TimePoint t = when();
    const Key k{t.asMicros(), nextSeq_++};
    e.armed = k;
    if (e.queued) {
      if (e.queued->first > k.first) {  // earlier: eager
        unqueue(e);
        enqueue(e, k);
      }
    } else if (!e.held) {
      enqueue(e, k);
    }
    e.timer.arm(t - sim_.now());
  }

  void cancel(Entry& e) {
    unqueue(e);
    e.armed.reset();
    e.timer.cancel();
  }

  void hold(Entry& e) {
    unqueue(e);
    e.held = true;
    e.timer.hold();
  }

  void release(Entry& e) {
    e.held = false;
    if (e.armed && !e.queued) {
      const Key k = *e.armed;
      const bool passed = k.first < sim_.now().asMicros() || k <= lastRun_;
      EXPECT_EQ(sim_.hasRun(TimePoint::fromMicros(k.first), k.second), passed);
      if (passed) {
        e.armed.reset();
      } else {
        enqueue(e, k);
      }
    }
    e.timer.release();
  }

  void destroy() {
    if (pool_.empty()) return;
    const auto i = static_cast<std::size_t>(
        pick(0, static_cast<std::int64_t>(pool_.size()) - 1));
    unqueue(*pool_[i]);
    std::swap(pool_[i], pool_.back());
    pool_.pop_back();  // ~Timer takes its key out
  }

  void randomOp() {
    switch (pick(0, 9)) {
      case 0:
      case 1:
      case 2: arm(anyEntry()); break;
      case 3:
      case 4: cancel(anyEntry()); break;
      case 5: hold(anyEntry()); break;
      case 6:
      case 7: release(anyEntry()); break;
      default: destroy(); break;
    }
    // The model holds exactly the keys the kernel has not popped yet.
    EXPECT_EQ(sim_.pendingEvents(), model_.size());
  }

  /// Arm a batch of fresh timers, cancel most of them, then destroy
  /// half the batch (some still queued).
  void cancelBurst() {
    const std::size_t first = pool_.size();
    for (int i = 0; i < 200; ++i) {
      pool_.push_back(std::make_unique<Entry>(*this));
      arm(*pool_.back());
    }
    for (std::size_t i = first; i < pool_.size(); ++i) {
      if (pick(0, 9) != 0) cancel(*pool_[i]);
    }
    for (int i = 0; i < 100; ++i) destroy();
  }

  Simulator sim_;
  Rng rng_;
  bool ties_;
  std::map<Key, Entry*> model_;  ///< every live key and its timer
  std::vector<std::unique_ptr<Entry>> pool_;
  std::uint64_t nextSeq_ = 0;
  Key lastRun_{-1, 0};
  std::uint64_t executed_ = 0;  ///< callbacks and hops
  std::uint64_t fires_ = 0;     ///< callbacks
  std::uint64_t pushed_ = 0;
  int mismatches_ = 0;
};

TEST(Simulator, PopOrderMatchesReferenceModel) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    SCOPED_TRACE(seed);
    ReferenceOrderScript{seed}.run(3000);
  }
}

TEST(Simulator, PopOrderMatchesReferenceModelUnderTies) {
  for (const std::uint64_t seed : {1u, 2u}) {
    SCOPED_TRACE(seed);
    ReferenceOrderScript{seed, /*ties=*/true}.run(2000);
  }
}

TEST(Timer, ArmAndFire) {
  Simulator s;
  bool fired = false;
  LambdaTimer<> t{s, [&] { fired = true; }};
  t.timer.arm(Duration::micros(10));
  EXPECT_TRUE(t.timer.pending());
  s.run();
  EXPECT_TRUE(fired);
  EXPECT_FALSE(t.timer.pending());
}

TEST(Timer, BindsAMemberFunction) {
  struct Counter {
    explicit Counter(Simulator& s) : timer{s, bind<&Counter::hit>(this)} {}
    void hit() { ++hits; }
    int hits = 0;
    Timer timer;
  };
  Simulator s;
  Counter c{s};
  c.timer.arm(Duration::micros(3));
  s.run();
  EXPECT_EQ(c.hits, 1);
}

TEST(Timer, RearmCancelsPrevious) {
  Simulator s;
  std::vector<std::int64_t> times;
  LambdaTimer<> t{s, [&] { times.push_back(s.now().asMicros()); }};
  t.timer.arm(Duration::micros(10));
  t.timer.arm(Duration::micros(20));
  s.run();
  EXPECT_EQ(times, (std::vector<std::int64_t>{20}));
  EXPECT_EQ(s.now().asMicros(), 20);
}

TEST(Timer, CancelStopsFire) {
  Simulator s;
  bool fired = false;
  LambdaTimer<> t{s, [&] { fired = true; }};
  t.timer.arm(Duration::micros(10));
  t.timer.cancel();
  s.run();
  EXPECT_FALSE(fired);
}

TEST(Timer, CallbackMayRearm) {
  Simulator s;
  int count = 0;
  LambdaTimer<> t{s, [&] {
                    if (++count < 3) t.timer.arm(Duration::micros(10));
                  }};
  t.timer.arm(Duration::micros(10));
  s.run();
  EXPECT_EQ(count, 3);
  EXPECT_EQ(s.now().asMicros(), 30);
}

TEST(Timer, DestructionCancels) {
  Simulator s;
  bool fired = false;
  {
    LambdaTimer<> t{s, [&] { fired = true; }};
    t.timer.arm(Duration::micros(10));
  }
  s.run();
  EXPECT_FALSE(fired);
}

TEST(Timer, RearmLaterKeepsSameInstantOrder) {
  // A re-arm to a later (or the same) deadline queues nothing, yet fires
  // exactly where cancel + re-queue would have put it: after every event
  // for that instant armed before the re-arm, before every one after.
  Simulator s;
  Posts ev{s};
  std::vector<int> order;
  int tMark = 0;
  LambdaTimer<> t{s, [&] { order.push_back(tMark); }};
  t.timer.arm(Duration::micros(5));
  ev.post(Duration::micros(10), [&] { order.push_back(1); });
  const std::uint64_t queued = s.scheduledEvents();
  tMark = 2;
  t.timer.arm(Duration::micros(10));
  EXPECT_EQ(s.scheduledEvents(), queued);  // deferred, not re-queued
  ev.post(Duration::micros(10), [&] { order.push_back(3); });
  // Same deadline: the timer moves behind events armed since its arm.
  int uMark = 4;
  LambdaTimer<> u{s, [&] { order.push_back(uMark); }};
  u.timer.arm(Duration::micros(20));
  ev.post(Duration::micros(20), [&] { order.push_back(5); });
  uMark = 6;
  u.timer.arm(Duration::micros(20));
  ev.post(Duration::micros(20), [&] { order.push_back(7); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 5, 6, 7}));
  EXPECT_EQ(s.cancelledEvents(), 0u);
  EXPECT_EQ(s.pendingEvents(), 0u);
}

TEST(Timer, RearmEarlierIsEager) {
  Simulator s;
  std::vector<std::int64_t> times;
  LambdaTimer<> t{s, [&] { times.push_back(s.now().asMicros()); }};
  t.timer.arm(Duration::micros(20));
  t.timer.arm(Duration::micros(5));
  EXPECT_EQ(s.cancelledEvents(), 1u);
  EXPECT_EQ(s.pendingEvents(), 1u);
  s.run();
  EXPECT_EQ(times, (std::vector<std::int64_t>{5}));
}

TEST(Timer, DestructionCancelsDeferredKey) {
  Simulator s;
  bool fired = false;
  {
    LambdaTimer<> t{s, [&] { fired = true; }};
    t.timer.arm(Duration::micros(5));
    t.timer.arm(Duration::micros(10));  // deferred
    // Let the early key surface and hop to the deferred deadline first.
    s.runUntil(TimePoint{} + Duration::micros(7));
    EXPECT_TRUE(t.timer.pending());
    EXPECT_EQ(s.pendingEvents(), 1u);
  }
  EXPECT_EQ(s.pendingEvents(), 0u);
  s.run();
  EXPECT_FALSE(fired);
}

TEST(Timer, HeldTimerReleasesAtItsReservedPosition) {
  // Held, a timer queues nothing and re-arms only move its reservation;
  // released, it fires exactly where the last arm would have fired.
  Simulator s;
  Posts ev{s};
  std::vector<int> order;
  LambdaTimer<> t{s, [&] { order.push_back(2); }};
  t.timer.arm(Duration::micros(5));
  t.timer.hold();
  EXPECT_FALSE(t.timer.pending());
  EXPECT_EQ(s.pendingEvents(), 0u);
  ev.post(Duration::micros(10), [&] { order.push_back(1); });
  // Released at 10 us, before the position the next arm reserves there:
  // it is still ahead, so the timer is queued at it, before event 3.
  ev.post(Duration::micros(10), [&] {
    t.timer.release();
    EXPECT_TRUE(t.timer.pending());
  });
  t.timer.arm(Duration::micros(10));
  EXPECT_FALSE(t.timer.pending());
  ev.post(Duration::micros(10), [&] { order.push_back(3); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Timer, DeferredThenHeldReleasesAtTheLastArming) {
  // A parked radio's wake: armed, pushed out to a later deadline (a
  // deferral), held, then released before either deadline. It fires at
  // the seq the second arming reserved, never at the first deadline.
  for (const std::int64_t releaseUs : {1, 5, 7}) {
    Simulator s;
    Posts ev{s};
    std::vector<int> order;
    LambdaTimer<> t{s, [&] { order.push_back(2); }};
    t.timer.arm(Duration::micros(5));
    ev.post(Duration::micros(10), [&] { order.push_back(1); });
    const std::uint64_t queued = s.scheduledEvents();
    t.timer.arm(Duration::micros(10));
    EXPECT_EQ(s.scheduledEvents(), queued);  // deferred, not re-queued
    ev.post(Duration::micros(10), [&] { order.push_back(3); });
    t.timer.hold();
    EXPECT_FALSE(t.timer.pending());
    ev.post(Duration::micros(releaseUs), [&] {
      t.timer.release();
      EXPECT_TRUE(t.timer.pending());
    });
    s.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3})) << "release at "
                                                  << releaseUs << " us";
    // Three posts and one callback: no hop ran at 5 us.
    EXPECT_EQ(s.executedEvents(), 4u);
    EXPECT_EQ(s.pendingEvents(), 0u);
  }
}

TEST(Timer, ReleasePastItsPositionDropsTheCallback) {
  for (const bool sameInstant : {false, true}) {
    Simulator s;
    Posts ev{s};
    bool fired = false;
    LambdaTimer<> t{s, [&] { fired = true; }};
    ev.post(Duration::micros(10), [] {});
    t.timer.arm(Duration::micros(10));
    t.timer.hold();
    // The reserved (10 us, seq) passes before the release runs.
    ev.post(Duration::micros(sameInstant ? 10 : 11),
            [&] { t.timer.release(); });
    s.run();
    EXPECT_FALSE(fired) << (sameInstant ? "same instant" : "later");
    EXPECT_FALSE(t.timer.pending());
  }
}

// The pattern of gmp::LinkStateDissemination's ack timeout, which erases
// its own entry: a callback destroys its own timer, armed once or
// re-armed (earlier, and later: a deferral hop) before it fired. The
// kernel must not touch the timer afterwards (an ASan build checks this)
// and later events still run.
TEST(Timer, DestroyedInsideItsOwnCallback) {
  for (const int rearm : {0, 3, 7}) {
    Simulator s;
    Posts ev{s};
    int fires = 0;
    std::unique_ptr<LambdaTimer<>> t;
    t = std::make_unique<LambdaTimer<>>(s, [&] {
      ++fires;
      t.reset();
    });
    t->timer.arm(Duration::micros(5));
    if (rearm > 0) t->timer.arm(Duration::micros(rearm));
    bool later = false;
    ev.post(Duration::micros(8), [&] { later = true; });
    s.run();
    EXPECT_EQ(fires, 1) << rearm;
    EXPECT_EQ(t, nullptr);
    EXPECT_TRUE(later);
    EXPECT_EQ(s.pendingEvents(), 0u);
  }
}

// ~Timer leaves no pointer to itself in the queue, whatever state it
// dies in. Each case destroys a heap timer, then builds a new timer
// (often at the same address) that a stale key would fire early: it
// must fire once, at its own deadline.
TEST(Timer, DestroyedWhileQueuedDeferredHeldOrCancelled) {
  enum class State { kQueued, kDeferred, kHeld, kCancelled };
  for (const State state :
       {State::kQueued, State::kDeferred, State::kHeld, State::kCancelled}) {
    SCOPED_TRACE(static_cast<int>(state));
    Simulator s;
    int oldFires = 0;
    auto old = std::make_unique<LambdaTimer<>>(s, [&] { ++oldFires; });
    old->timer.arm(Duration::micros(5));
    switch (state) {
      case State::kQueued: break;
      case State::kDeferred: old->timer.arm(Duration::micros(6)); break;
      case State::kHeld: old->timer.hold(); break;
      case State::kCancelled: old->timer.cancel(); break;
    }
    EXPECT_EQ(s.pendingEvents(),
              state == State::kQueued || state == State::kDeferred ? 1u : 0u);
    old.reset();
    EXPECT_EQ(s.pendingEvents(), 0u);
    std::vector<std::int64_t> times;
    auto fresh = std::make_unique<LambdaTimer<>>(
        s, [&] { times.push_back(s.now().asMicros()); });
    fresh->timer.arm(Duration::micros(9));
    s.run();
    EXPECT_EQ(oldFires, 0);
    EXPECT_EQ(times, (std::vector<std::int64_t>{9}));
    EXPECT_EQ(s.pendingEvents(), 0u);
  }
}

TEST(PeriodicTimer, StopDuringDeferralNeverFires) {
  for (const std::int64_t stopAtUs : {0, 7}) {
    Simulator s;
    int fires = 0;
    LambdaTimer<PeriodicTimer> p{s, [&] { ++fires; }};
    p.timer.start(Duration::micros(5));
    // Restart later: the queued 5 us key stays and defers to 20 us.
    p.timer.start(Duration::micros(20), Duration::micros(5));
    s.runUntil(TimePoint{} + Duration::micros(stopAtUs));
    EXPECT_TRUE(p.timer.running());
    p.timer.stop();
    EXPECT_FALSE(p.timer.running());
    s.run();
    EXPECT_EQ(fires, 0) << "stopped at " << stopAtUs << " us";
    EXPECT_EQ(s.pendingEvents(), 0u);
  }
}

TEST(PeriodicTimer, FiresAtFixedInterval) {
  Simulator s;
  std::vector<std::int64_t> times;
  LambdaTimer<PeriodicTimer> p{s, [&] {
                                 times.push_back(s.now().asMicros());
                                 if (times.size() == 3) p.timer.stop();
                               }};
  p.timer.start(Duration::micros(100));
  s.run();
  EXPECT_EQ(times, (std::vector<std::int64_t>{100, 200, 300}));
}

TEST(PeriodicTimer, InitialDelayDiffersFromPeriod) {
  Simulator s;
  std::vector<std::int64_t> times;
  LambdaTimer<PeriodicTimer> p{s, [&] {
                                 times.push_back(s.now().asMicros());
                                 if (times.size() == 2) p.timer.stop();
                               }};
  p.timer.start(Duration::micros(5), Duration::micros(100));
  s.run();
  EXPECT_EQ(times, (std::vector<std::int64_t>{5, 105}));
}

}  // namespace
}  // namespace maxmin::sim
