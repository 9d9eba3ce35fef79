#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "sim/simulator.hpp"
#include "sim/timer.hpp"
#include "util/check.hpp"

namespace maxmin::sim {
namespace {

TEST(Simulator, ExecutesInTimeOrder) {
  Simulator s;
  std::vector<int> order;
  s.post(Duration::micros(30), [&] { order.push_back(3); });
  s.post(Duration::micros(10), [&] { order.push_back(1); });
  s.post(Duration::micros(20), [&] { order.push_back(2); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now().asMicros(), 30);
}

TEST(Simulator, SameInstantIsFifo) {
  Simulator s;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    s.post(Duration::micros(5), [&order, i] { order.push_back(i); });
  }
  s.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulator, ZeroDelayRunsAfterCurrentInstantFifo) {
  Simulator s;
  std::vector<int> order;
  s.post(Duration::micros(1), [&] {
    order.push_back(1);
    s.post(Duration::zero(), [&] { order.push_back(2); });
  });
  s.post(Duration::micros(1), [&] { order.push_back(3); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 3, 2}));
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator s;
  bool ran = false;
  const EventId id = s.schedule(Duration::micros(10), [&] { ran = true; });
  s.cancel(id);
  s.run();
  EXPECT_FALSE(ran);
  EXPECT_EQ(s.pendingEvents(), 0u);
}

TEST(Simulator, CancelIsIdempotentAndSafeAfterFire) {
  Simulator s;
  int runs = 0;
  const EventId id = s.schedule(Duration::micros(1), [&] { ++runs; });
  s.run();
  s.cancel(id);  // already fired: no-op
  s.cancel(id);
  s.post(Duration::micros(1), [&] { ++runs; });
  s.run();
  EXPECT_EQ(runs, 2);
}

TEST(Simulator, RunUntilAdvancesClockPastLastEvent) {
  Simulator s;
  int runs = 0;
  s.post(Duration::micros(10), [&] { ++runs; });
  s.post(Duration::micros(100), [&] { ++runs; });
  s.runUntil(TimePoint::origin() + Duration::micros(50));
  EXPECT_EQ(runs, 1);
  EXPECT_EQ(s.now().asMicros(), 50);
  s.runUntil(TimePoint::origin() + Duration::micros(200));
  EXPECT_EQ(runs, 2);
  EXPECT_EQ(s.now().asMicros(), 200);
}

TEST(Simulator, RunUntilIncludesBoundaryEvents) {
  Simulator s;
  bool ran = false;
  s.post(Duration::micros(50), [&] { ran = true; });
  s.runUntil(TimePoint::origin() + Duration::micros(50));
  EXPECT_TRUE(ran);
}

TEST(Simulator, SchedulingInPastThrows) {
  Simulator s;
  s.post(Duration::micros(10), [] {});
  s.run();
  EXPECT_THROW(s.postAt(TimePoint::origin() + Duration::micros(5), [] {}),
               InvariantViolation);
}

TEST(Simulator, EventsCanScheduleEvents) {
  Simulator s;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) s.post(Duration::micros(1), recurse);
  };
  s.post(Duration::micros(1), recurse);
  s.run();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(s.now().asMicros(), 5);
  EXPECT_EQ(s.executedEvents(), 5u);
}

// Regression: cancelling an already-fired event used to insert its id into
// the kernel's tombstone set forever (a leak) and double-cancel could drive
// the pending-event count negative. With generation ids both are no-ops.
TEST(Simulator, CancelAfterFireNeitherLeaksNorUnderflows) {
  Simulator s;
  const EventId id = s.schedule(Duration::micros(1), [] {});
  s.run();
  EXPECT_EQ(s.pendingEvents(), 0u);
  s.cancel(id);
  s.cancel(id);  // idempotent
  EXPECT_EQ(s.pendingEvents(), 0u);
  // The queue must still work normally afterwards.
  bool fired = false;
  s.post(Duration::micros(1), [&] { fired = true; });
  EXPECT_EQ(s.pendingEvents(), 1u);
  s.run();
  EXPECT_TRUE(fired);
  EXPECT_EQ(s.pendingEvents(), 0u);
}

TEST(Simulator, CancelOfNeverIssuedIdIsNoOp) {
  Simulator s;
  s.cancel(kInvalidEventId);
  s.cancel(0xdeadbeefcafe1234ull);  // slot far beyond anything allocated
  EXPECT_EQ(s.pendingEvents(), 0u);
  bool fired = false;
  s.post(Duration::micros(1), [&] { fired = true; });
  s.cancel(0xdeadbeefcafe1234ull);
  EXPECT_EQ(s.pendingEvents(), 1u);
  s.run();
  EXPECT_TRUE(fired);
}

// A stale handle must not cancel an unrelated later event that happens to
// reuse the same slab slot.
TEST(Simulator, StaleIdCannotCancelReusedSlot) {
  Simulator s;
  const EventId first = s.schedule(Duration::micros(1), [] {});
  s.run();  // fires; its slot returns to the free list
  bool fired = false;
  s.post(Duration::micros(1), [&] { fired = true; });  // reuses the slot
  s.cancel(first);  // stale generation: must not touch the new event
  EXPECT_EQ(s.pendingEvents(), 1u);
  s.run();
  EXPECT_TRUE(fired);
}

TEST(Simulator, HeavyCancellationKeepsCountsExact) {
  Simulator s;
  std::vector<EventId> ids;
  for (int i = 0; i < 10000; ++i) {
    ids.push_back(s.schedule(Duration::micros(i % 997), [] {}));
  }
  // Cancel two thirds, some twice, to force compaction sweeps.
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (i % 3 != 0) s.cancel(ids[i]);
    if (i % 6 == 1) s.cancel(ids[i]);
  }
  EXPECT_EQ(s.pendingEvents(), 3334u);
  s.run();
  EXPECT_EQ(s.pendingEvents(), 0u);
  EXPECT_EQ(s.executedEvents(), 3334u);
}

TEST(Simulator, RunUntilNowWithPendingSameInstantEvents) {
  Simulator s;
  int fired = 0;
  s.post(Duration::zero(), [&] { ++fired; });
  s.post(Duration::zero(), [&] { ++fired; });
  s.post(Duration::micros(5), [&] { ++fired; });
  s.runUntil(s.now());  // zero-length window: runs the t=0 events only
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(s.now().asMicros(), 0);
  s.runUntil(TimePoint{} + Duration::micros(5));
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(s.now().asMicros(), 5);
}

TEST(Simulator, FifoPreservedAcrossWindowRebuilds) {
  // Schedule batches far enough apart that the calendar queue rebuilds
  // its window between them; FIFO within each instant must survive.
  Simulator s;
  std::vector<int> order;
  for (int batch = 0; batch < 5; ++batch) {
    for (int i = 0; i < 7; ++i) {
      s.post(Duration::millis(batch * 100), [&order, batch, i] {
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
  // A far sentinel stretches the calendar window, so every event below is
  // pushed into one window's active run; 10^6 of them pass through with
  // at most kLive + 1 pending. The keys held must track the live count,
  // not the number of keys ever popped from the run.
  Simulator s;
  s.post(Duration::seconds(1000.0), [] {});
  constexpr std::int64_t kLive = 64;
  constexpr std::int64_t kEvents = 1'000'000;
  std::int64_t fired = 0;
  std::size_t maxKeys = 0;
  std::function<void()> tick = [&] {
    ++fired;
    maxKeys = std::max(maxKeys, s.queuedKeys());
    if (fired + kLive <= kEvents) {
      s.post(Duration::micros(1 + fired % 7), [&tick] { tick(); });
    }
  };
  for (std::int64_t i = 0; i < kLive; ++i) {
    s.post(Duration::micros(i), [&tick] { tick(); });
  }
  s.runUntil(TimePoint{} + Duration::seconds(100.0));
  EXPECT_EQ(fired, kEvents);
  EXPECT_EQ(s.pendingEvents(), 1u);  // the sentinel
  EXPECT_LE(maxKeys, std::size_t{4} * std::max<std::size_t>(kLive, 256));
}

TEST(EventFn, OversizedCaptureFallsBackToHeap) {
  // 64 bytes of capture exceeds EventFn's 48-byte inline budget; the
  // callable must still work (via the owning-pointer fallback).
  Simulator s;
  std::array<std::uint64_t, 8> payload{};
  payload.fill(41);
  std::uint64_t seen = 0;
  s.post(Duration::micros(1),
             [payload, &seen] { seen = payload[7] + 1; });
  s.run();
  EXPECT_EQ(seen, 42u);
}

TEST(EventFn, MoveOnlyCaptureWorks) {
  Simulator s;
  auto owned = std::make_unique<int>(7);
  int seen = 0;
  s.post(Duration::micros(1),
             [p = std::move(owned), &seen] { seen = *p; });
  s.run();
  EXPECT_EQ(seen, 7);
}

TEST(Timer, ArmAndFire) {
  Simulator s;
  Timer t{s};
  bool fired = false;
  t.arm(Duration::micros(10), [&] { fired = true; });
  EXPECT_TRUE(t.pending());
  s.run();
  EXPECT_TRUE(fired);
  EXPECT_FALSE(t.pending());
}

TEST(Timer, RearmCancelsPrevious) {
  Simulator s;
  Timer t{s};
  int which = 0;
  t.arm(Duration::micros(10), [&] { which = 1; });
  t.arm(Duration::micros(20), [&] { which = 2; });
  s.run();
  EXPECT_EQ(which, 2);
  EXPECT_EQ(s.now().asMicros(), 20);
}

TEST(Timer, CancelStopsFire) {
  Simulator s;
  Timer t{s};
  bool fired = false;
  t.arm(Duration::micros(10), [&] { fired = true; });
  t.cancel();
  s.run();
  EXPECT_FALSE(fired);
}

TEST(Timer, CallbackMayRearm) {
  Simulator s;
  Timer t{s};
  int count = 0;
  std::function<void()> fn = [&] {
    if (++count < 3) t.arm(Duration::micros(10), fn);
  };
  t.arm(Duration::micros(10), fn);
  s.run();
  EXPECT_EQ(count, 3);
  EXPECT_EQ(s.now().asMicros(), 30);
}

TEST(Timer, DestructionCancels) {
  Simulator s;
  bool fired = false;
  {
    Timer t{s};
    t.arm(Duration::micros(10), [&] { fired = true; });
  }
  s.run();
  EXPECT_FALSE(fired);
}

TEST(Timer, RearmLaterKeepsSameInstantOrder) {
  // A re-arm to a later (or the same) deadline queues nothing, yet fires
  // exactly where cancel + schedule would have put it: after every event
  // for that instant issued before the re-arm, before every one after.
  Simulator s;
  Timer t{s};
  std::vector<int> order;
  t.arm(Duration::micros(5), [&] { order.push_back(0); });
  s.post(Duration::micros(10), [&] { order.push_back(1); });
  const std::uint64_t queued = s.scheduledEvents();
  t.arm(Duration::micros(10), [&] { order.push_back(2); });
  EXPECT_EQ(s.scheduledEvents(), queued);  // deferred, not re-queued
  s.post(Duration::micros(10), [&] { order.push_back(3); });
  // Same deadline: the timer moves behind events issued since its arm.
  Timer u{s};
  u.arm(Duration::micros(20), [&] { order.push_back(4); });
  s.post(Duration::micros(20), [&] { order.push_back(5); });
  u.arm(Duration::micros(20), [&] { order.push_back(6); });
  s.post(Duration::micros(20), [&] { order.push_back(7); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 5, 6, 7}));
  EXPECT_EQ(s.cancelledEvents(), 0u);
  EXPECT_EQ(s.pendingEvents(), 0u);
}

TEST(Timer, RearmEarlierIsEager) {
  Simulator s;
  Timer t{s};
  std::vector<std::int64_t> times;
  t.arm(Duration::micros(20), [&] { times.push_back(s.now().asMicros()); });
  t.arm(Duration::micros(5), [&] { times.push_back(s.now().asMicros()); });
  EXPECT_EQ(s.cancelledEvents(), 1u);
  EXPECT_EQ(s.pendingEvents(), 1u);
  s.run();
  EXPECT_EQ(times, (std::vector<std::int64_t>{5}));
}

TEST(Timer, DestructionCancelsDeferredKey) {
  Simulator s;
  bool fired = false;
  {
    Timer t{s};
    t.arm(Duration::micros(5), [&] { fired = true; });
    t.arm(Duration::micros(10), [&] { fired = true; });  // deferred
    // Let the early key surface and hop to the deferred deadline first.
    s.runUntil(TimePoint{} + Duration::micros(7));
    EXPECT_TRUE(t.pending());
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
  Timer t{s};
  std::vector<int> order;
  t.arm(Duration::micros(5), [&] { order.push_back(0); });
  t.hold();
  EXPECT_FALSE(t.pending());
  EXPECT_EQ(s.pendingEvents(), 0u);
  s.post(Duration::micros(10), [&] { order.push_back(1); });
  // Released at 10 us, before the position the next arm reserves there:
  // it is still ahead, so the callback is queued at it, before event 3.
  s.postAt(TimePoint{} + Duration::micros(10), [&] {
    t.release();
    EXPECT_TRUE(t.pending());
  });
  t.arm(Duration::micros(10), [&] { order.push_back(2); });
  EXPECT_FALSE(t.pending());
  s.post(Duration::micros(10), [&] { order.push_back(3); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Timer, ReleasePastItsPositionDropsTheCallback) {
  for (const bool sameInstant : {false, true}) {
    Simulator s;
    Timer t{s};
    bool fired = false;
    s.post(Duration::micros(10), [] {});
    t.arm(Duration::micros(10), [&] { fired = true; });
    t.hold();
    // The reserved (10 us, seq) passes before the release runs.
    s.post(Duration::micros(sameInstant ? 10 : 11), [&] { t.release(); });
    s.run();
    EXPECT_FALSE(fired) << (sameInstant ? "same instant" : "later");
    EXPECT_FALSE(t.pending());
  }
}

TEST(PeriodicTimer, StopDuringDeferralNeverFires) {
  for (const std::int64_t stopAtUs : {0, 7}) {
    Simulator s;
    PeriodicTimer p{s};
    int fires = 0;
    p.start(Duration::micros(5), [&] { ++fires; });
    // Restart later: the queued 5 us key stays and defers to 20 us.
    p.start(Duration::micros(20), Duration::micros(5), [&] { ++fires; });
    s.runUntil(TimePoint{} + Duration::micros(stopAtUs));
    EXPECT_TRUE(p.running());
    p.stop();
    EXPECT_FALSE(p.running());
    s.run();
    EXPECT_EQ(fires, 0) << "stopped at " << stopAtUs << " us";
    EXPECT_EQ(s.pendingEvents(), 0u);
  }
}

TEST(PeriodicTimer, FiresAtFixedInterval) {
  Simulator s;
  PeriodicTimer p{s};
  std::vector<std::int64_t> times;
  p.start(Duration::micros(100), [&] {
    times.push_back(s.now().asMicros());
    if (times.size() == 3) p.stop();
  });
  s.run();
  EXPECT_EQ(times, (std::vector<std::int64_t>{100, 200, 300}));
}

TEST(PeriodicTimer, InitialDelayDiffersFromPeriod) {
  Simulator s;
  PeriodicTimer p{s};
  std::vector<std::int64_t> times;
  p.start(Duration::micros(5), Duration::micros(100), [&] {
    times.push_back(s.now().asMicros());
    if (times.size() == 2) p.stop();
  });
  s.run();
  EXPECT_EQ(times, (std::vector<std::int64_t>{5, 105}));
}

}  // namespace
}  // namespace maxmin::sim
