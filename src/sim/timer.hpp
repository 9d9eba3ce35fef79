// One-shot and periodic timers layered over the Simulator.
//
// A Timer owns its pending event: destroying or restarting it cancels the
// previous schedule, which removes the classic dangling-callback hazard of
// raw schedule()/cancel() pairs. The callback lives in the Timer itself;
// the kernel only ever sees a one-pointer thunk, so arming never allocates.
//
// Re-arming to the same or a later deadline does not touch the queue: the
// timer reserves the sequence number an eager schedule would take, and
// when its already-queued (earlier) key surfaces, that key re-queues
// itself at the reserved (when, seq). The callback therefore runs at
// exactly the position cancel + schedule would have given it, while the
// common DCF/NodeStack pattern — pushing a pending deadline out again and
// again — costs one reservation per arm instead of a tombstone and a
// heap push. Re-arming earlier, and cancel(), stay eager.
//
// A timer can also be held: hold() takes its queued key off the queue but
// keeps the reserved (deadline, seq), arm() while held only moves that
// reservation, and release() queues the callback at exactly that
// position — or drops it if the event loop is already past it. A parked
// DCF radio holds its NAV/EIFS wake this way (DESIGN.md §12).
#pragma once

#include "sim/event_fn.hpp"
#include "sim/simulator.hpp"

namespace maxmin::sim {

/// One-shot cancellable timer.
class Timer {
 public:
  explicit Timer(Simulator& sim) : sim_{&sim} {}
  ~Timer() { cancel(); }
  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;

  /// (Re)arm to fire `delay` from now, replacing any pending schedule.
  void arm(Duration delay, EventFn fn);

  void cancel();

  /// Stop queuing: drop the queued key, keep the reservation. Re-arms
  /// until release() reserve their position without queuing anything.
  void hold();
  /// End hold(): queue the reserved callback where it would have run, or
  /// drop it if that position has passed.
  void release();

  /// Queued to fire (never while held).
  [[nodiscard]] bool pending() const { return id_ != kInvalidEventId; }
  /// When the last arming fires (or fired).
  [[nodiscard]] TimePoint deadline() const { return deadline_; }

 private:
  /// Queue the thunk at the current arming's (deadline_, seq_).
  void queue();
  void fire();

  Simulator* sim_;
  EventId id_ = kInvalidEventId;  ///< the key in the queue, if any
  TimePoint queuedWhen_;          ///< that key's time
  TimePoint deadline_;            ///< current arming; >= queuedWhen_
  std::uint64_t seq_ = 0;         ///< its reserved sequence number
  bool deferred_ = false;  ///< the queued key is not at (deadline_, seq_)
  bool held_ = false;      ///< between hold() and release()
  EventFn fn_;
};

/// Fixed-interval periodic timer. The callback runs once per period until
/// stop() or destruction.
class PeriodicTimer {
 public:
  explicit PeriodicTimer(Simulator& sim) : timer_{sim}, sim_{&sim} {}

  /// Start with the first firing `period` from now.
  void start(Duration period, EventFn fn);

  /// Start with the first firing after `initialDelay`, then every `period`.
  void start(Duration initialDelay, Duration period, EventFn fn);

  void stop() { timer_.cancel(); }

  [[nodiscard]] bool running() const { return timer_.pending(); }

 private:
  void fire();

  Timer timer_;
  Simulator* sim_;
  Duration period_ = Duration::zero();
  EventFn fn_;
};

}  // namespace maxmin::sim
