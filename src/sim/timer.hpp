// Timers: the only thing the event kernel (simulator.hpp) schedules.
//
// A Timer gets its callback once, at construction, as a plain
// {function, context} pair — sim::bind<&Owner::method>(owner) in one line.
// arm(delay) then only stores the deadline and reserves a sequence number;
// the kernel queues {when, seq, Timer*} and calls the callback in place
// when that key pops. Nothing is moved, copied or allocated per event. A
// timer that runs different actions at different times dispatches on a
// state member its owner writes at arm time.
//
// A Timer owns its queued key: re-arming, cancelling or destroying it
// takes the key out of the queue, so a callback may destroy its own
// timer.
//
// Re-arming to the same or a later deadline does not touch the queue: the
// timer reserves the sequence number an eager re-queue would take, and
// when its already-queued (earlier) key surfaces, that key re-queues
// itself at the reserved (when, seq). The callback therefore runs at
// exactly the position cancel + re-queue would have given it, while the
// common DCF/NodeStack pattern — pushing a pending deadline out again and
// again — costs one reservation per arm instead of a heap removal and a
// push. Re-arming earlier, and cancel(), stay eager.
//
// A timer can also be held: hold() takes its queued key off the queue but
// keeps the reserved (deadline, seq), arm() while held only moves that
// reservation, and release() queues the timer at exactly that position —
// or drops the arming if the event loop is already past it. A parked DCF
// radio holds its NAV/EIFS wake this way (DESIGN.md §12).
#pragma once

#include <cstdint>

#include "sim/simulator.hpp"

namespace maxmin::sim {

/// A timer's callback: a plain function and the object it acts on.
struct Callback {
  void (*fn)(void*);
  void* ctx;
  void operator()() const { fn(ctx); }
};

/// Callback running `(obj->*Method)()`. Method may be private to the
/// caller's class: access is checked where it is named.
template <auto Method, typename T>
Callback bind(T* obj) {
  return {[](void* p) { (static_cast<T*>(p)->*Method)(); }, obj};
}

/// Callback running `f()` for a callable that outlives the timer (tests,
/// harness-local lambdas).
template <typename F>
Callback bind(F& f) {
  return {[](void* p) { (*static_cast<F*>(p))(); }, &f};
}

/// One-shot cancellable timer.
class Timer {
 public:
  Timer(Simulator& sim, Callback callback) : sim_{&sim}, callback_{callback} {}
  ~Timer() { cancel(); }
  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;

  /// (Re)arm to fire `delay` from now, replacing any pending arming.
  void arm(Duration delay);

  void cancel();

  /// Stop queuing: drop the queued key, keep the reservation. Re-arms
  /// until release() reserve their position without queuing anything.
  void hold();
  /// End hold(): queue the reserved arming where it would have fired, or
  /// drop it if that position has passed.
  void release();

  /// Queued to fire (never while held).
  [[nodiscard]] bool pending() const { return slot_ != kNotQueued; }
  /// When the last arming fires (or fired).
  [[nodiscard]] TimePoint deadline() const { return deadline_; }

 private:
  friend class Simulator;

  static constexpr std::uint32_t kNotQueued = UINT32_MAX;

  /// Queue a key at the current arming's (deadline_, seq_).
  void queue();
  /// The kernel popped the key.
  void fire();

  Simulator* sim_;
  Callback callback_;
  TimePoint queuedWhen_;   ///< the queued key's time
  TimePoint deadline_;     ///< current arming; >= queuedWhen_
  std::uint64_t seq_ = 0;  ///< its reserved sequence number
  std::uint32_t slot_ = kNotQueued;  ///< the key's heap index, if queued
  bool armed_ = false;     ///< the last arming has not fired or been cancelled
  bool deferred_ = false;  ///< the queued key is not at (deadline_, seq_)
  bool held_ = false;      ///< between hold() and release()
};

/// Fixed-interval periodic timer. The callback runs once per period until
/// stop() or destruction.
class PeriodicTimer {
 public:
  PeriodicTimer(Simulator& sim, Callback callback)
      : timer_{sim, bind<&PeriodicTimer::fire>(this)}, callback_{callback} {}

  /// Start with the first firing `period` from now.
  void start(Duration period) { start(period, period); }

  /// Start with the first firing after `initialDelay`, then every `period`.
  void start(Duration initialDelay, Duration period);

  void stop() { timer_.cancel(); }

  [[nodiscard]] bool running() const { return timer_.pending(); }

 private:
  void fire();

  Timer timer_;
  Callback callback_;
  Duration period_ = Duration::zero();
};

}  // namespace maxmin::sim
