// Test helpers: timers whose callback is a test lambda.
#pragma once

#include <deque>
#include <functional>
#include <utility>

#include "sim/timer.hpp"

namespace maxmin::simtest {

/// A timer of type TimerT bound to a lambda stored beside it.
template <class TimerT = sim::Timer>
struct LambdaTimer {
  LambdaTimer(sim::Simulator& sim, std::function<void()> f)
      : fn{std::move(f)}, timer{sim, sim::bind(fn)} {}
  std::function<void()> fn;
  TimerT timer;
};

/// One-off events: post() arms a fresh timer that runs `fn` once. The
/// timers live as long as the Posts.
class Posts {
 public:
  explicit Posts(sim::Simulator& sim) : sim_{&sim} {}

  sim::Timer& post(Duration delay, std::function<void()> fn) {
    sim::Timer& t = timers_.emplace_back(*sim_, std::move(fn)).timer;
    t.arm(delay);
    return t;
  }
  sim::Timer& postAt(TimePoint when, std::function<void()> fn) {
    return post(when - sim_->now(), std::move(fn));
  }

 private:
  sim::Simulator* sim_;
  std::deque<LambdaTimer<>> timers_;
};

}  // namespace maxmin::simtest
