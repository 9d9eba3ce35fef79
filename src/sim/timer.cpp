#include "sim/timer.hpp"

#include <utility>

#include "util/check.hpp"

namespace maxmin::sim {

void Timer::arm(Duration delay, EventFn fn) {
  MAXMIN_CHECK(delay >= Duration::zero());
  fn_ = std::move(fn);
  deadline_ = sim_->now() + delay;
  seq_ = sim_->reserveSeq();  // the seq an eager schedule() would take
  if (id_ != kInvalidEventId) {
    // The queued key surfaces first and moves itself to the reserved
    // (deadline_, seq_) in fire().
    deferred_ = queuedWhen_ <= deadline_;
    if (deferred_) return;
    sim_->cancel(id_);
  } else if (held_) {
    return;  // release() queues the reservation
  }
  queue();
}

void Timer::queue() {
  id_ = sim_->scheduleAtSeq(deadline_, seq_, [this] { fire(); });
  queuedWhen_ = deadline_;
  deferred_ = false;
}

void Timer::fire() {
  if (deferred_) {
    queue();  // hop to the position the last arm reserved
    return;
  }
  id_ = kInvalidEventId;  // clear before user code so it may re-arm
  EventFn fn = std::move(fn_);
  fn();
}

void Timer::cancel() {
  if (id_ != kInvalidEventId) {
    sim_->cancel(id_);
    id_ = kInvalidEventId;
  }
  fn_.reset();  // also drops a held reservation
}

void Timer::hold() {
  held_ = true;
  if (id_ != kInvalidEventId) {
    sim_->cancel(id_);
    id_ = kInvalidEventId;
  }
}

void Timer::release() {
  held_ = false;
  // fn_ is set exactly while an arming has neither fired nor been
  // cancelled.
  if (!fn_) return;
  if (sim_->hasRun(deadline_, seq_)) {
    fn_.reset();
  } else {
    queue();
  }
}

void PeriodicTimer::start(Duration period, EventFn fn) {
  start(period, period, std::move(fn));
}

void PeriodicTimer::start(Duration initialDelay, Duration period,
                          EventFn fn) {
  MAXMIN_CHECK(period > Duration::zero());
  period_ = period;
  fn_ = std::move(fn);
  timer_.arm(initialDelay, [this] { fire(); });
}

void PeriodicTimer::fire() {
  timer_.arm(period_, [this] { fire(); });
  fn_();  // may call stop(); the re-arm above is then cancelled
}

}  // namespace maxmin::sim
