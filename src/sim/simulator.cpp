// The event kernel and sim::Timer in one translation unit, so the pop ->
// fire and arm -> push paths inline into each other (simulator.hpp).
#include "sim/simulator.hpp"

#include <algorithm>
#include <vector>

#include "obs/profile.hpp"
#include "sim/timer.hpp"
#include "util/check.hpp"

namespace maxmin::sim {

// ---------------------------------------------------------------------------
// Kernel
// ---------------------------------------------------------------------------

void Simulator::place(Key* h, std::size_t i, const Key& key) {
  h[i] = key;
  key.timer->slot_ = static_cast<std::uint32_t>(i);
}

void Simulator::push(Timer& timer) {
  const Key key{timer.deadline_.asMicros(), timer.seq_, &timer};
  heap_.push_back(key);
  siftUp(heap_.size() - 1, key);
  ++scheduled_;
  maxLive_ = std::max(maxLive_, heap_.size());
}

void Simulator::remove(Timer& timer) {
  const std::size_t i = timer.slot_;
  timer.slot_ = Timer::kNotQueued;
  ++cancelled_;
  const Key last = heap_.back();
  heap_.pop_back();
  if (i == heap_.size()) return;  // it was the tail
  if (i > 0 && earlier(last, heap_[(i - 1) / 2])) {
    siftUp(i, last);
  } else {
    siftDown(i, last);
  }
}

void Simulator::siftUp(std::size_t i, const Key key) {
  Key* const h = heap_.data();
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!earlier(key, h[parent])) break;
    place(h, i, h[parent]);
    i = parent;
  }
  place(h, i, key);
}

void Simulator::siftDown(std::size_t i, const Key key) {
  Key* const h = heap_.data();
  const std::size_t n = heap_.size();
  for (;;) {
    std::size_t child = 2 * i + 1;
    if (child >= n) break;
    // The earlier child, picked by adding the compare's result.
    if (child + 1 < n) child += earlier(h[child + 1], h[child]);
    if (!earlier(h[child], key)) break;
    place(h, i, h[child]);
    i = child;
  }
  place(h, i, key);
}

void Simulator::fireFront() {
  const Key top = heap_.front();
  const Key last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) siftDown(0, last);
  const TimePoint when = TimePoint::fromMicros(top.when);
  MAXMIN_CHECK(when >= now_);
  now_ = when;
  lastRunWhen_ = when;
  lastRunSeqEnd_ = top.seq + 1;
  Timer* t = top.timer;
  t->slot_ = Timer::kNotQueued;  // before the callback, so it may re-arm
  ++executed_;
  // The callback may destroy the timer: nothing touches it afterwards.
  if (MAXMIN_OBS_UNLIKELY(obs::Profiler::enabled())) {
    // Kernel-level catch-all site; callbacks refine attribution with
    // their own MAXMIN_PROFILE_SCOPE sites (nested times overlap).
    static const obs::SiteId kStepSite =
        obs::Profiler::global().site("sim.step");
    const std::int64_t t0 = obs::Profiler::wallNanos();
    t->fire();
    obs::Profiler::global().record(kStepSite,
                                   obs::Profiler::wallNanos() - t0);
  } else {
    t->fire();
  }
}

bool Simulator::step() {
  if (heap_.empty()) return false;
  fireFront();
  return true;
}

void Simulator::run() {
  while (step()) {
  }
}

void Simulator::runUntil(TimePoint until) {
  MAXMIN_CHECK_MSG(until >= now_,
                   "runUntil would move the clock backwards: "
                       << until << " < now " << now_);
  while (!heap_.empty() && heap_.front().when <= until.asMicros()) {
    fireFront();
  }
  MAXMIN_CHECK(now_ <= until);  // monotonic: a firing never overshoots
  now_ = until;
}

// ---------------------------------------------------------------------------
// Timer
// ---------------------------------------------------------------------------

void Timer::arm(Duration delay) {
  MAXMIN_CHECK(delay >= Duration::zero());
  deadline_ = sim_->now() + delay;
  seq_ = sim_->reserveSeq();  // the seq an eager re-queue would take
  armed_ = true;
  if (pending()) {
    // The queued key surfaces first and moves itself to the reserved
    // (deadline_, seq_) in fire().
    deferred_ = queuedWhen_ <= deadline_;
    if (deferred_) return;
    sim_->remove(*this);
  } else if (held_) {
    return;  // release() queues the reservation
  }
  queue();
}

void Timer::queue() {
  MAXMIN_CHECK_MSG(!sim_->hasRun(deadline_, seq_),
                   "timer queued at a passed position: " << deadline_);
  queuedWhen_ = deadline_;
  deferred_ = false;
  sim_->push(*this);
}

void Timer::fire() {
  if (deferred_) {
    queue();  // hop to the position the last arm reserved
    return;
  }
  armed_ = false;
  callback_();
}

void Timer::cancel() {
  if (pending()) sim_->remove(*this);
  armed_ = false;  // also drops a held reservation
}

void Timer::hold() {
  held_ = true;
  if (pending()) sim_->remove(*this);
}

void Timer::release() {
  held_ = false;
  if (!armed_ || pending()) return;
  if (sim_->hasRun(deadline_, seq_)) {
    armed_ = false;
  } else {
    queue();
  }
}

void PeriodicTimer::start(Duration initialDelay, Duration period) {
  MAXMIN_CHECK(period > Duration::zero());
  period_ = period;
  timer_.arm(initialDelay);
}

void PeriodicTimer::fire() {
  timer_.arm(period_);
  callback_();  // may call stop(); the re-arm above is then cancelled
}

}  // namespace maxmin::sim
