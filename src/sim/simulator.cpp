// Cold paths of the calendar event queue: tier refills, window sizing,
// tombstone compaction. The per-event hot path lives in simulator.hpp.
#include "sim/simulator.hpp"

#include <algorithm>
#include <bit>
#include <cstddef>

namespace maxmin::sim {

// Sorted insert at or beyond the run cursor. Every popped key precedes
// the new one in (when, seq) order (a fresh seq is the largest issued; a
// reserved one is above the running event's), so upper_bound over the
// unpopped part lands at its exact place in the total order.
//
// The run only grows here, so this is also where the consumed prefix is
// released: once it is at least half the run, erasing it moves no more
// keys than were popped since the last release — amortised O(1) per pop —
// and the run stays within twice its unpopped keys.
void Simulator::insertIntoRun(const Key& key) {
  if (runPos_ >= kTrimMinPopped && 2 * runPos_ >= run_.size()) {
    run_.erase(run_.begin(),
               run_.begin() + static_cast<std::ptrdiff_t>(runPos_));
    runPos_ = 0;
  }
  const auto it = std::upper_bound(
      run_.begin() + static_cast<std::ptrdiff_t>(runPos_), run_.end(), key,
      earlier);
  run_.insert(it, key);
}

// The active run is spent: activate the next non-empty bucket, rebuilding
// the window from the far pool when the current one is exhausted. Caller
// guarantees at least one live key remains somewhere.
void Simulator::refillRun() {
  run_.clear();
  runPos_ = 0;
  for (;;) {
    while (nextBucket_ < activeBuckets_) {
      std::vector<Key>& b = buckets_[nextBucket_++];
      if (b.empty()) continue;
      run_.swap(b);  // the bucket inherits the spent run's capacity
      std::sort(run_.begin(), run_.end(), earlier);
      runEnd_ = nextBucket_ == activeBuckets_
                    ? windowEnd_
                    : windowStart_ +
                          Duration::micros(
                              bucketWidthUs_ *
                              static_cast<std::int64_t>(nextBucket_));
      return;
    }
    runEnd_ = windowEnd_;
    rebuildWindow();
  }
}

// Carve a fresh bucket window spanning exactly the far pool's live keys:
// power-of-two bucket count targeting ~kBucketLoad keys per bucket (sorts
// of that size are trivial, and fewer buckets means fewer allocations and
// a shorter skip over empty ones), capped so the bucket array stays
// modest. Tombstones are dropped for free during the span scan.
void Simulator::rebuildWindow() {
  std::size_t w = 0;
  TimePoint minW;
  TimePoint maxW;
  for (const Key& k : far_) {
    if (!isLive(k)) {
      --dead_;
      continue;
    }
    if (w == 0 || k.when < minW) minW = k.when;
    if (w == 0 || k.when > maxW) maxW = k.when;
    far_[w++] = k;
  }
  far_.resize(w);
  MAXMIN_CHECK(w > 0);  // live_ > 0 and every other tier is drained
  const std::int64_t spanUs = (maxW - minW).asMicros() + 1;
  constexpr std::size_t kBucketLoad = 8;
  const auto nb = static_cast<std::int64_t>(std::bit_ceil(
      std::min<std::size_t>(std::max<std::size_t>(w / kBucketLoad, 1),
                            std::size_t{1} << 16)));
  bucketWidthUs_ = (spanUs + nb - 1) / nb;
  if (bucketWidthUs_ <= 0) bucketWidthUs_ = 1;
  windowStart_ = minW;
  windowEnd_ = maxW + Duration::micros(1);
  // Grow-only: a narrower window just uses a prefix of the bucket array,
  // so per-bucket capacity from earlier windows is recycled rather than
  // freed — steady-state window rebuilds perform no heap allocation.
  activeBuckets_ = static_cast<std::size_t>(nb);
  if (buckets_.size() < activeBuckets_) buckets_.resize(activeBuckets_);
  nextBucket_ = 0;
  for (const Key& k : far_) {
    buckets_[bucketIndex(k.when)].push_back(k);
  }
  far_.clear();
}

// The queue is fully drained: anything left in any tier is a tombstone.
// Collapse the window so the next push routes to the far pool and the next
// refill sizes a window around whatever is pending then.
void Simulator::resetTiers() {
  run_.clear();
  runPos_ = 0;
  for (std::vector<Key>& b : buckets_) b.clear();
  far_.clear();
  nextBucket_ = activeBuckets_;
  dead_ = 0;
  runEnd_ = now_;
  windowStart_ = now_;
  windowEnd_ = now_;
}

std::size_t Simulator::queuedKeys() const {
  std::size_t n = run_.size() + far_.size();
  for (const std::vector<Key>& b : buckets_) n += b.size();
  return n;
}

// Sweep tombstones out of every tier. Triggered when dead keys outnumber
// live ones, which bounds queue memory to O(live) and keeps the amortized
// cost per cancel constant. erase_if is stable, so live run order — and
// with it pop order — is untouched.
void Simulator::compact() {
  ++compactions_;
  const auto dead = [this](const Key& k) { return !isLive(k); };
  run_.erase(run_.begin(), run_.begin() + static_cast<std::ptrdiff_t>(runPos_));
  runPos_ = 0;
  std::erase_if(run_, dead);
  for (std::vector<Key>& b : buckets_) std::erase_if(b, dead);
  std::erase_if(far_, dead);
  dead_ = 0;
}

}  // namespace maxmin::sim
