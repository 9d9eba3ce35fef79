// Discrete-event simulation kernel.
//
// Single-threaded, deterministic: events at equal timestamps execute in
// scheduling order (FIFO by sequence number), so a run is a pure function of
// the scenario and its RNG seed. Distinct Simulator instances share no state,
// which is what makes exp::SweepRunner's run-per-thread parallelism safe.
//
// Internals (see DESIGN.md §8): event callbacks live in a slab indexed by a
// free list; an EventId packs {slot, generation} so cancelling a fired or
// stale id is a two-compare no-op — there is no tombstone *set* to leak.
// Cancel is an O(1) generation bump that strands a dead key in the queue;
// dead keys are skipped (and accounted) when they surface and swept out
// whenever they outnumber live ones, and the active run releases its
// consumed prefix as it grows, so memory stays O(live events) and
// pendingEvents() — live keys exactly — can never underflow.
//
// Pending event keys {when, seq, slot, gen} sit in a three-tier calendar:
// an unsorted far pool beyond the current time window, time buckets
// partitioning the window, and a sorted active run that pops by cursor.
// Every tier partitions by timestamp and the active run is sorted by the
// full (when, seq) key, so pop order is the exact total order regardless
// of window or bucket geometry — determinism is structural, not tuned.
// Push and pop are amortized O(1) against the heap's O(log n).
//
// A sequence number can be reserved ahead of queuing (reserveSeq() +
// scheduleAtSeq()); sim::Timer uses this to re-arm to a later deadline
// without touching the queue, yet fire at exactly the (when, seq) an
// eager cancel + schedule would have given it (DESIGN.md §8).
//
// The hot path (schedule / step) is defined inline in this header: the
// kernel is the innermost loop of every simulation and benches run
// without LTO.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "obs/profile.hpp"
#include "sim/event_fn.hpp"
#include "util/check.hpp"
#include "util/time.hpp"

namespace maxmin::sim {

/// Token identifying a scheduled event; usable to cancel it. Packs a slab
/// slot (low 32 bits) and that slot's generation (high 32 bits); the
/// generation is bumped whenever the slot's event fires or is cancelled,
/// so stale handles can never alias a later event. Value 0 is reserved and
/// never issued (generations start at 1).
using EventId = std::uint64_t;
inline constexpr EventId kInvalidEventId = 0;

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  TimePoint now() const { return now_; }

  /// Schedule `fn` to run `delay` from now. Zero delay runs after all
  /// events already scheduled for the current instant. Discarding the
  /// returned id forfeits the only way to cancel.
  [[nodiscard]] EventId schedule(Duration delay, EventFn fn) {
    MAXMIN_CHECK(delay >= Duration::zero());
    return emplaceEvent(now_ + delay, nextSeq_++, std::move(fn));
  }

  /// Schedule `fn` at an absolute instant; must not be in the past.
  [[nodiscard]] EventId scheduleAt(TimePoint when, EventFn fn) {
    return emplaceEvent(when, nextSeq_++, std::move(fn));
  }

  /// Take the sequence number the next schedule() would use, queuing
  /// nothing. The caller may later queue one event at it with
  /// scheduleAtSeq(); an unused reservation is harmless.
  [[nodiscard]] std::uint64_t reserveSeq() { return nextSeq_++; }

  /// Queue `fn` at (when, seq) for a `seq` from reserveSeq(). It then runs
  /// exactly where an event scheduled at reservation time would have:
  /// after every event at `when` issued before the reservation, before
  /// every one issued after it. The caller must not queue at a position
  /// already popped (see hasRun()).
  [[nodiscard]] EventId scheduleAtSeq(TimePoint when, std::uint64_t seq,
                                      EventFn fn) {
    MAXMIN_CHECK(seq < nextSeq_);
    MAXMIN_CHECK(!hasRun(when, seq));
    return emplaceEvent(when, seq, std::move(fn));
  }

  /// True if the event loop is past position (when, seq): an event queued
  /// there would already have run (or is the one running now).
  [[nodiscard]] bool hasRun(TimePoint when, std::uint64_t seq) const {
    return when < now_ || (when == lastRunWhen_ && seq < lastRunSeqEnd_);
  }

  /// Fire-and-forget variants for events that are never cancelled — the
  /// explicit opt-out from schedule()'s [[nodiscard]] handle.
  void post(Duration delay, EventFn fn) {
    static_cast<void>(schedule(delay, std::move(fn)));
  }
  void postAt(TimePoint when, EventFn fn) {
    static_cast<void>(scheduleAt(when, std::move(fn)));
  }

  /// Cancel a pending event: an O(1) generation bump. Cancelling an
  /// already-fired, already-cancelled or never-issued id is a harmless
  /// no-op, which lets callers keep stale handles without bookkeeping
  /// (and without the kernel accumulating any per-stale-cancel state).
  void cancel(EventId id) {
    if (id == kInvalidEventId) return;
    const std::uint32_t slot = slotOf(id);
    if (slot >= slotCount_) return;  // never issued
    Record& r = record(slot);
    // A fired or cancelled event bumped the generation; a reused slot
    // holds a different generation. Either way the stale handle matches
    // nothing. A matching generation means the event is pending.
    if (r.gen != genOf(id)) return;
    retire(slot);
    --live_;
    ++dead_;  // its queue key is now a tombstone; dropped at pop/compact
    ++cancelled_;
    if (dead_ > kCompactMinDead && dead_ > live_) compact();
  }

  /// Execute the single next event. Returns false if the queue is empty.
  bool step() {
    if (!ensureRunFront()) return false;
    const Key top = run_[runPos_++];
    MAXMIN_CHECK(top.when >= now_);
    now_ = top.when;
    lastRunWhen_ = top.when;
    lastRunSeqEnd_ = top.seq + 1;
    Record& r = record(top.slot);
    // The run is time-ordered while the slab is allocation-ordered, so the
    // next record is rarely in cache; overlap its fetch with this callback.
    if (runPos_ < run_.size()) {
      __builtin_prefetch(&record(run_[runPos_].slot));
    }
    // Bump the generation *before* invoking so outstanding ids (including
    // a self-cancel from inside the callback) are already stale. Chunked
    // slab storage never moves, so the callback runs in place — no move
    // out — and may schedule or cancel freely while it does.
    ++r.gen;
    --live_;
    ++executed_;
    if (MAXMIN_OBS_UNLIKELY(obs::Profiler::enabled())) {
      // Kernel-level catch-all site; callbacks refine attribution with
      // their own MAXMIN_PROFILE_SCOPE sites (nested times overlap).
      static const obs::SiteId kStepSite =
          obs::Profiler::global().site("sim.step");
      const std::int64_t t0 = obs::Profiler::wallNanos();
      r.fn();
      obs::Profiler::global().record(kStepSite,
                                     obs::Profiler::wallNanos() - t0);
    } else {
      r.fn();
    }
    r.fn.reset();
    r.nextFree = freeHead_;  // freed only now: the callback can't reuse it
    freeHead_ = top.slot;
    return true;
  }

  /// Run until the queue drains.
  void run() {
    while (step()) {
    }
  }

  /// Run events with timestamp <= `until`, then set the clock to `until`.
  /// The clock never moves backwards: `until` must be >= now().
  void runUntil(TimePoint until) {
    MAXMIN_CHECK_MSG(until >= now_,
                     "runUntil would move the clock backwards: "
                         << until << " < now " << now_);
    // Single pop path: step() pops the true next event once
    // ensureRunFront() has surfaced it at the run cursor.
    while (ensureRunFront() && run_[runPos_].when <= until) {
      step();
    }
    MAXMIN_CHECK(now_ <= until);  // monotonic: step never overshoots
    now_ = until;
  }

  /// Number of pending (non-cancelled) events.
  std::size_t pendingEvents() const { return live_; }

  /// Totals since construction (diagnostics / benches / golden lock /
  /// analysis::RunMetrics): keys queued, events executed, pending events
  /// cancelled, the pending-event high-water mark, and tombstone sweeps.
  std::uint64_t scheduledEvents() const { return scheduled_; }
  std::uint64_t executedEvents() const { return executed_; }
  std::uint64_t cancelledEvents() const { return cancelled_; }
  std::size_t maxPendingEvents() const { return maxLive_; }
  std::uint64_t compactions() const { return compactions_; }

  /// Keys the queue's tiers hold right now: live keys, tombstones not yet
  /// dropped, and any consumed run prefix not yet released. Walks the
  /// bucket array; for tests and diagnostics, not the hot path.
  [[nodiscard]] std::size_t queuedKeys() const;

 private:
  /// Below this many tombstones, compaction isn't worth the sweep.
  static constexpr std::size_t kCompactMinDead = 64;
  /// Below this many popped keys, releasing the run's prefix isn't worth
  /// the memmove.
  static constexpr std::size_t kTrimMinPopped = 64;
  static constexpr std::uint32_t kFreeListEnd = 0xffffffffu;
  /// Records per slab chunk. Chunks are allocated once and never move,
  /// which is what lets step() invoke callbacks in place.
  static constexpr std::uint32_t kChunkShift = 10;
  static constexpr std::uint32_t kChunkSize = 1u << kChunkShift;

  /// Slab-resident event record. `gen` is the slot's current generation;
  /// a queue key is live iff its stored generation matches. Free slots
  /// are chained through `nextFree`. Exactly one cache line (4 + 4 + 56
  /// bytes, line-aligned), so touching a record never splits lines.
  struct alignas(64) Record {
    std::uint32_t gen = 1;
    std::uint32_t nextFree = kFreeListEnd;
    EventFn fn;
  };
  static_assert(sizeof(Record) == 64);

  /// Queue element. Carries the ordering key (when, seq) inline so sorts
  /// and scans stay within contiguous arrays instead of chasing slab
  /// pointers, plus the {slot, gen} identity of the event.
  struct Key {
    TimePoint when;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t gen;
  };

  [[nodiscard]] static constexpr EventId makeId(std::uint32_t slot,
                                                std::uint32_t gen) {
    return (static_cast<EventId>(gen) << 32) | slot;
  }
  static constexpr std::uint32_t slotOf(EventId id) {
    return static_cast<std::uint32_t>(id);
  }
  static constexpr std::uint32_t genOf(EventId id) {
    return static_cast<std::uint32_t>(id >> 32);
  }

  /// (when, seq) lexicographic order. seq is globally unique, so the
  /// order is total and FIFO within an instant.
  static bool earlier(const Key& a, const Key& b) {
    if (a.when != b.when) return a.when < b.when;
    return a.seq < b.seq;
  }

  Record& record(std::uint32_t slot) {
    return chunks_[slot >> kChunkShift][slot & (kChunkSize - 1)];
  }
  const Record& record(std::uint32_t slot) const {
    return chunks_[slot >> kChunkShift][slot & (kChunkSize - 1)];
  }

  bool isLive(const Key& k) const { return record(k.slot).gen == k.gen; }

  /// Allocate a slab slot and queue {when, seq}; shared tail of the
  /// schedule*() calls.
  [[nodiscard]] EventId emplaceEvent(TimePoint when, std::uint64_t seq,
                                     EventFn&& fn) {
    MAXMIN_CHECK_MSG(when >= now_, "event scheduled in the past: "
                                       << when << " < now " << now_);
    MAXMIN_CHECK(static_cast<bool>(fn));
    std::uint32_t slot;
    if (freeHead_ != kFreeListEnd) {
      slot = freeHead_;
      freeHead_ = record(slot).nextFree;
    } else {
      MAXMIN_CHECK(slotCount_ < kFreeListEnd - 1);
      if ((slotCount_ & (kChunkSize - 1)) == 0) {
        chunks_.emplace_back(new Record[kChunkSize]);
      }
      slot = slotCount_++;
    }
    Record& r = record(slot);
    r.fn = std::move(fn);
    pushKey(Key{when, seq, slot, r.gen});
    ++scheduled_;
    ++live_;
    if (live_ > maxLive_) maxLive_ = live_;
    return makeId(slot, r.gen);
  }

  /// Bump the slot's generation (invalidating outstanding ids), release
  /// the callback, return the slot to the free list. Used by cancel();
  /// step() inlines the same sequence around the in-place invoke.
  void retire(std::uint32_t slot) {
    Record& r = record(slot);
    ++r.gen;
    r.fn.reset();
    r.nextFree = freeHead_;
    freeHead_ = slot;
  }

  /// Route a key to the tier covering its timestamp.
  void pushKey(const Key& key) {
    if (key.when >= windowEnd_) {
      far_.push_back(key);
    } else if (key.when >= runEnd_) {
      buckets_[bucketIndex(key.when)].push_back(key);
    } else {
      insertIntoRun(key);
    }
  }

  std::size_t bucketIndex(TimePoint when) const {
    return static_cast<std::size_t>((when - windowStart_).asMicros() /
                                    bucketWidthUs_);
  }

  /// Advance tiers until the next live key sits at run_[runPos_].
  /// Returns false when no live events remain.
  bool ensureRunFront() {
    for (;;) {
      while (runPos_ < run_.size()) {
        if (isLive(run_[runPos_])) return true;
        ++runPos_;  // drop tombstone
        --dead_;
      }
      if (live_ == 0) {
        resetTiers();
        return false;
      }
      refillRun();  // a refilled run may still lead with tombstones
    }
  }

  void insertIntoRun(const Key& key);
  void refillRun();
  void rebuildWindow();
  void resetTiers();
  void compact();

  TimePoint now_;
  std::vector<std::unique_ptr<Record[]>> chunks_;  ///< stable slab storage
  std::uint32_t slotCount_ = 0;            ///< slots handed out so far
  std::uint32_t freeHead_ = kFreeListEnd;  ///< head of the free-slot chain

  // --- calendar tiers ------------------------------------------------------
  // Invariant time partition: run_ covers [now_, runEnd_), buckets_ cover
  // [windowStart_, windowEnd_) beyond the run, far_ covers [windowEnd_, inf).
  std::vector<Key> run_;    ///< sorted active run; popped via runPos_
  std::size_t runPos_ = 0;  ///< cursor into run_
  TimePoint runEnd_;        ///< run_ holds every pending key before this
  std::vector<std::vector<Key>> buckets_;  ///< unsorted per-interval keys
  std::size_t activeBuckets_ = 0;  ///< buckets in the current window; the
                                   ///< array itself only ever grows, so
                                   ///< bucket capacity survives window
                                   ///< rebuilds and steady-state windows
                                   ///< never re-allocate
  std::size_t nextBucket_ = 0;             ///< first bucket not yet drained
  TimePoint windowStart_;
  TimePoint windowEnd_;  ///< == windowStart_ when no window is active
  std::int64_t bucketWidthUs_ = 1;
  std::vector<Key> far_;  ///< unsorted keys at/after windowEnd_

  std::size_t live_ = 0;     ///< pending (non-cancelled) events
  std::size_t dead_ = 0;     ///< tombstone keys still in some tier
  std::size_t maxLive_ = 0;  ///< high-water mark of live_
  std::uint64_t nextSeq_ = 0;
  TimePoint lastRunWhen_;           ///< key of the event popped last:
  std::uint64_t lastRunSeqEnd_ = 0; ///< its time and seq + 1 (0: none yet)
  std::uint64_t scheduled_ = 0;  ///< keys queued (reservations not counted)
  std::uint64_t executed_ = 0;
  std::uint64_t cancelled_ = 0;
  std::uint64_t compactions_ = 0;
};

}  // namespace maxmin::sim
