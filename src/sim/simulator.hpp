// Discrete-event simulation kernel.
//
// Single-threaded, deterministic: events at equal timestamps execute in
// arming order (FIFO by sequence number), so a run is a pure function of
// the scenario and its RNG seed. Distinct Simulator instances share no state,
// which is what makes exp::SweepRunner's run-per-thread parallelism safe.
//
// The kernel schedules exactly one kind of thing: a sim::Timer (timer.hpp),
// whose callback was bound once when the timer was built. There are no
// free-standing events, callback objects or handles (DESIGN.md §8).
//
// Queued keys {when, seq, Timer*} sit in one vector kept as a binary
// min-heap on (when, seq). seq is unique per arming, so pop order is the
// exact total order however keys were pushed. The key compare is one
// unsigned 128-bit compare with no data-dependent branch: in hybrid runs
// most pops share the previous pop's instant, where a compare that
// branches on `when` first mispredicts, and a binary heap's two compares
// per level then beat a 4-ary heap's four (DESIGN.md §8). Each timer has
// at most one key queued and knows its heap slot, so a cancel takes the
// key out on the spot: the heap holds exactly the pending timers, never
// a dead key or a pointer to a destroyed timer.
//
// The pop -> fire and arm -> push paths live in simulator.cpp together
// with sim::Timer's methods: one translation unit, so they inline into
// each other without LTO.
#pragma once

#include <cstdint>
#include <vector>

#include "util/time.hpp"

namespace maxmin::sim {

class Timer;

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  TimePoint now() const { return now_; }

  /// True if the event loop is past position (when, seq): a timer
  /// queued there would already have fired (or is the one firing now).
  [[nodiscard]] bool hasRun(TimePoint when, std::uint64_t seq) const {
    return when < now_ || (when == lastRunWhen_ && seq < lastRunSeqEnd_);
  }

  /// Fire the single next timer. Returns false if none is queued.
  bool step();

  /// Run until the queue drains.
  void run();

  /// Fire timers due at or before `until`, then set the clock to `until`.
  /// The clock never moves backwards: `until` must be >= now().
  void runUntil(TimePoint until);

  /// Number of queued timer keys.
  std::size_t pendingEvents() const { return heap_.size(); }

  /// Totals since construction (diagnostics / benches / golden lock /
  /// analysis::RunMetrics): keys queued, keys fired (a deferral hop
  /// included), keys cancelled, and the queued-key high-water mark.
  std::uint64_t scheduledEvents() const { return scheduled_; }
  std::uint64_t executedEvents() const { return executed_; }
  std::uint64_t cancelledEvents() const { return cancelled_; }
  std::size_t maxPendingEvents() const { return maxLive_; }

 private:
  friend class Timer;

  /// Queue element: the ordering key (when, seq) inline, so heap sifts
  /// stay within one contiguous array, plus its timer.
  struct Key {
    std::int64_t when;  ///< microseconds, TimePoint's representation
    std::uint64_t seq;
    Timer* timer;
  };

  __extension__ typedef unsigned __int128 Order;

  /// (when, seq) as one unsigned number: `when` in the high word with its
  /// sign bit flipped, so the unsigned order is the signed one.
  static Order order(const Key& k) {
    constexpr std::uint64_t kSignBit = std::uint64_t{1} << 63;
    return Order{static_cast<std::uint64_t>(k.when) ^ kSignBit} << 64 | k.seq;
  }

  /// (when, seq) lexicographic order, without a data-dependent branch.
  /// seq is unique per arming, so the order is total and FIFO within an
  /// instant.
  static bool earlier(const Key& a, const Key& b) {
    return order(a) < order(b);
  }

  /// The sequence number the next arming takes.
  [[nodiscard]] std::uint64_t reserveSeq() { return nextSeq_++; }
  /// Queue `timer` at its reserved (deadline, seq).
  void push(Timer& timer);
  /// Take `timer`'s key out of the heap (a cancel).
  void remove(Timer& timer);

  /// Pop the root key and fire its timer.
  void fireFront();
  /// Put `key` in slot `i` of heap `h`, recording the slot in its timer.
  static void place(Key* h, std::size_t i, const Key& key);
  /// Move `key` from hole `i` towards the root / the leaves to its place.
  void siftUp(std::size_t i, Key key);
  void siftDown(std::size_t i, Key key);

  TimePoint now_;
  std::vector<Key> heap_;    ///< binary min-heap on (when, seq)
  std::size_t maxLive_ = 0;  ///< high-water mark of heap_.size()
  std::uint64_t nextSeq_ = 0;
  TimePoint lastRunWhen_;           ///< key of the timer fired last:
  std::uint64_t lastRunSeqEnd_ = 0; ///< its time and seq + 1 (0: none yet)
  std::uint64_t scheduled_ = 0;  ///< keys queued (reservations not counted)
  std::uint64_t executed_ = 0;
  std::uint64_t cancelled_ = 0;
};

}  // namespace maxmin::sim
