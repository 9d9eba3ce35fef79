// Streaming statistics accumulators used by measurement code throughout
// the simulator (rates, occupancies, queue lengths).
#pragma once

#include <cstdint>
#include <vector>

#include "util/time.hpp"

namespace maxmin {

/// Welford-style running mean/variance with min/max tracking.
class RunningStats {
 public:
  void add(double x);
  void reset();

  [[nodiscard]] std::int64_t count() const { return n_; }
  [[nodiscard]] double mean() const { return n_ > 0 ? mean_ : 0.0; }
  [[nodiscard]] double variance() const;  ///< Sample variance; 0 for fewer than 2 samples.
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const { return n_ > 0 ? min_ : 0.0; }
  [[nodiscard]] double max() const { return n_ > 0 ? max_ : 0.0; }
  [[nodiscard]] double sum() const { return sum_; }

 private:
  std::int64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Counts discrete events over an explicit window; yields a rate when the
/// window is closed. Used for per-period link-rate and flow-rate measurement.
class WindowedCounter {
 public:
  void add(std::int64_t k = 1) { count_ += k; }

  /// Close the window that started at `windowStart` and ended at `now`;
  /// returns events/second and resets the counter.
  double closeWindow(TimePoint windowStart, TimePoint now);

  [[nodiscard]] std::int64_t pending() const { return count_; }

 private:
  std::int64_t count_ = 0;
};

/// Accumulates the total time a boolean condition held, sampled via explicit
/// rise/fall edges. Used for buffer-full fraction (Omega) and channel
/// occupancy measurement.
class BusyTimeAccumulator {
 public:
  /// Mark the condition as on/off at time `now`. Redundant transitions are
  /// ignored.
  void set(bool on, TimePoint now);

  /// Fraction of [windowStart, now] during which the condition held.
  /// Does not reset state; `beginWindow` starts the next window.
  [[nodiscard]] double fraction(TimePoint windowStart, TimePoint now) const;

  /// Start a new measurement window at `now`, carrying the current on/off
  /// state into it.
  void beginWindow(TimePoint now);

 private:
  bool on_ = false;
  TimePoint onSince_;
  Duration accumulated_ = Duration::zero();
  TimePoint windowStart_;
};

/// Jain's fairness (equality) index: (sum x)^2 / (n * sum x^2).
/// Returns 1.0 for an empty or all-zero input by convention.
[[nodiscard]] double jainIndex(const std::vector<double>& xs);

/// Maxmin fairness index: min(x) / max(x). Returns 1.0 for empty input and
/// 0.0 when max > 0 but min == 0.
[[nodiscard]] double maxminIndex(const std::vector<double>& xs);

}  // namespace maxmin
