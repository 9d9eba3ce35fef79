// Self-profiling: per-callback-site wall-time histograms.
//
// A *site* is a static instrumentation point (MAXMIN_PROFILE_SCOPE at the
// top of a callback, or the kernel's own hook around every event in
// sim::Simulator::step). Sites register once — a function-local static
// holding a small integer id — and every subsequent pass records one
// nanosecond-scaled duration into that site's fixed-bucket histogram.
//
// This is the only code in the repository allowed to touch the host
// clock: simulation logic lives on sim::Simulator::now(), and the lint
// rule [chrono-outside-obs] keeps std::chrono out of every other src/
// subsystem. Profiling reads wall time but never writes anything a
// simulation reads, so a profiled run's results are bit-identical to an
// unprofiled one.
//
// Runtime-gated, always compiled: `maxmin-sim --profile` must work in the
// default build. Disabled cost is one relaxed atomic load per scope.
//
// The profiler is process-wide: a --sweep's runs all record into the one
// table, so its timings are totals over every run in the process. Per-run
// counts live on analysis::RunResult instead (DESIGN.md §11).
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>

#define MAXMIN_OBS_CONCAT_INNER(a, b) a##b
#define MAXMIN_OBS_CONCAT(a, b) MAXMIN_OBS_CONCAT_INNER(a, b)

// Profiling is dormant in the common case; the hint keeps the recording
// path out of line so a disabled site costs one predicted branch.
#define MAXMIN_OBS_UNLIKELY(x) __builtin_expect(static_cast<bool>(x), 0)

namespace maxmin::obs {

/// Fixed-bucket histogram over non-negative integer samples. Bucket i
/// holds samples whose value v satisfies 2^(i-1) <= v < 2^i (bucket 0
/// holds v == 0), so the geometry is static — no rebalancing, and
/// percentile queries are a prefix scan over 64 counters. Relaxed atomics:
/// concurrent sweep workers may record into one site.
class Histogram {
 public:
  static constexpr int kBuckets = 64;

  void record(std::int64_t v);
  [[nodiscard]] std::int64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t sum() const {
    return sum_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double mean() const;
  /// Upper bound of the bucket containing the p-quantile (p in [0,1]).
  [[nodiscard]] std::int64_t percentile(double p) const;
  void reset();

 private:
  std::atomic<std::int64_t> buckets_[kBuckets] = {};
  std::atomic<std::int64_t> count_{0};
  std::atomic<std::int64_t> sum_{0};
};

using SiteId = int;

class Profiler {
 public:
  static constexpr int kMaxSites = 256;

  static Profiler& global();

  static bool enabled() {
    return enabledFlag().load(std::memory_order_relaxed);
  }
  static void setEnabled(bool on) {
    enabledFlag().store(on, std::memory_order_relaxed);
  }

  /// Register a site (idempotent per name); returns its stable id.
  /// `name` must be a string literal or otherwise outlive the profiler.
  SiteId site(const char* name);

  void record(SiteId id, std::int64_t nanos) {
    if (id >= 0 && id < kMaxSites) sites_[id].hist.record(nanos);
  }

  /// Current wall clock in nanoseconds (monotonic). The single chrono
  /// read of the repository; exp::SweepRunner times jobs through it too.
  static std::int64_t wallNanos();

  void reset();

  /// The --profile table: site, calls, total ms, mean us, p50/p99 us,
  /// sorted by total time descending (name breaks ties).
  void printTable(std::ostream& os) const;

 private:
  struct Site {
    const char* name = nullptr;
    Histogram hist;
  };

  static std::atomic<bool>& enabledFlag();

  std::atomic<int> siteCount_{0};
  Site sites_[kMaxSites];
};

/// RAII sampler: reads the clock on entry/exit when profiling is enabled.
class ScopedProfile {
 public:
  explicit ScopedProfile(SiteId id)
      : id_{id}, start_{Profiler::enabled() ? Profiler::wallNanos() : -1} {}
  ~ScopedProfile() {
    if (start_ >= 0) {
      Profiler::global().record(id_, Profiler::wallNanos() - start_);
    }
  }
  ScopedProfile(const ScopedProfile&) = delete;
  ScopedProfile& operator=(const ScopedProfile&) = delete;

 private:
  SiteId id_;
  std::int64_t start_;
};

}  // namespace maxmin::obs

/// Time the rest of the enclosing scope under a named site.
#define MAXMIN_PROFILE_SCOPE(name)                                         \
  static const ::maxmin::obs::SiteId MAXMIN_OBS_CONCAT(maxminProfSite,     \
                                                       __LINE__) =         \
      ::maxmin::obs::Profiler::global().site(name);                        \
  const ::maxmin::obs::ScopedProfile MAXMIN_OBS_CONCAT(maxminProfScope,    \
                                                       __LINE__) {         \
    MAXMIN_OBS_CONCAT(maxminProfSite, __LINE__)                            \
  }
