// Parallel experiment sweeps.
//
// A sweep is a list of fully-specified, independent runs — seeds ×
// scenarios × parameter grids. Each run constructs its own Simulator and
// network from its RunConfig and shares no mutable state with any other
// (the kernel is single-threaded but self-contained), so SweepRunner can
// fan runs out across a thread pool with no locking beyond the work
// queue. Results come back in input order regardless of the number of
// workers or their scheduling, which is what makes `--jobs 8` output
// byte-identical to a serial run.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "analysis/experiment.hpp"
#include "scenarios/scenarios.hpp"
#include "util/stats.hpp"

namespace maxmin::exp {

/// One unit of sweep work: a scenario plus the exact config to run it
/// under. `label` identifies the run in reports ("fig4/gmp/seed=7").
struct SweepJob {
  std::string label;
  scenarios::Scenario scenario;
  analysis::RunConfig config;
};

/// Outcome of one job. A run that throws (bad fault script for the
/// topology, solver failure, ...) is captured here rather than tearing
/// down the sweep: `ok` is false and `error` holds the exception text.
struct SweepOutcome {
  std::string label;
  std::uint64_t seed = 0;
  bool ok = false;
  analysis::RunResult result;  ///< valid iff ok
  std::string error;           ///< exception text iff !ok
  double wallSeconds = 0.0;    ///< host wall-clock time of this run
};

/// Fans independent runs across `jobs` worker threads (clamped to >= 1;
/// pass 0 for hardware concurrency). Workers pull jobs from a shared
/// index and write outcomes by position, so the result vector is in
/// input order and bit-identical for any worker count.
class SweepRunner {
 public:
  explicit SweepRunner(int jobs);

  [[nodiscard]] std::vector<SweepOutcome> runAll(const std::vector<SweepJob>& jobs) const;

  [[nodiscard]] int jobs() const { return jobs_; }

 private:
  int jobs_;
};

/// `count` copies of (scenario, base) differing only in seed:
/// base.seed, base.seed + 1, ... — the standard confidence-interval
/// sweep for a single configuration.
std::vector<SweepJob> seedGrid(const scenarios::Scenario& scenario,
                               const analysis::RunConfig& base, int count);

/// Cross-run aggregates over the successful outcomes.
struct SweepSummary {
  int total = 0;
  int failed = 0;
  RunningStats imm;             ///< maxmin fairness index per run
  RunningStats ieq;             ///< equality (Jain) index per run
  RunningStats throughputPps;   ///< U = sum r(f) * hops(f) per run
  RunningStats queueDrops;
  RunningStats wallSeconds;
};

SweepSummary summarize(const std::vector<SweepOutcome>& outcomes);

/// Full sweep report as JSON: one record per run (in input order) plus
/// the summary block. An ok run's record carries its RunMetrics as a
/// "metrics" object, keyed and ordered by analysis::forEachMetric.
/// Stable field order; no external dependencies.
void writeJson(std::ostream& os, const std::vector<SweepOutcome>& outcomes,
               const SweepSummary& summary);

}  // namespace maxmin::exp
