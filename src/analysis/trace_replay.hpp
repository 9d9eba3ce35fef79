// Offline replay of a structured trace (obs::TraceSink JSONL): rebuild
// the per-period flow rates a run recorded and recompute the paper's
// fairness trajectories (I_mm, I_eq, U) from them — without re-running
// the simulation. The CLI's --trace output and this replay closing the
// loop is also what pins the trace schema down in tests.
#pragma once

#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "analysis/metrics.hpp"
#include "net/flow.hpp"

namespace maxmin::analysis {

/// One period record reduced to what the fairness indices need.
struct ReplayPeriod {
  int period = 0;
  std::int64_t timeUs = 0;
  std::map<net::FlowId, double> ratesPps;
  std::map<net::FlowId, int> hops;
  FairnessSummary summary;  ///< recomputed from ratesPps/hops
};

struct TraceReplay {
  std::vector<ReplayPeriod> periods;

  /// Convergence trajectory: I_mm per period, oldest first.
  [[nodiscard]] std::vector<double> immTrajectory() const;
  /// Convergence trajectory: I_eq per period, oldest first.
  [[nodiscard]] std::vector<double> ieqTrajectory() const;
};

/// Parse a JSONL trace stream, keeping records with "record":"period"
/// (event-level records are skipped). Malformed lines throw
/// util::InvariantViolation with the offending line number: bad JSON,
/// nesting beyond the writer's depth, a missing field, a "period",
/// "timeUs", "id" or "hops" that is not an in-range integer ("hops" >= 1),
/// or a "ratePps" that is negative or not finite.
TraceReplay traceReplay(std::istream& in);

/// Convenience: open and replay a trace file (throws if unreadable).
TraceReplay traceReplayFile(const std::string& path);

}  // namespace maxmin::analysis
