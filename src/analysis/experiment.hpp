// One-call experiment runner: build the network for a protocol, run it,
// measure steady-state flow rates, and summarize — the loop behind every
// table reproduction in bench/.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "analysis/convergence.hpp"
#include "analysis/metrics.hpp"
#include "gmp/types.hpp"
#include "hybrid/config.hpp"
#include "net/config.hpp"
#include "obs/trace.hpp"
#include "scenarios/scenarios.hpp"
#include "sim/fault_plane.hpp"

namespace maxmin::analysis {

enum class Protocol {
  kDcf80211,  ///< plain 802.11 DCF, shared drop-overwrite buffer
  kTwoPhase,  ///< 2PP [11]: per-flow queues + offline two-phase rates
  kGmp,       ///< the paper's protocol
};

const char* protocolName(Protocol p);

struct RunConfig {
  Protocol protocol = Protocol::kGmp;
  /// Total simulated time. The paper runs 400 s sessions.
  Duration duration = Duration::seconds(400.0);
  /// Rates are measured over [warmup, duration].
  Duration warmup = Duration::seconds(200.0);
  std::uint64_t seed = 1;
  gmp::GmpParams gmpParams;
  /// Applied before the protocol-specific queueing configuration.
  /// Channel impairments (PER / Gilbert-Elliott) ride in
  /// netBase.impairments; node/link faults in `faults` below.
  net::NetworkConfig netBase;
  /// Fault schedule injected before the run starts; empty = no faults.
  sim::FaultScript faults;
  /// Structured trace sink (not owned; nullptr = no tracing). GMP runs
  /// attach it to the controller, which appends one JSONL record per
  /// period (plus per-decision events at TraceLevel::kEvent).
  obs::TraceSink* trace = nullptr;
  /// Hybrid fluid/packet coupling (DESIGN.md §16); GMP only. With both
  /// modes off this config is inert and runs are byte-identical to
  /// builds that predate it.
  hybrid::HybridConfig hybrid;
};

struct FlowOutcome {
  net::FlowId id = net::kNoFlow;
  std::string name;
  double ratePps = 0.0;
  double weight = 1.0;
  int hops = 0;
  /// True when the flow was advanced by the fluid solver (hybrid
  /// background mode) rather than packet-simulated.
  bool background = false;
};

struct RunResult {
  Protocol protocol = Protocol::kGmp;
  std::vector<FlowOutcome> flows;
  FairnessSummary summary;             ///< over raw rates
  FairnessSummary normalizedSummary;   ///< over r(f)/w(f)
  std::int64_t queueDrops = 0;
  /// GMP only: total condition violations per period.
  std::vector<int> violationHistory;
  /// GMP only: per-period measured flow rates (for convergence and
  /// disruption analysis).
  RateHistory rateHistory;

  // --- fault-run accounting (all zero in fault-free runs) ------------------
  std::int64_t crashDrops = 0;         ///< queue contents lost at crashes
  std::int64_t deadNeighborDrops = 0;  ///< dropped after next-hop declared dead
  std::int64_t framesImpaired = 0;     ///< lost to PER / Gilbert-Elliott
  std::int64_t framesSuppressed = 0;   ///< silenced by down nodes / cut links
  std::int64_t staleMeasurementsUsed = 0;  ///< controller TTL substitutions
  std::int64_t limitsRestored = 0;         ///< post-recovery limit restores

  // --- hybrid-run accounting (all zero when hybrid modes are off) ----------
  int ffPeriods = 0;          ///< fluid fast-forward periods iterated
  bool ffConverged = false;   ///< fixed point reached within tolerance
  std::int64_t seededPackets = 0;   ///< backlog packets injected at t=0
  int relinearizations = 0;   ///< background re-couplings (one per period)
  int backgroundFlows = 0;    ///< flows advanced by the fluid solver
  std::int64_t phantomBursts = 0;   ///< background NAV reservations emitted

  // --- kernel event counts over the whole run ------------------------------
  // Bookkeeping, not behaviour: a change to how the kernel or its timers
  // queue events moves these while every rate and trace stays put.
  std::uint64_t eventsScheduled = 0;  ///< keys queued
  std::uint64_t eventsExecuted = 0;   ///< callbacks run
  std::uint64_t eventsCancelled = 0;  ///< pending events cancelled

  [[nodiscard]] double rateOf(net::FlowId id) const;
};

/// Every rule `config` breaks for `scenario`, one message each; empty
/// when the run is well-formed. Covers the cross-field rules: warmup in
/// [0, duration); hybrid modes only under GMP; background mode needs a
/// foreground list naming scenario flows and leaving at least one flow in
/// the background, and excludes faults and channel impairments; a finite
/// positive fast-forward tolerance; loss probabilities in [0, 1].
std::vector<std::string> validate(const RunConfig& config,
                                  const scenarios::Scenario& scenario);

/// Build, run and summarize one scenario. Throws std::invalid_argument
/// with the first validate() message if `config` is not well-formed.
RunResult runScenario(const scenarios::Scenario& scenario,
                      const RunConfig& config);

}  // namespace maxmin::analysis
