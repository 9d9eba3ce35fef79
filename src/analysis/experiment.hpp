// One-call experiment runner: build the network for a protocol, run it,
// measure steady-state flow rates, and summarize — the loop behind every
// table reproduction in bench/.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "analysis/convergence.hpp"
#include "analysis/metrics.hpp"
#include "gmp/types.hpp"
#include "hybrid/config.hpp"
#include "mac/dcf.hpp"
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

/// One run's counters from every layer, summed over its nodes by
/// runScenario. Each count lives on the object that increments it (the
/// kernel, a node's Medium/Dcf/NodeStack, the GMP controller, the hybrid
/// engine); this is the per-run copy. Counting never feeds back into the
/// simulation, so a fixed config gives equal RunMetrics on any thread.
struct RunMetrics {
  // Kernel bookkeeping, not behaviour: a change to how the kernel or its
  // timers queue events moves these while every rate and trace stays put.
  std::uint64_t eventsScheduled = 0;  ///< keys queued
  std::uint64_t eventsExecuted = 0;   ///< callbacks run
  std::uint64_t eventsCancelled = 0;  ///< pending events cancelled
  std::uint64_t maxPendingEvents = 0;

  std::uint64_t framesDelivered = 0;  ///< receptions decoded
  std::uint64_t framesCorrupted = 0;  ///< receptions lost to collisions
  std::int64_t framesImpaired = 0;     ///< lost to PER / Gilbert-Elliott
  std::uint64_t framesSuppressed = 0;  ///< silenced by down nodes / cut links

  mac::DcfCounters mac;

  std::int64_t crashDrops = 0;         ///< queue contents lost at crashes
  std::int64_t deadNeighborDrops = 0;  ///< dropped after next-hop declared dead
  std::int64_t backpressureStalls = 0;
  std::uint64_t queueHighWater = 0;  ///< fullest queue of any node

  int gmpPeriods = 0;
  gmp::DecisionCounts decisions;
  std::int64_t commands = 0;               ///< rate-limit commands issued
  std::int64_t staleMeasurementsUsed = 0;  ///< controller TTL substitutions
  std::int64_t limitsRestored = 0;         ///< post-recovery limit restores
  std::int64_t flowsQuarantined = 0;       ///< flow-periods on a cut path

  // Hybrid runs only (all zero when hybrid modes are off).
  int ffPeriods = 0;          ///< fluid fast-forward periods iterated
  bool ffConverged = false;   ///< fixed point reached within tolerance
  std::int64_t seededPackets = 0;   ///< backlog packets injected at t=0
  int relinearizations = 0;   ///< background re-couplings (one per period)
  int backgroundFlows = 0;    ///< flows advanced by the fluid solver
  std::int64_t phantomBursts = 0;   ///< background NAV reservations emitted

  bool operator==(const RunMetrics&) const = default;
};

/// Calls f(name, value) for each RunMetrics field, value as std::int64_t.
/// The one name list: `maxmin-sim --metrics` and the sweep JSON both
/// print through it, in this order.
template <typename F>
void forEachMetric(const RunMetrics& m, F&& f) {
  const auto emit = [&f](const char* name, auto v) {
    f(name, static_cast<std::int64_t>(v));
  };
  emit("events.scheduled", m.eventsScheduled);
  emit("events.executed", m.eventsExecuted);
  emit("events.cancelled", m.eventsCancelled);
  emit("events.pending_max", m.maxPendingEvents);
  emit("phys.frames_delivered", m.framesDelivered);
  emit("phys.frames_corrupted", m.framesCorrupted);
  emit("phys.frames_impaired", m.framesImpaired);
  emit("phys.frames_suppressed", m.framesSuppressed);
  emit("mac.rts_sent", m.mac.rtsSent);
  emit("mac.data_sent", m.mac.dataSent);
  emit("mac.broadcasts_sent", m.mac.broadcastsSent);
  emit("mac.tx_successes", m.mac.txSuccesses);
  emit("mac.cts_timeouts", m.mac.ctsTimeouts);
  emit("mac.ack_timeouts", m.mac.ackTimeouts);
  emit("mac.retry_limit_drops", m.mac.macDrops);
  emit("mac.backoff_draws", m.mac.backoffDraws);
  emit("mac.backoff_cw_sum", m.mac.backoffCwSum);
  emit("mac.backoff_freezes", m.mac.backoffFreezes);
  emit("mac.cw_escalations", m.mac.cwEscalations);
  emit("mac.eifs_deferrals", m.mac.eifsDeferrals);
  emit("net.crash_drops", m.crashDrops);
  emit("net.dead_next_hop_drops", m.deadNeighborDrops);
  emit("net.backpressure_stalls", m.backpressureStalls);
  emit("net.queue_high_water", m.queueHighWater);
  emit("gmp.periods", m.gmpPeriods);
  emit("gmp.source_buffer_violations", m.decisions.sourceBufferViolations);
  emit("gmp.bandwidth_violations", m.decisions.bandwidthViolations);
  emit("gmp.reduce_requests", m.decisions.reduceRequests);
  emit("gmp.halve_requests", m.decisions.halveRequests);
  emit("gmp.increase_requests", m.decisions.increaseRequests);
  emit("gmp.double_requests", m.decisions.doubleRequests);
  emit("gmp.additive_increases", m.decisions.additiveIncreases);
  emit("gmp.limits_removed", m.decisions.limitsRemoved);
  emit("gmp.stale_decays", m.decisions.staleDecays);
  emit("gmp.commands", m.commands);
  emit("gmp.stale_measurements_used", m.staleMeasurementsUsed);
  emit("gmp.limits_restored", m.limitsRestored);
  emit("gmp.quarantined_flow_periods", m.flowsQuarantined);
  emit("hybrid.ff_periods", m.ffPeriods);
  emit("hybrid.ff_converged", m.ffConverged);
  emit("hybrid.seeded_packets", m.seededPackets);
  emit("hybrid.relinearizations", m.relinearizations);
  emit("hybrid.background_flows", m.backgroundFlows);
  emit("hybrid.phantom_bursts", m.phantomBursts);
}

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

  /// Every layer's counters, summed over the run's nodes.
  RunMetrics metrics;

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
