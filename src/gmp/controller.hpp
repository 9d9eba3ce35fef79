// Drives the GMP engine over a live packet-level network: the
// measurement/adjustment period loop of §6.
//
// Each period boundary it (a) closes every node's measurement window,
// (b) assembles the Snapshot exactly as the nodes' own measurements and
// the 2-hop dissemination protocol would, (c) runs the four-condition
// engine, and (d) applies the resulting rate-limit commands at the flow
// sources and re-stamps each source's normalized rate for piggybacking.
//
// Control signalling is delivered out-of-band (see DESIGN.md §2,
// substitution 3): the paper's control traffic is a handful of tiny
// packets per node per 4-second period, negligible against saturated
// data traffic.
#pragma once

#include <cstddef>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "gmp/engine.hpp"
#include "gmp/virtual_network.hpp"
#include "net/network.hpp"
#include "obs/trace.hpp"
#include "sim/fault_plane.hpp"
#include "sim/timer.hpp"

namespace maxmin::gmp {

class Controller {
 public:
  Controller(net::Network& net, GmpParams params);

  /// Begin the period loop (first adjustment after one full period).
  void start();
  void stop() {
    timer_.stop();
    assembleTimer_.cancel();
    for (SkewClose& c : skewCloses_) c.timer.cancel();
  }

  [[nodiscard]] int periodsRun() const { return periods_; }
  const DecisionReport& lastReport() const { return lastReport_; }
  /// Every period's DecisionReport counts summed, and its commands counted.
  const DecisionCounts& decisionTotals() const { return decisionTotals_; }
  [[nodiscard]] std::int64_t commandsIssued() const { return commandsIssued_; }
  const Snapshot& lastSnapshot() const { return lastSnapshot_; }
  const topo::ContentionStructure& contention() const { return contention_; }

  /// Attach a structured trace sink (not owned; may be nullptr to
  /// detach). Period records — and with TraceLevel::kEvent the
  /// per-decision events — are appended at every period boundary.
  void setTraceSink(obs::TraceSink* sink) { trace_ = sink; }

  /// Total condition violations seen in each period, oldest first. A
  /// converged run trends to (and hovers near) zero.
  const std::vector<int>& violationHistory() const {
    return violationHistory_;
  }

  /// Per-period measured flow rates (pkts/s), oldest first — the raw
  /// material for convergence analysis (analysis/convergence.hpp).
  const std::vector<std::map<net::FlowId, double>>& rateHistory() const {
    return rateHistory_;
  }

  /// Assemble a snapshot from the current measurement windows without
  /// adjusting anything (also used by tests).
  Snapshot takeSnapshot();

  /// Import externally-synthesized per-node measurements (the hybrid
  /// fast-forward injection, DESIGN.md §16): seeds the staleness-bridging
  /// cache as if period 0 had measured them, so a node whose first real
  /// window comes up empty bridges from the fluid estimate instead of
  /// going stale. Must be called before any period has run.
  void warmStart(const std::vector<net::NodePeriodMeasurement>& perNode);

  /// Invoked at the end of every adjustment period with the snapshot the
  /// engine just acted on and the period index (the hybrid engine's
  /// re-linearization hook; pass nullptr to detach).
  void setPeriodHook(std::function<void(const Snapshot&, int)> hook) {
    periodHook_ = std::move(hook);
  }

  // --- robustness diagnostics (fault runs; all zero otherwise) -------------
  /// Periods in which a node's cached measurement stood in for a missing
  /// or empty one (within the staleness TTL).
  [[nodiscard]] std::int64_t staleMeasurementsUsed() const { return staleMeasurementsUsed_; }
  /// Rate limits restored to their pre-fault value after a path recovered.
  [[nodiscard]] std::int64_t limitsRestored() const { return limitsRestored_; }
  /// Periods whose measurement closes were staggered by clock skew.
  [[nodiscard]] std::int64_t skewedPeriods() const { return skewedPeriods_; }
  /// Nodes whose last good measurement is currently cached (bridgeable).
  /// Entries are pruned once they age past the staleness TTL.
  [[nodiscard]] std::size_t cachedMeasurements() const;
  /// Periods during which the alive graph was partitioned or some flow
  /// path was severed by a cut link.
  [[nodiscard]] std::int64_t partitionedPeriods() const { return partitionedPeriods_; }
  /// Flow-periods spent quarantined (path crossing a cut link).
  [[nodiscard]] std::int64_t flowsQuarantined() const { return flowsQuarantined_; }
  /// Per-period component id of each flow's source, oldest first —
  /// feeds analysis::analyzeDisruption's per-partition fairness.
  const std::vector<std::map<net::FlowId, std::int32_t>>& partitionHistory()
      const {
    return partitionHistory_;
  }

 private:
  void tick();
  /// Stagger each node's window close by its clock skew, then assemble.
  void beginSkewedClose(const sim::FaultPlane& faults);
  /// After the last skewed close: assemble the snapshot and decide.
  void assembleSkewedClose();
  /// One node's skewed window close.
  struct SkewClose {
    SkewClose(Controller& c, topo::NodeId n)
        : owner{&c},
          node{n},
          timer{c.net_.simulator(), sim::bind<&SkewClose::fire>(this)} {}
    void fire();

    Controller* owner;
    topo::NodeId node;
    sim::Timer timer;
  };
  /// Build the Snapshot from per-node measurements (indexed by NodeId,
  /// each with its own period length), substituting cached values for
  /// nodes without a usable window and marking expired ones stale.
  Snapshot assembleSnapshot(std::vector<net::NodePeriodMeasurement>& meas);
  /// Everything tick() does after the snapshot exists: decide, apply,
  /// restore recovered flows, record histories.
  void finishPeriod(Snapshot snapshot);
  /// Append this period's JSONL record (and, at kEvent level, one record
  /// per applied command) to the attached trace sink.
  void emitPeriodTrace();

  net::Network& net_;
  GmpParams params_;
  topo::ContentionStructure contention_;
  Engine engine_;
  sim::PeriodicTimer timer_;
  sim::Timer assembleTimer_;
  std::deque<SkewClose> skewCloses_;  ///< by node; timers must not move
  obs::TraceSink* trace_ = nullptr;
  std::function<void(const Snapshot&, int)> periodHook_;

  /// Each flow's route, in flow order (trace records carry its hop count
  /// so replay can recompute the paper's hop-weighted indices).
  std::vector<std::vector<topo::NodeId>> paths_;
  /// The flows' virtual networks; every snapshot shares it.
  std::shared_ptr<const VirtualNetwork> vnet_;

  Snapshot lastSnapshot_;
  DecisionReport lastReport_;
  DecisionCounts decisionTotals_;
  std::int64_t commandsIssued_ = 0;
  std::vector<int> violationHistory_;
  std::vector<std::map<net::FlowId, double>> rateHistory_;
  int periods_ = 0;

  // --- graceful-degradation state (untouched in fault-free runs) -----------
  // Nodes are dense ids 0..numNodes, so the per-node stores are plain
  // vectors indexed by NodeId (the per-period map was all rb-tree walks).
  /// Measurements collected so far in a skew-staggered period.
  std::vector<net::NodePeriodMeasurement> pendingMeas_;
  /// Last measurement taken while the node had a usable window, and the
  /// period index it was taken in (-1 = none cached).
  std::vector<net::NodePeriodMeasurement> lastGoodMeas_;
  std::vector<int> lastGoodPeriod_;
  /// Flows impaired in the previous period, and the limit each carried
  /// just before its path went stale (nullopt = was unlimited).
  std::set<net::FlowId> impairedPrev_;
  std::map<net::FlowId, std::optional<double>> preImpairmentLimit_;
  std::vector<std::map<net::FlowId, std::int32_t>> partitionHistory_;
  std::int64_t staleMeasurementsUsed_ = 0;
  std::int64_t limitsRestored_ = 0;
  std::int64_t skewedPeriods_ = 0;
  std::int64_t partitionedPeriods_ = 0;
  std::int64_t flowsQuarantined_ = 0;
};

}  // namespace maxmin::gmp
