// The GMP decision engine: tests the four local conditions of §5.3
// against a period Snapshot and emits the rate-limit commands the paper's
// rate-adjustment machinery (§6.3) would deliver to flow sources.
//
// The engine is deliberately substrate-agnostic — it never touches the
// simulator. Both the packet-level controller (gmp/controller.hpp) and
// the fluid-model harness (fluid/) drive the same engine, which is what
// lets fast property tests exercise the exact production decision logic.
#pragma once

#include <algorithm>
#include <limits>
#include <vector>

#include "gmp/types.hpp"
#include "topology/contention.hpp"

namespace maxmin::gmp {

class Engine {
 public:
  Engine(topo::ContentionStructure contention, GmpParams params);

  const GmpParams& params() const { return params_; }

  /// Run one adjustment period against the measured snapshot. It must
  /// carry its virtual-network index, built over this engine's contention
  /// structure, and be laid out by it.
  [[nodiscard]] DecisionReport decide(const Snapshot& snapshot) const;

 private:
  /// One flow's requests this period, folded as the control packet folds
  /// them (§6.3): any reduction wins, and the smallest target per kind.
  struct Request {
    bool any = false;
    bool reduce = false;
    double reduceTarget = std::numeric_limits<double>::infinity();
    double increaseTarget = std::numeric_limits<double>::infinity();

    void add(bool isReduce, double target) {
      any = true;
      reduce = reduce || isReduce;
      double& kept = isReduce ? reduceTarget : increaseTarget;
      kept = std::min(kept, target);
    }
  };

  /// What the condition checks may act on, per id (1 = live): all but
  /// what a stale node or an impaired flow touches, so they never act on
  /// ghost measurements (decayImpairedFlows handles those flows).
  struct Live {
    std::vector<char> flows;
    std::vector<char> vlinks;
    std::vector<char> wlinks;
    std::vector<char> saturated;  ///< per vnode, stale ones cleared
  };

  [[nodiscard]] static Live liveParts(const Snapshot& s);
  void checkSourceAndBufferConditions(const Snapshot& s, const Live& live,
                                      std::vector<Request>& requests,
                                      DecisionReport& report) const;
  void checkBandwidthCondition(const Snapshot& s, const Live& live,
                               std::vector<Request>& requests,
                               DecisionReport& report) const;
  void resolveRequests(const Snapshot& s, const Live& live,
                       const std::vector<Request>& requests,
                       DecisionReport& report) const;
  void decayImpairedFlows(const Snapshot& s, DecisionReport& report) const;

  [[nodiscard]] double adjustBase(const FlowState& f) const;

  topo::ContentionStructure contention_;
  GmpParams params_;
  BetaCompare cmp_;
};

}  // namespace maxmin::gmp
