// The GMP decision engine: tests the four local conditions of §5.3
// against a period Snapshot and emits the rate-limit commands the paper's
// rate-adjustment machinery (§6.3) would deliver to flow sources.
//
// The engine is deliberately substrate-agnostic — it never touches the
// simulator. Both the packet-level controller (gmp/controller.hpp) and
// the fluid-model harness (fluid/) drive the same engine, which is what
// lets fast property tests exercise the exact production decision logic.
#pragma once

#include <map>
#include <vector>

#include "gmp/types.hpp"
#include "topology/contention.hpp"

namespace maxmin::gmp {

class Engine {
 public:
  Engine(topo::ContentionStructure contention, GmpParams params);

  const GmpParams& params() const { return params_; }

  /// Run one adjustment period against the measured snapshot.
  [[nodiscard]] DecisionReport decide(const Snapshot& snapshot) const;

 private:
  struct Request {
    bool reduce = false;
    double targetPps = 0.0;
  };
  using RequestMap = std::map<net::FlowId, std::vector<Request>>;

  void checkSourceAndBufferConditions(const Snapshot& s, RequestMap& requests,
                                      DecisionReport& report) const;
  void checkBandwidthCondition(const Snapshot& s, RequestMap& requests,
                               DecisionReport& report) const;
  void resolveRequests(const Snapshot& s, const RequestMap& requests,
                       DecisionReport& report) const;

  /// Strip everything touched by stale nodes / impaired flows so the
  /// condition checks never act on ghost measurements; the dropped flows
  /// are handled by decayImpairedFlows instead.
  [[nodiscard]] Snapshot filterDegraded(const Snapshot& s) const;
  void decayImpairedFlows(const Snapshot& s, DecisionReport& report) const;

  [[nodiscard]] double adjustBase(const FlowState& f) const;

  topo::ContentionStructure contention_;
  GmpParams params_;
  BetaCompare cmp_;
};

}  // namespace maxmin::gmp
