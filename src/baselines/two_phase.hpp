// Reimplementation of the two-phase protocol (2PP) of
//   B. Li, "End-to-End Fair Bandwidth Allocation in Multi-hop Wireless
//   Ad Hoc Networks", ICDCS 2005,
// as characterized by the paper under reproduction (§1, §7.2): per-flow
// queueing; phase one guarantees every flow a conservative *basic fair
// share* derived from clique capacities; phase two distributes the
// remaining capacity to maximize aggregate throughput via a linear
// program, which biases the remainder heavily toward short (one-hop)
// flows.
//
// Phase two is solved greedily cheapest-flow-first (fewest clique
// traversals, i.e. shortest path). For the max-throughput LP over clique
// capacity constraints this greedy is the textbook optimal order: giving
// a unit of rate to a flow consumes `traversals` units of clique
// capacity, so throughput per capacity unit is maximized by ascending
// traversal count.
#pragma once

#include <map>
#include <vector>

#include "net/flow.hpp"
#include "topology/contention.hpp"
#include "topology/topology.hpp"

namespace maxmin::baselines {

struct TwoPhaseAllocation {
  std::map<net::FlowId, double> basicSharePps;  ///< phase-one guarantee
  std::map<net::FlowId, double> totalPps;       ///< basic + phase-two extra
};

class TwoPhaseAllocator {
 public:
  /// Flows are routed over shortest paths (net::routeFlows).
  /// `cliqueCapacityPps` is the serial packet capacity of any maximal
  /// contention clique. `basicShareConservatism` scales the phase-one
  /// guarantee below the plain equal split — [11]'s basic share is
  /// deliberately conservative ("can be far below the maxmin rate", §1),
  /// and the slack it leaves is what phase two then biases toward short
  /// flows.
  TwoPhaseAllocator(const topo::Topology& topo,
                    std::vector<net::FlowSpec> flows,
                    double cliqueCapacityPps,
                    double basicShareConservatism = 0.5);

  [[nodiscard]] TwoPhaseAllocation allocate() const;

 private:
  std::vector<net::FlowSpec> flows_;
  double capacity_;
  double conservatism_;
  /// Flow index i is flows_[i].
  topo::FlowIncidence incidence_;
};

}  // namespace maxmin::baselines
