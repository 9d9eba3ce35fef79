// Centralized weighted maxmin reference solver.
//
// Models the wireless network the same way the paper reasons about it:
// each maximal contention clique is a serial resource of capacity C
// (pkts/s); a flow consumes one capacity unit of clique c per link of its
// path inside c. Weighted water-filling raises all flows' normalized
// rates together, freezing flows as their bottleneck cliques fill or
// their desirable rates are reached — the classical construction whose
// fixed point is exactly the global maxmin objective of §2.1.
//
// GMP never sees this solver; it exists to validate that the distributed
// protocol converges to (near) the true maxmin allocation, and to power
// property tests.
#pragma once

#include <map>
#include <vector>

#include "net/flow.hpp"
#include "topology/contention.hpp"
#include "topology/topology.hpp"

namespace maxmin::analysis {

struct CliqueModel {
  std::vector<net::FlowSpec> flows;
  topo::ContentionStructure contention;
  /// Flow index i is flows[i]: how many links of its path lie in each clique.
  topo::FlowIncidence incidence;
  /// Serial packet capacity of every maximal clique (pkts/s).
  double capacity = 0.0;
};

/// Build the model from a topology and flow set (shortest-path routes),
/// assigning every maximal clique the same capacity.
CliqueModel buildCliqueModel(const topo::Topology& topo,
                             const std::vector<net::FlowSpec>& flows,
                             double cliqueCapacityPps);

/// Weighted maxmin rates (pkts/s) by water-filling.
std::map<net::FlowId, double> solveWeightedMaxmin(const CliqueModel& model);

/// Certificate check used by property tests: rates are feasible, and
/// every flow is either at its desirable rate or has a bottleneck — a
/// tight clique on its path where no crossing flow has a smaller
/// normalized rate... i.e. the flow's normalized rate is within
/// `tolerance` of the largest in that clique. This is the classical
/// bottleneck characterization of maxmin optimality.
bool satisfiesBottleneckCondition(const CliqueModel& model,
                                  const std::map<net::FlowId, double>& rates,
                                  double tolerance = 1e-6);

/// Feasibility only: all clique loads within capacity (+ tolerance) and
/// rates within [0, desired].
bool isFeasible(const CliqueModel& model,
                const std::map<net::FlowId, double>& rates,
                double tolerance = 1e-6);

}  // namespace maxmin::analysis
