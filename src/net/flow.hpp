// End-to-end flow specification.
#pragma once

#include <string>
#include <vector>

#include "net/packet.hpp"
#include "topology/topology.hpp"
#include "util/units.hpp"

namespace maxmin::net {

struct FlowSpec {
  FlowId id = kNoFlow;
  topo::NodeId src = topo::kNoNode;
  topo::NodeId dst = topo::kNoNode;
  double weight = 1.0;
  /// Desirable rate d(f): the source never generates faster than this.
  PacketRate desiredRate = PacketRate::perSecond(800.0);
  std::string name;  ///< label for tables ("f1", "<0,3>", ...)
};

/// Validate a flow set: unique ids, positive weights, src != dst.
void validateFlows(const std::vector<FlowSpec>& flows, int numNodes);

/// Validate `flows` and route each over shortest paths, building one
/// RoutingTree per distinct destination. Element i is flows[i]'s route
/// (nodes, both ends inclusive); an unreachable destination throws.
std::vector<std::vector<topo::NodeId>> routeFlows(
    const topo::Topology& topo, const std::vector<FlowSpec>& flows);

}  // namespace maxmin::net
