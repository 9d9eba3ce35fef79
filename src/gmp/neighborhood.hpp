// Distributed clique discovery (paper §6.2 Step 2 / §6.3 preamble).
//
// "After deployment, we assume each node i discovers the wireless
// topology in its two-hop neighborhood ... From the topology, it
// pre-computes the set of cliques it belongs to."
//
// This module implements exactly that per-node computation: a node's
// local view is its two-hop neighborhood plus the (active) links with
// both endpoints inside it; from the conflict graph restricted to the
// view it enumerates the maximal cliques containing at least one of its
// own adjacent links, and assigns the paper's clique identifiers
// (smallest node id + sequence).
//
// The paper's implicit locality assumption — every link contending with
// one of mine is visible within my two-hop neighborhood — is NOT a
// theorem under a 550 m carrier-sense / 250 m transmission model (two
// radio hops reach at most 500 m). localViewIsExact() checks it for a
// given topology, and the tests verify it holds for every evaluation
// scenario in the paper while quantifying how often it fails on sparse
// random meshes.
//
// maxmin-lint: allow-file(test-only-header) no run needs it (the
// controller takes cliques from the global enumeration), but its tests are
// the evidence that per-node two-hop discovery matches that enumeration
// on the paper's scenarios.
#pragma once

#include <vector>

#include "topology/cliques.hpp"
#include "topology/conflict_graph.hpp"
#include "topology/link.hpp"

namespace maxmin::gmp {

struct LocalView {
  topo::NodeId self = topo::kNoNode;
  /// self + its two-hop neighborhood, ascending.
  std::vector<topo::NodeId> members;
  /// Active links with both endpoints in `members`, sorted.
  std::vector<topo::Link> knownLinks;
  /// Maximal cliques (over knownLinks' conflict graph) that contain at
  /// least one link adjacent to self. Ids follow the paper's scheme.
  std::vector<topo::Clique> cliques;

  /// Member links of clique `index`, resolved to Link values.
  [[nodiscard]] std::vector<topo::Link> cliqueLinks(int index) const;
};

/// Build node `self`'s local view over the network's active links.
LocalView buildLocalView(const topo::Topology& topo, topo::NodeId self,
                         const std::vector<topo::Link>& activeLinks);

/// True when `view` agrees with the global enumeration: every global
/// maximal clique containing a link adjacent to `view.self` appears in
/// the view with the same member links.
bool localViewIsExact(const topo::Topology& topo,
                      const std::vector<topo::Link>& activeLinks,
                      const LocalView& view);

}  // namespace maxmin::gmp
