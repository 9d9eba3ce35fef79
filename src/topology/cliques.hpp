// Maximal ("proper") contention cliques of the link conflict graph.
//
// The paper's bandwidth-saturated condition is evaluated per proper
// contention clique: a set of mutually contending links whose combined
// airtime is bounded by the channel. We enumerate all maximal cliques with
// Bron-Kerbosch (with pivoting) over the conflict graph's packed rows, so
// every set intersection and pivot probe is a word-wise AND + popcount.
// The popcount is an inline SWAR count (cliques.cpp), not std::popcount:
// the build assumes no popcnt instruction (baseline x86-64, no -m flag),
// so std::popcount is an out-of-line libgcc call per word, about 40 % of
// a dense enumeration. The ctest no_libgcc_popcount keeps that call out.
#pragma once

#include <compare>
#include <ostream>
#include <vector>

#include "topology/conflict_graph.hpp"

namespace maxmin::topo {

/// System-wide unique clique identifier, per the paper: the smallest node
/// id appearing in the clique plus a sequence number assigned by that node.
struct CliqueId {
  NodeId owner = kNoNode;
  int sequence = 0;

  friend auto operator<=>(const CliqueId&, const CliqueId&) = default;
};

inline std::ostream& operator<<(std::ostream& os, const CliqueId& id) {
  return os << "clique[" << id.owner << '.' << id.sequence << ']';
}

struct Clique {
  CliqueId id;
  std::vector<int> linkIndices;  ///< ascending indices into ConflictGraph::links()
};

/// All maximal cliques, deterministically ordered (by owner node, then
/// sequence). Every link is covered by at least one clique (a lone
/// conflict-free link forms a singleton clique).
std::vector<Clique> enumerateMaximalCliques(const ConflictGraph& graph);

/// Indices (into the result of enumerateMaximalCliques) of the cliques
/// containing each link; outer index = link index.
std::vector<std::vector<int>> cliquesByLink(const ConflictGraph& graph,
                                            const std::vector<Clique>& cliques);

}  // namespace maxmin::topo
