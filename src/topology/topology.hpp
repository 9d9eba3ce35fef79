// Static radio topology: node positions plus the derived neighbor
// (decodable) and carrier-sense (sensable/interfering) relations.
//
// The paper assumes a static multihop network (e.g. a mesh with external
// power); all graphs here are computed once at construction, via a
// grid-bucketed SpatialGrid so construction is O(nodes + edges) — no
// O(n^2) pair scan, no sqrt (range predicates compare squared
// distances; distance()/distanceBetween() remain for reporting).
//
// Both relations are held once, as CSR: one flat NodeId array plus
// per-node offsets, ascending within each row. Membership is a binary
// search of the row, so memory stays O(nodes + edges) at every size; the
// frame hot path (phys::Medium) walks the rows (DESIGN.md §14).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "topology/node_id.hpp"
#include "util/check.hpp"

namespace maxmin::topo {

struct Point {
  double x = 0.0;
  double y = 0.0;
};

double distance(Point a, Point b);

/// Squared Euclidean distance — exact for the integer-valued coordinates
/// the canned scenarios use, and what all range predicates compare
/// against (range² on the other side), keeping construction sqrt-free.
double distanceSquared(Point a, Point b);

/// Radio model: frames decode within `txRange`; energy is sensed (and
/// corrupts concurrent receptions) within `csRange`. Defaults follow the
/// paper's setup (250 m transmission range) with the conventional 2.2x
/// carrier-sense/interference radius used by ns-2-era 802.11 studies.
struct RadioRanges {
  double txRange = 250.0;
  double csRange = 550.0;
};

class Topology {
 public:
  /// Build from explicit node positions. Node ids are indices into the
  /// position vector.
  static Topology fromPositions(std::vector<Point> positions,
                                RadioRanges ranges = {});

  [[nodiscard]] int numNodes() const { return static_cast<int>(positions_.size()); }
  [[nodiscard]] Point position(NodeId id) const { return positions_.at(checkId(id)); }
  const RadioRanges& ranges() const { return ranges_; }

  [[nodiscard]] double distanceBetween(NodeId a, NodeId b) const;

  /// True when a and b can exchange decodable frames (within txRange).
  /// O(log deg): a binary search of a's CSR row.
  [[nodiscard]] bool areNeighbors(NodeId a, NodeId b) const {
    static_cast<void>(checkId(b));
    return rowContains(neighbors(a), b);
  }

  /// True when a transmission by `a` is sensed at `b` (within csRange).
  /// Symmetric; a node does not sense itself. Same cost as areNeighbors.
  [[nodiscard]] bool inCsRange(NodeId a, NodeId b) const {
    static_cast<void>(checkId(b));
    return rowContains(csNeighbors(a), b);
  }

  /// One-hop neighbors (decodable), ascending id order: a view into the
  /// CSR row, valid for the topology's lifetime.
  [[nodiscard]] std::span<const NodeId> neighbors(NodeId id) const {
    const std::size_t i = checkId(id);
    return {txList_.data() + txOff_[i], txList_.data() + txOff_[i + 1]};
  }

  /// Carrier-sense neighbors (energy heard), ascending id order; a
  /// superset of neighbors(). View into the CSR row.
  [[nodiscard]] std::span<const NodeId> csNeighbors(NodeId id) const {
    const std::size_t i = checkId(id);
    return {csList_.data() + csOff_[i], csList_.data() + csOff_[i + 1]};
  }

  /// Nodes exactly one or two hops away in the neighbor graph, ascending,
  /// excluding `id` itself. This is the scope over which the paper
  /// disseminates link state. Memoized lazily per node from the CSR rows
  /// (O(deg²) gather + sort on first touch, free afterwards): GMP queries
  /// it every dissemination period, so repeated calls must not recompute
  /// or allocate — and eager construction would cost O(Σ deg²) memory up
  /// front even for runs that never disseminate. Instances are not
  /// shared across threads (sweep jobs copy their scenario), so the lazy
  /// fill needs no synchronization.
  [[nodiscard]] const std::vector<NodeId>& twoHopNeighborhood(NodeId id) const;

  /// Total undirected decodable links.
  [[nodiscard]] std::int64_t numEdges() const {
    return static_cast<std::int64_t>(txList_.size()) / 2;
  }

  /// Bytes held by the topology's containers (positions, CSR arrays,
  /// memoized two-hop rows). The bench artifact BENCH_topology.json
  /// records this to prove construction memory stays O(nodes + edges).
  [[nodiscard]] std::size_t memoryFootprintBytes() const;

 private:
  [[nodiscard]] std::size_t checkId(NodeId id) const {
    MAXMIN_CHECK_MSG(id >= 0 && id < numNodes(), "bad node id " << id);
    return static_cast<std::size_t>(id);
  }

  [[nodiscard]] static bool rowContains(std::span<const NodeId> row, NodeId b);

  std::vector<Point> positions_;
  RadioRanges ranges_;

  // CSR rows for both relations: offsets index into the flat lists,
  // ascending ids within each row.
  std::vector<std::uint32_t> txOff_, csOff_;
  std::vector<NodeId> txList_, csList_;

  // Lazy two-hop memo (see twoHopNeighborhood). Mutable: filling the
  // cache is not observable behavior.
  mutable std::vector<std::vector<NodeId>> twoHop_;
  mutable std::vector<std::uint8_t> twoHopReady_;
};

}  // namespace maxmin::topo
