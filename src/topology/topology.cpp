#include "topology/topology.hpp"

#include <algorithm>
#include <cmath>

#include "topology/spatial_grid.hpp"

namespace maxmin::topo {

double distance(Point a, Point b) {
  return std::sqrt(distanceSquared(a, b));
}

double distanceSquared(Point a, Point b) {
  const double dx = a.x - b.x;
  const double dy = a.y - b.y;
  return dx * dx + dy * dy;
}

bool Topology::rowContains(std::span<const NodeId> row, NodeId b) {
  return std::binary_search(row.begin(), row.end(), b);
}

Topology Topology::fromPositions(std::vector<Point> positions,
                                 RadioRanges ranges) {
  MAXMIN_CHECK(ranges.txRange > 0.0);
  MAXMIN_CHECK_MSG(ranges.csRange >= ranges.txRange,
                   "carrier-sense range must cover the transmission range");
  Topology t;
  t.positions_ = std::move(positions);
  t.ranges_ = ranges;
  const int n = t.numNodes();
  const auto un = static_cast<std::size_t>(n);

  // Discover both relations through the spatial grid: each node examines
  // only the occupants of the 3x3 cell block around it (cell side =
  // csRange, so the block covers both ranges) instead of all n-1 other
  // nodes. Squared-distance compares keep construction sqrt-free, and
  // sorting each gathered row reproduces byte-for-byte the ascending
  // neighbor order of the old O(n^2) pair scan.
  const double txSq = ranges.txRange * ranges.txRange;
  const double csSq = ranges.csRange * ranges.csRange;
  const SpatialGrid grid{t.positions_, ranges.csRange};

  t.txOff_.assign(un + 1, 0);
  t.csOff_.assign(un + 1, 0);
  std::vector<NodeId> csRow;   // scratch, reused per node
  std::vector<NodeId> txRow;
  for (NodeId a = 0; a < n; ++a) {
    const Point pa = t.positions_[static_cast<std::size_t>(a)];
    csRow.clear();
    txRow.clear();
    grid.forEachCandidate(pa.x, pa.y, [&](NodeId b) {
      if (b == a) return;
      const double dSq =
          distanceSquared(pa, t.positions_[static_cast<std::size_t>(b)]);
      if (dSq > csSq) return;
      csRow.push_back(b);
      if (dSq <= txSq) txRow.push_back(b);
    });
    std::sort(csRow.begin(), csRow.end());
    std::sort(txRow.begin(), txRow.end());
    t.txOff_[static_cast<std::size_t>(a) + 1] =
        t.txOff_[static_cast<std::size_t>(a)] +
        static_cast<std::uint32_t>(txRow.size());
    t.csOff_[static_cast<std::size_t>(a) + 1] =
        t.csOff_[static_cast<std::size_t>(a)] +
        static_cast<std::uint32_t>(csRow.size());
    t.txList_.insert(t.txList_.end(), txRow.begin(), txRow.end());
    t.csList_.insert(t.csList_.end(), csRow.begin(), csRow.end());
  }

  // Two-hop memo slots; rows fill lazily on first query.
  t.twoHop_.resize(un);
  t.twoHopReady_.assign(un, 0);
  return t;
}

const std::vector<NodeId>& Topology::twoHopNeighborhood(NodeId id) const {
  const std::size_t i = checkId(id);
  if (!twoHopReady_[i]) {
    // Gather 1-hop and 2-hop candidates from the CSR rows, then
    // sort+unique: O(deg² log deg²) per node, no O(n) scratch.
    std::vector<NodeId> result;
    for (NodeId h1 : neighbors(id)) {
      result.push_back(h1);
      const auto row = neighbors(h1);
      result.insert(result.end(), row.begin(), row.end());
    }
    std::sort(result.begin(), result.end());
    result.erase(std::unique(result.begin(), result.end()), result.end());
    // Exclude the center itself (it appears as a neighbor's neighbor).
    const auto self = std::lower_bound(result.begin(), result.end(), id);
    if (self != result.end() && *self == id) result.erase(self);
    result.shrink_to_fit();
    twoHop_[i] = std::move(result);
    twoHopReady_[i] = 1;
  }
  return twoHop_[i];
}

std::size_t Topology::memoryFootprintBytes() const {
  std::size_t bytes = positions_.capacity() * sizeof(Point);
  bytes += (txOff_.capacity() + csOff_.capacity()) * sizeof(std::uint32_t);
  bytes += (txList_.capacity() + csList_.capacity()) * sizeof(NodeId);
  bytes += twoHopReady_.capacity() * sizeof(std::uint8_t);
  bytes += twoHop_.capacity() * sizeof(std::vector<NodeId>);
  for (const auto& row : twoHop_) bytes += row.capacity() * sizeof(NodeId);
  return bytes;
}

double Topology::distanceBetween(NodeId a, NodeId b) const {
  return distance(positions_.at(checkId(a)), positions_.at(checkId(b)));
}

}  // namespace maxmin::topo
