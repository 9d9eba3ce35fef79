#include "topology/routing.hpp"

#include <vector>

#include "util/check.hpp"

namespace maxmin::topo {

RoutingTree RoutingTree::shortestPaths(const Topology& topo, NodeId dest) {
  MAXMIN_CHECK(dest >= 0 && dest < topo.numNodes());
  RoutingTree tree;
  tree.dest_ = dest;
  tree.nextHop_.assign(static_cast<std::size_t>(topo.numNodes()), kNoNode);

  // BFS outward from the destination; the first (lowest-id, because
  // neighbor lists are ascending and the queue is FIFO) discoverer of a
  // node becomes its next hop toward the destination.
  std::vector<int> dist(static_cast<std::size_t>(topo.numNodes()), -1);
  dist[static_cast<std::size_t>(dest)] = 0;
  // Each node is enqueued at most once, so a reserved vector with a read
  // cursor is the FIFO.
  std::vector<NodeId> queue;
  queue.reserve(static_cast<std::size_t>(topo.numNodes()));
  queue.push_back(dest);
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const NodeId u = queue[head];
    for (NodeId v : topo.neighbors(u)) {
      auto vi = static_cast<std::size_t>(v);
      if (dist[vi] == -1) {
        dist[vi] = dist[static_cast<std::size_t>(u)] + 1;
        tree.nextHop_[vi] = u;
        queue.push_back(v);
      }
    }
  }
  return tree;
}

std::vector<NodeId> RoutingTree::pathFrom(NodeId from) const {
  if (!reaches(from)) return {};
  std::vector<NodeId> path{from};
  NodeId cur = from;
  while (cur != dest_) {
    cur = nextHop(cur);
    MAXMIN_CHECK(cur != kNoNode);
    path.push_back(cur);
    MAXMIN_CHECK_MSG(path.size() <= nextHop_.size(), "routing loop detected");
  }
  return path;
}

int RoutingTree::hopCount(NodeId from) const {
  if (!reaches(from)) return -1;
  return static_cast<int>(pathFrom(from).size()) - 1;
}

}  // namespace maxmin::topo
