#include "topology/adjacency.hpp"

namespace maxmin::topo {

AdjacencyMatrix::AdjacencyMatrix(int nodes)
    : nodes_{nodes},
      words_{(static_cast<std::size_t>(nodes) + 63) / 64},
      bits_(static_cast<std::size_t>(nodes) * words_, 0) {
  MAXMIN_CHECK(nodes >= 0);
}

}  // namespace maxmin::topo
