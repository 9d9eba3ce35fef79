// Packed adjacency relation over dense ids: one bit per ordered pair,
// stored as rows of uint64_t words so membership is a single bit test
// and row intersections are word-wise ANDs.
//
// ConflictGraph stores the link conflict relation this way, indexed by
// link, so clique enumeration intersects candidate sets word by word.
// The node relations live in Topology's CSR rows instead: they are
// sparse, and n^2 bits would dominate memory at large N.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "topology/node_id.hpp"
#include "util/check.hpp"

namespace maxmin::topo {

class AdjacencyMatrix {
 public:
  AdjacencyMatrix() = default;
  explicit AdjacencyMatrix(int nodes);

  [[nodiscard]] int numNodes() const { return nodes_; }
  /// uint64_t words per row (= ceil(numNodes / 64)).
  [[nodiscard]] std::size_t wordsPerRow() const { return words_; }

  /// Set the (a, b) bit. Construction-time only; not symmetric by itself.
  void set(NodeId a, NodeId b) {
    bits_[rowOffset(a) + wordOf(b)] |= maskOf(b);
  }

  /// O(1): true when the (a, b) bit is set.
  [[nodiscard]] bool test(NodeId a, NodeId b) const {
    return (bits_[rowOffset(a) + wordOf(b)] & maskOf(b)) != 0;
  }

  /// Raw word pointer for row `a` (wordsPerRow() words): the hot-path
  /// accessor for word-wise intersections with other bitsets.
  [[nodiscard]] const std::uint64_t* row(NodeId a) const {
    return bits_.data() + rowOffset(a);
  }

 private:
  [[nodiscard]] std::size_t rowOffset(NodeId a) const {
    MAXMIN_CHECK_MSG(a >= 0 && a < nodes_, "bad node id " << a);
    return static_cast<std::size_t>(a) * words_;
  }
  static std::size_t wordOf(NodeId b) {
    return static_cast<std::size_t>(b) / 64;
  }
  static std::uint64_t maskOf(NodeId b) {
    return std::uint64_t{1} << (static_cast<std::size_t>(b) % 64);
  }

  int nodes_ = 0;
  std::size_t words_ = 0;
  std::vector<std::uint64_t> bits_;
};

}  // namespace maxmin::topo
