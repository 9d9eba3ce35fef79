// The per-destination virtual networks of paper §5.2, indexed once.
//
// Every (node, dest) virtual node and (link, dest) virtual link any flow
// crosses gets a dense id, plus the CSR rows the condition checks walk.
// A Controller and a fluid::FluidNetwork each build one at construction
// (a FluidGmpHarness shares its network's); every Snapshot they emit
// points at it and is laid out by its ids, as is a fluid::FluidState.
#pragma once

#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "gmp/types.hpp"
#include "topology/contention.hpp"

namespace maxmin::gmp {

struct VirtualNetwork {
  /// CSR rows of dense ids, ascending within each row.
  struct Rows {
    std::vector<std::size_t> offset;  ///< rows + 1
    std::vector<std::size_t> items;

    [[nodiscard]] std::span<const std::size_t> row(std::size_t r) const {
      return {items.data() + offset[r], items.data() + offset[r + 1]};
    }
  };

  /// Flow i routes along `paths[i]` (nodes, source to destination
  /// inclusive); every hop must be a contention link.
  static std::shared_ptr<const VirtualNetwork> build(
      const topo::ContentionStructure& contention,
      const std::vector<net::FlowSpec>& flows,
      const std::vector<std::vector<topo::NodeId>>& paths);

  /// (node, dest) of each vnode, sorted; a destination is never a vnode.
  std::vector<std::pair<topo::NodeId, topo::NodeId>> vnodes;
  std::vector<VirtualLinkKey> vlinks;     ///< sorted
  std::vector<std::size_t> vlinkSender;   ///< vnode of each vlink's sender
  std::vector<int> vlinkReceiver;         ///< its receiver's, -1 = the dest
  std::vector<int> flowSource;            ///< vnode of each flow's source
  Rows vlinkFlows;     ///< vlink -> flows crossing it
  Rows vnodeUpstream;  ///< vnode -> vlinks into it
  Rows vnodeLocal;     ///< vnode -> flows sourced at it
  Rows linkVlinks;     ///< contention link -> its vlinks

  /// Dense id of a vnode or flow; -1 when absent.
  [[nodiscard]] int vnodeId(topo::NodeId node, topo::NodeId dest) const;
  [[nodiscard]] int flowIndex(net::FlowId id) const;

 private:
  std::vector<std::pair<net::FlowId, std::size_t>> flowById_;  ///< sorted
};

/// A flow and its normalized rate as one virtual link sees it.
using FlowMu = std::pair<net::FlowId, double>;

/// The vlink classification (paper §3.2) and primary-flow pick (§6.2)
/// of both snapshot producers. Sets `s.vlinks[v]`'s key, its type from
/// its end vnodes' saturation, its normRate to the largest of `mus` (0
/// when empty) and its primaryFlows to the ids whose mu beta-equals
/// that, in `mus` order.
void classifyVLink(Snapshot& s, std::size_t v, std::span<const FlowMu> mus,
                   const BetaCompare& cmp);

/// Normalized rate of contention link `li`: the largest of its vlinks'.
[[nodiscard]] double linkNormRate(const Snapshot& s, std::size_t li);

}  // namespace maxmin::gmp
