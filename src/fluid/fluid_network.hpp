// Deterministic fluid approximation of the wireless substrate.
//
// Replaces the packet-level 802.11 pipeline with a steady-state flow
// computation per period:
//   * every flow offers min(desired, rate limit);
//   * clique airtime constraints are enforced by repeatedly scaling the
//     flows crossing the most-overloaded clique (a work-conserving,
//     demand-proportional share, close to what DCF converges to over a
//     4 s period);
//   * buffer-based backpressure is emulated structurally: a constrained
//     flow saturates every queue from its source up to (and including)
//     the sender of its bottleneck link, exactly the saturated-buffer
//     chain of paper §3.
//
// The point is speed and determinism: the same gmp::Engine that drives
// the packet simulator can be exercised over hundreds of random
// topologies in milliseconds, and its fixed point compared against the
// centralized maxmin reference. The hybrid engine (DESIGN.md §16) leans
// on two extensions: per-link *external occupancy* terms fold
// packet-measured foreground airtime into the clique constraints, and
// `extraLinks` lets the contention structure span links the fluid flows
// never cross (the foreground's links), so a mixed clique constrains the
// background correctly.
//
// The solver core is allocation-free after the first evaluate(): clique
// and flow incidence is the shared CSR topo::FlowIncidence and the
// iteration workspace is reused across calls, so an N=5k fixed point
// costs no per-iteration heap traffic (see bench/bench_fluid.cpp).
//
// The network builds its gmp::VirtualNetwork (the per-destination vnodes
// of paper §5.2) once, at construction. A FluidState is laid out by the
// same indices as a gmp::Snapshot: flows in flows() order, vnodes by
// VirtualNetwork id, links by contention link index. FluidGmpHarness
// points its snapshots at that VirtualNetwork and copies the state
// straight across.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "gmp/virtual_network.hpp"
#include "net/flow.hpp"
#include "topology/contention.hpp"
#include "topology/topology.hpp"

namespace maxmin::fluid {

struct FluidState {
  /// Realized end-to-end rate per flow (pkts/s), by flow index.
  std::vector<double> rates;
  /// Per vnode id: 1 on a flow's backpressure chain (the layout of
  /// gmp::Snapshot::saturated).
  std::vector<char> saturated;
  /// Airtime occupancy per contention link index (fraction of clique
  /// capacity, external occupancy included).
  std::vector<double> occupancy;
};

/// Diagnostics for the most recent evaluate().
struct SolveStats {
  int iterations = 0;
  bool converged = false;
  /// Worst clique utilization (including external occupancy) at exit,
  /// recomputed from scratch (not the incrementally-updated loads).
  double maxUtilization = 0.0;
};

class FluidNetwork {
 public:
  /// `extraLinks` join the contention structure without carrying fluid
  /// flows; they exist so external (packet-measured) occupancy can be
  /// charged against the cliques the fluid flows share with them.
  FluidNetwork(const topo::Topology& topo, std::vector<net::FlowSpec> flows,
               double cliqueCapacityPps,
               std::vector<topo::Link> extraLinks = {});

  /// Reuse a contention structure built elsewhere instead of enumerating
  /// the cliques again. Its links must be exactly the links the flows'
  /// routes cross.
  FluidNetwork(const topo::Topology& topo, std::vector<net::FlowSpec> flows,
               double cliqueCapacityPps,
               topo::ContentionStructure contention);

  /// Steady state under the current rate limits and external occupancy.
  [[nodiscard]] FluidState evaluate() const;

  void setRateLimit(net::FlowId id, std::optional<double> pps);
  [[nodiscard]] std::optional<double> rateLimit(net::FlowId id) const;

  /// Airtime fraction consumed on `l` by traffic outside the fluid model
  /// (the hybrid engine's packet-measured foreground). Charged against
  /// every clique containing `l`; `l` must be a contention link.
  void setExternalOccupancy(topo::Link l, double fraction);

  [[nodiscard]] const SolveStats& lastSolveStats() const { return stats_; }

  const std::vector<net::FlowSpec>& flows() const { return flows_; }
  const std::vector<std::vector<topo::NodeId>>& paths() const { return paths_; }
  const topo::ContentionStructure& contention() const { return contention_; }
  const topo::FlowIncidence& incidence() const { return incidence_; }
  const std::shared_ptr<const gmp::VirtualNetwork>& virtualNetwork() const {
    return vnet_;
  }
  [[nodiscard]] double cliqueCapacity() const { return capacity_; }

 private:
  /// Incidence, virtual network, rate limits and external-occupancy
  /// arrays over contention_.
  void init();
  [[nodiscard]] std::size_t indexOf(net::FlowId id) const;

  std::vector<net::FlowSpec> flows_;
  std::vector<std::vector<topo::NodeId>> paths_;
  std::vector<std::optional<double>> limits_;  ///< by flow index
  topo::ContentionStructure contention_;
  topo::FlowIncidence incidence_;
  std::shared_ptr<const gmp::VirtualNetwork> vnet_;
  double capacity_;

  /// External occupancy per contention link index and its per-clique sum.
  std::vector<double> extLink_;
  std::vector<double> extClique_;

  /// Iteration workspace, reused across evaluate() calls.
  struct Workspace {
    std::vector<double> offered;
    std::vector<double> rate;
    std::vector<double> load;          ///< per clique, pps
    std::vector<std::int32_t> bottleneck;  ///< per flow, clique idx or -1
  };
  mutable Workspace ws_;
  mutable SolveStats stats_;
};

}  // namespace maxmin::fluid
