// Assembles a complete simulated network: topology, medium, one 802.11
// MAC and one network stack per node, static routing, and the end-to-end
// flows. This is the substrate all three protocols (GMP / 2PP / 802.11)
// run on; they differ only in NetworkConfig and in the controller driving
// source rate limits.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "mac/dcf.hpp"
#include "net/config.hpp"
#include "net/flow.hpp"
#include "net/node_stack.hpp"
#include "phys/impairment.hpp"
#include "phys/medium.hpp"
#include "sim/fault_plane.hpp"
#include "sim/simulator.hpp"
#include "topology/link.hpp"
#include "util/hash.hpp"
#include "util/stats.hpp"
#include "topology/routing.hpp"
#include "topology/topology.hpp"

namespace maxmin::net {

class Network final : public NetContext, public sim::FaultListener {
 public:
  Network(topo::Topology topology, NetworkConfig config,
          std::vector<FlowSpec> flows);
  ~Network() override;

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  // --- NetContext ----------------------------------------------------------
  sim::Simulator& simulator() override { return sim_; }
  const NetworkConfig& config() const override { return config_; }
  topo::NodeId nextHop(topo::NodeId from, topo::NodeId dest) override;
  void recordDelivery(const Packet& packet, TimePoint at) override;

  // --- structure -----------------------------------------------------------
  const topo::Topology& topology() const { return topo_; }
  const std::vector<FlowSpec>& flows() const { return flows_; }
  const FlowSpec& flow(FlowId id) const;
  NodeStack& stack(topo::NodeId node);
  mac::Dcf& macOf(topo::NodeId node);
  phys::Medium& medium() { return medium_; }
  const topo::RoutingTree& routeTo(topo::NodeId dest) const;

  /// Medium frame counters (see phys::Medium).
  [[nodiscard]] std::uint64_t framesDelivered() const {
    return medium_.framesDelivered();
  }
  [[nodiscard]] std::uint64_t framesCorrupted() const {
    return medium_.framesCorrupted();
  }
  [[nodiscard]] std::uint64_t framesImpaired() const {
    return medium_.framesImpaired();
  }
  [[nodiscard]] std::uint64_t framesSuppressed() const {
    return medium_.framesSuppressed();
  }

  /// The flow's full routing path, source to destination inclusive.
  std::vector<topo::NodeId> pathOf(FlowId id) const;
  int hopCount(FlowId id) const;

  /// All directed wireless links used by at least one flow, sorted.
  std::vector<topo::Link> activeLinks() const;

  // --- execution -------------------------------------------------------------
  /// Advance the whole network by `d`.
  void run(Duration d) { sim_.runUntil(sim_.now() + d); }
  TimePoint now() const { return sim_.now(); }

  // --- fault injection --------------------------------------------------------
  /// Enable fault injection from `script`. Call at most once, before
  /// run(). The network subscribes to crash/recover transitions (to
  /// flush the crashed stack's volatile state) and gates the medium.
  /// Stochastic churn draws from the dedicated "faults" RNG stream, so a
  /// scripted schedule leaves all other randomness untouched.
  sim::FaultPlane& enableFaults(const sim::FaultScript& script);
  sim::FaultPlane* faultPlane() { return faultPlane_.get(); }
  const sim::FaultPlane* faultPlane() const { return faultPlane_.get(); }
  phys::ChannelImpairments* impairments() {
    return impairments_ ? &*impairments_ : nullptr;
  }

  // --- sim::FaultListener -----------------------------------------------------
  void onNodeDown(std::int32_t node) override;
  void onNodeUp(std::int32_t node) override;

  // --- rate control (the GMP knob) -------------------------------------------
  void setRateLimit(FlowId id, std::optional<double> pps);
  std::optional<double> rateLimit(FlowId id) const;
  void setSourceMu(FlowId id, double mu);

  // --- end-to-end statistics ---------------------------------------------------
  std::int64_t delivered(FlowId id) const;

  /// End-to-end latency statistics (generation to sink) per flow.
  const RunningStats& latencyStats(FlowId id) const;

  struct DeliverySnapshot {
    TimePoint at;
    /// Sorted report type: snapshots are diffed and printed in flow order.
    // maxmin-lint: allow(hot-map) report type, copied once per snapshot
    std::map<FlowId, std::int64_t> counts;
  };
  DeliverySnapshot snapshotDeliveries() const;

  /// Per-flow delivered packet rate (pkts/s) between two snapshots.
  /// Sorted so tables/CSVs iterate in flow order.
  // maxmin-lint: allow(hot-map) report type, built once per interval
  static std::map<FlowId, double> ratesBetween(const DeliverySnapshot& from,
                                               const DeliverySnapshot& to);

  /// Total packets dropped at network queues (802.11 overwrite / 2PP tail
  /// drops; zero for the lossless per-destination scheme).
  std::int64_t totalQueueDrops() const;

  /// Packets dropped because a next hop was declared dead (fault runs).
  std::int64_t totalDeadNeighborDrops() const;
  /// Packets lost from queues at node crashes (fault runs).
  std::int64_t totalCrashDrops() const;

  // --- measurement plumbing for the GMP driver ---------------------------------
  NodePeriodMeasurement closeMeasurementWindow(topo::NodeId node);
  Duration takeLinkOccupancy(topo::NodeId from, topo::NodeId to);

 private:
  sim::Simulator sim_;
  topo::Topology topo_;
  NetworkConfig config_;
  std::vector<FlowSpec> flows_;
  phys::Medium medium_;
  std::optional<phys::ChannelImpairments> impairments_;
  std::unique_ptr<sim::FaultPlane> faultPlane_;
  std::vector<std::unique_ptr<NodeStack>> stacks_;
  std::vector<std::unique_ptr<mac::Dcf>> macs_;
  // Hashed: nextHop() runs per forwarded packet, recordDelivery() per
  // delivered packet. Report forms (DeliverySnapshot, ratesBetween) sort.
  std::unordered_map<topo::NodeId, topo::RoutingTree, IdHash> routes_;
  std::unordered_map<FlowId, std::int64_t, IdHash> delivered_;
  std::unordered_map<FlowId, RunningStats, IdHash> latencySeconds_;
};

}  // namespace maxmin::net
