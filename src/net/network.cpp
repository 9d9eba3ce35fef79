#include "net/network.hpp"

#include <algorithm>

#include "topology/contention.hpp"
#include "util/check.hpp"

namespace maxmin::net {

Network::Network(topo::Topology topology, NetworkConfig config,
                 std::vector<FlowSpec> flows)
    : topo_{std::move(topology)},
      config_{config},
      flows_{std::move(flows)},
      medium_{sim_, topo_} {
  validateFlows(flows_, topo_.numNodes());

  // Routing first: sources start generating as soon as flows are added.
  for (const FlowSpec& f : flows_) {
    destinations_.push_back(f.dst);
    flowIds_.push_back(f.id);
  }
  std::sort(destinations_.begin(), destinations_.end());
  destinations_.erase(std::unique(destinations_.begin(), destinations_.end()),
                      destinations_.end());
  std::sort(flowIds_.begin(), flowIds_.end());
  destSlots_.assign(static_cast<std::size_t>(topo_.numNodes()), -1);
  routes_.reserve(destinations_.size());
  for (const topo::NodeId dest : destinations_) {
    destSlots_[static_cast<std::size_t>(dest)] =
        static_cast<int>(routes_.size());
    routes_.push_back(topo::RoutingTree::shortestPaths(topo_, dest));
  }
  for (const FlowSpec& f : flows_) {
    MAXMIN_CHECK_MSG(routeTo(f.dst).reaches(f.src),
                     "flow " << f.id << " source cannot reach destination");
  }

  if (config_.impairments.enabled()) {
    impairments_.emplace(config_.impairments,
                         Rng{config_.seed}.stream("phys-impairment"));
    medium_.setImpairments(&*impairments_);
  }

  Rng root{config_.seed};
  stacks_.reserve(static_cast<std::size_t>(topo_.numNodes()));
  macs_.reserve(static_cast<std::size_t>(topo_.numNodes()));
  for (topo::NodeId n = 0; n < topo_.numNodes(); ++n) {
    stacks_.push_back(std::make_unique<NodeStack>(*this, n, root.fork()));
    macs_.push_back(std::make_unique<mac::Dcf>(sim_, medium_, n,
                                               *stacks_.back(), config_.mac,
                                               root.fork()));
    stacks_.back()->attachMac(macs_.back().get());
  }

  for (const FlowSpec& f : flows_) {
    stacks_[static_cast<std::size_t>(f.src)]->addLocalFlow(f);
    delivered_[f.id] = 0;
    latencySeconds_[f.id];
  }
}

Network::~Network() = default;

sim::FaultPlane& Network::enableFaults(const sim::FaultScript& script) {
  MAXMIN_CHECK_MSG(faultPlane_ == nullptr, "fault injection already enabled");
  faultPlane_ = std::make_unique<sim::FaultPlane>(
      sim_, topo_.numNodes(), script, Rng{config_.seed}.stream("faults"));
  faultPlane_->addListener(this);
  medium_.setFaultPlane(faultPlane_.get());
  faultPlane_->start();
  return *faultPlane_;
}

void Network::onNodeDown(std::int32_t node) {
  stack(node).setOperational(false);
}

void Network::onNodeUp(std::int32_t node) { stack(node).setOperational(true); }

int Network::flowSlot(FlowId id) const {
  const auto it = std::lower_bound(flowIds_.begin(), flowIds_.end(), id);
  if (it == flowIds_.end() || *it != id) return -1;
  return static_cast<int>(it - flowIds_.begin());
}

void Network::recordDelivery(const Packet& packet, TimePoint at) {
  ++delivered_.at(packet.flow);
  latencySeconds_.at(packet.flow).add((at - packet.created).asSeconds());
}

const RunningStats& Network::latencyStats(FlowId id) const {
  static const RunningStats kEmpty;
  const auto it = latencySeconds_.find(id);
  return it == latencySeconds_.end() ? kEmpty : it->second;
}

const FlowSpec& Network::flow(FlowId id) const {
  for (const FlowSpec& f : flows_) {
    if (f.id == id) return f;
  }
  MAXMIN_CHECK_MSG(false, "unknown flow " << id);
  throw InvariantViolation("unreachable");
}

NodeStack& Network::stack(topo::NodeId node) {
  return *stacks_.at(static_cast<std::size_t>(node));
}

mac::Dcf& Network::macOf(topo::NodeId node) {
  return *macs_.at(static_cast<std::size_t>(node));
}

const topo::RoutingTree& Network::routeTo(topo::NodeId dest) const {
  const int slot = dest >= 0 && dest < topo_.numNodes() ? destSlot(dest) : -1;
  MAXMIN_CHECK_MSG(slot >= 0, "no route computed to " << dest);
  return routes_[static_cast<std::size_t>(slot)];
}

std::vector<topo::NodeId> Network::pathOf(FlowId id) const {
  const FlowSpec& f = flow(id);
  return routeTo(f.dst).pathFrom(f.src);
}

int Network::hopCount(FlowId id) const {
  return static_cast<int>(pathOf(id).size()) - 1;
}

std::vector<topo::Link> Network::activeLinks() const {
  std::vector<std::vector<topo::NodeId>> paths;
  for (const FlowSpec& f : flows_) paths.push_back(pathOf(f.id));
  return topo::linksOnPaths(paths);
}

void Network::setRateLimit(FlowId id, std::optional<double> pps) {
  stack(flow(id).src).setRateLimit(id, pps);
}

std::optional<double> Network::rateLimit(FlowId id) const {
  const FlowSpec& f = flow(id);
  return stacks_.at(static_cast<std::size_t>(f.src))->rateLimit(id);
}

void Network::setSourceMu(FlowId id, double mu) {
  stack(flow(id).src).setSourceMu(id, mu);
}

std::int64_t Network::delivered(FlowId id) const { return delivered_.at(id); }

Network::DeliverySnapshot Network::snapshotDeliveries() const {
  return DeliverySnapshot{sim_.now(),
                          {delivered_.begin(), delivered_.end()}};
}

std::map<FlowId, double> Network::ratesBetween(const DeliverySnapshot& from,
                                               const DeliverySnapshot& to) {
  const double seconds = (to.at - from.at).asSeconds();
  MAXMIN_CHECK(seconds > 0.0);
  std::map<FlowId, double> rates;
  for (const auto& [id, count] : to.counts) {
    const auto it = from.counts.find(id);
    const std::int64_t before = it == from.counts.end() ? 0 : it->second;
    rates[id] = static_cast<double>(count - before) / seconds;
  }
  return rates;
}

std::int64_t Network::totalQueueDrops() const {
  std::int64_t total = 0;
  for (const auto& s : stacks_) total += s->dropsTail();
  return total;
}

std::int64_t Network::totalDeadNeighborDrops() const {
  std::int64_t total = 0;
  for (const auto& s : stacks_) total += s->dropsDeadNextHop();
  return total;
}

std::int64_t Network::totalCrashDrops() const {
  std::int64_t total = 0;
  for (const auto& s : stacks_) total += s->dropsAtCrash();
  return total;
}

NodePeriodMeasurement Network::closeMeasurementWindow(topo::NodeId node) {
  return stack(node).closeMeasurementWindow();
}

Duration Network::takeLinkOccupancy(topo::NodeId from, topo::NodeId to) {
  return macOf(from).takeOccupancy(to);
}

}  // namespace maxmin::net
