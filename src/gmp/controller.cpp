#include "gmp/controller.hpp"

#include <algorithm>
#include <set>
#include <utility>

#include "gmp/partition.hpp"
#include "obs/json.hpp"
#include "obs/profile.hpp"
#include "util/check.hpp"

namespace maxmin::gmp {

Controller::Controller(net::Network& net, GmpParams params)
    : net_{net},
      params_{params},
      contention_{topo::ContentionStructure::build(net.topology(),
                                                   net.activeLinks())},
      engine_{contention_, params},
      timer_{net.simulator(), sim::bind<&Controller::tick>(this)},
      assembleTimer_{net.simulator(),
                     sim::bind<&Controller::assembleSkewedClose>(this)} {
  MAXMIN_CHECK_MSG(net.config().discipline ==
                       net::QueueDiscipline::kPerDestination,
                   "GMP requires per-destination queueing (paper §5.1)");
  MAXMIN_CHECK_MSG(net.config().congestionAvoidance,
                   "GMP requires the congestion-avoidance backpressure");

  for (const net::FlowSpec& f : net_.flows()) {
    paths_.push_back(net_.pathOf(f.id));
  }
  vnet_ = VirtualNetwork::build(contention_, net_.flows(), paths_);

  const auto n = static_cast<std::size_t>(net_.topology().numNodes());
  lastGoodMeas_.resize(n);
  lastGoodPeriod_.assign(n, -1);
}

void Controller::start() {
  timer_.start(params_.period);
}

std::size_t Controller::cachedMeasurements() const {
  return static_cast<std::size_t>(
      std::count_if(lastGoodPeriod_.begin(), lastGoodPeriod_.end(),
                    [](int p) { return p >= 0; }));
}

void Controller::warmStart(
    const std::vector<net::NodePeriodMeasurement>& perNode) {
  MAXMIN_CHECK_MSG(periods_ == 0, "warmStart after periods already ran");
  MAXMIN_CHECK(perNode.size() == lastGoodMeas_.size());
  for (std::size_t ni = 0; ni < perNode.size(); ++ni) {
    if (perNode[ni].periodSeconds <= 0.0) continue;
    lastGoodMeas_[ni] = perNode[ni];
    lastGoodPeriod_[ni] = 0;
  }
}

Snapshot Controller::takeSnapshot() {
  const int n = net_.topology().numNodes();
  std::vector<net::NodePeriodMeasurement> meas;
  meas.reserve(static_cast<std::size_t>(n));
  for (topo::NodeId node = 0; node < n; ++node) {
    meas.push_back(net_.closeMeasurementWindow(node));
  }
  return assembleSnapshot(meas);
}

Snapshot Controller::assembleSnapshot(
    std::vector<net::NodePeriodMeasurement>& meas) {
  MAXMIN_PROFILE_SCOPE("gmp.assemble_snapshot");
  const VirtualNetwork& vn = *vnet_;
  Snapshot snap;
  snap.vnet = vnet_;
  const int numNodes = net_.topology().numNodes();
  MAXMIN_CHECK(static_cast<int>(meas.size()) == numNodes);
  const auto measOf = [&](topo::NodeId n) -> net::NodePeriodMeasurement& {
    return meas[static_cast<std::size_t>(n)];
  };

  // Staleness pass: a node that is down at the period boundary — or that
  // closed an empty window because it recovered exactly on the boundary —
  // produced no usable measurements this period. Substitute its last
  // good measurement while that is within the TTL; past the TTL declare
  // the node stale so the engine stops acting on anything derived from
  // it. Runs with or without a fault plane: a zero-length window is a
  // missing measurement however it came about.
  const sim::FaultPlane* faults = net_.faultPlane();
  std::set<topo::NodeId> bridgedNodes;
  for (topo::NodeId n = 0; n < numNodes; ++n) {
    const auto ni = static_cast<std::size_t>(n);
    const bool up = faults == nullptr || faults->nodeUp(n);
    if (up && measOf(n).periodSeconds > 0.0) {
      lastGoodMeas_[ni] = measOf(n);
      lastGoodPeriod_[ni] = periods_;
      continue;
    }
    if (lastGoodPeriod_[ni] >= 0 &&
        periods_ - lastGoodPeriod_[ni] <= params_.measurementTtlPeriods) {
      measOf(n) = lastGoodMeas_[ni];
      bridgedNodes.insert(n);
      ++staleMeasurementsUsed_;
      if (trace_ != nullptr && trace_->wantsEvents()) {
        obs::JsonWriter w;
        w.beginObject();
        w.key("record").value("stale_substitution");
        w.key("period").value(periods_);
        w.key("node").value(n);
        w.key("measuredPeriod").value(lastGoodPeriod_[ni]);
        w.endObject();
        trace_->writeRecord(w.str());
      }
    } else {
      snap.staleNodes.insert(n);
    }
  }
  // Prune cached measurements that have aged past the TTL: they can
  // never be substituted again, so holding them only leaks memory across
  // long churn runs (and would mis-report cachedMeasurements()).
  for (std::size_t ni = 0; ni < lastGoodPeriod_.size(); ++ni) {
    if (lastGoodPeriod_[ni] >= 0 &&
        periods_ - lastGoodPeriod_[ni] > params_.measurementTtlPeriods) {
      lastGoodPeriod_[ni] = -1;
      lastGoodMeas_[ni] = net::NodePeriodMeasurement{};
    }
  }
  // A flow whose path crosses a stale node is computing on ghosts. So is
  // a flow *sourced* at a bridged node: its "measured" rate this period
  // is the cached localFlowRate from before the outage, reported as if
  // it were live. Both go to the engine as impaired.
  for (std::size_t i = 0; i < paths_.size(); ++i) {
    const net::FlowSpec& f = net_.flows()[i];
    const bool crossesStale = std::ranges::any_of(
        paths_[i], [&](topo::NodeId n) { return snap.staleNodes.contains(n); });
    if (crossesStale || bridgedNodes.contains(f.src)) {
      snap.impairedFlows.insert(f.id);
    }
  }

  // Partition pass (fault runs only). Quarantine keys on *cut links*
  // alone: a severed path is structurally gone, while a crashed node on
  // an intact path is a measurement outage that staleness bridging
  // already rides out without impairing the flows across it.
  if (faults != nullptr) {
    const ReachabilitySummary reach =
        computeReachability(net_.topology(), faults);
    snap.partitions = reach.components;
    for (std::size_t fi = 0; fi < paths_.size(); ++fi) {
      const net::FlowSpec& f = net_.flows()[fi];
      const auto& path = paths_[fi];
      bool severed = false;
      for (std::size_t i = 0; i + 1 < path.size() && !severed; ++i) {
        severed = faults->linkCut(path[i], path[i + 1]);
      }
      if (severed) {
        snap.quarantinedFlows.insert(f.id);
        snap.impairedFlows.insert(f.id);
      }
      snap.flowPartition[f.id] =
          reach.component[static_cast<std::size_t>(f.src)];
    }
    if (reach.partitioned() || !snap.quarantinedFlows.empty()) {
      ++partitionedPeriods_;
      flowsQuarantined_ +=
          static_cast<std::int64_t>(snap.quarantinedFlows.size());
      if (trace_ != nullptr && trace_->wantsEvents()) {
        obs::JsonWriter w;
        w.beginObject();
        w.key("record").value("partition");
        w.key("period").value(periods_);
        w.key("partitions").value(snap.partitions);
        w.key("quarantinedFlows").beginArray();
        for (const net::FlowId id : snap.quarantinedFlows) {
          w.value(static_cast<std::int64_t>(id));
        }
        w.endArray();
        w.endObject();
        trace_->writeRecord(w.str());
      }
    }
  }

  // Each node closes its own window, so under clock skew (or after a
  // mid-period recovery) period lengths differ per node. Nodes left
  // stale above may carry an empty (zero-length) window; callers must
  // guard the division.
  const auto periodSecondsOf = [&](topo::NodeId n) {
    return measOf(n).periodSeconds;
  };

  // Flow states, measured at the sources.
  for (const net::FlowSpec& f : net_.flows()) {
    FlowState fs;
    fs.id = f.id;
    fs.src = f.src;
    fs.dst = f.dst;
    fs.weight = f.weight;
    fs.desiredPps = f.desiredRate.asPerSecond();
    const auto& local = measOf(f.src).localFlowRate;
    if (const auto it = local.find(f.id); it != local.end()) {
      fs.ratePps = it->second;
    }
    fs.limitPps = net_.rateLimit(f.id);
    snap.flows.push_back(fs);
  }

  // Virtual-node saturation from Omega (paper §6.2: threshold 25%).
  snap.saturated.assign(vn.vnodes.size(), 0);
  for (std::size_t v = 0; v < vn.vnodes.size(); ++v) {
    const auto [node, dest] = vn.vnodes[v];
    const auto& omega = measOf(node).queueFullFraction;
    if (const auto it = omega.find(dest); it != omega.end()) {
      snap.saturated[v] = it->second > params_.omegaThreshold;
    }
  }

  // Virtual links. The paper measures each flow's mu in the first half
  // of a period and piggybacks it on that period's remaining packets, so
  // the mu a link reads is same-epoch with the flow's current rate. We
  // reproduce that by taking the set of flows observed on the link from
  // the piggyback samples and their mu values from this period's source
  // measurements. If the link moved no traffic at all this period, fall
  // back to every flow routed across it. Either way the candidates go
  // in flow-id order.
  const BetaCompare cmp{params_.beta};
  snap.vlinks.resize(vn.vlinks.size());
  std::vector<FlowMu> mus;
  for (std::size_t v = 0; v < vn.vlinks.size(); ++v) {
    const VirtualLinkKey& key = vn.vlinks[v];
    mus.clear();
    const auto& down = measOf(key.from).downstream;
    const double fromSeconds = periodSecondsOf(key.from);
    if (const auto it = down.find(key.dest);
        it != down.end() && !it->second.flowMu.empty() && fromSeconds > 0.0) {
      snap.vlinks[v].ratePps = it->second.packets / fromSeconds;
      for (const auto& [id, staleMu] : it->second.flowMu) {
        const int i = vn.flowIndex(id);
        mus.emplace_back(
            id, i >= 0 ? snap.flows[static_cast<std::size_t>(i)].mu() : 0.0);
      }
    } else {
      for (const std::size_t i : vn.vlinkFlows.row(v)) {
        mus.emplace_back(snap.flows[i].id, snap.flows[i].mu());
      }
      std::sort(mus.begin(), mus.end());
    }
    classifyVLink(snap, v, mus, cmp);
  }

  // Wireless links: occupancy from the MAC, normalized rate as the max
  // over the link's virtual links. A sender with an empty window has no
  // airtime to report; its occupancy is zero, not a division by zero.
  for (std::size_t li = 0; li < contention_.links.size(); ++li) {
    WLinkState wl;
    wl.link = contention_.links[li];
    const double airtime =
        net_.takeLinkOccupancy(wl.link.from, wl.link.to).asSeconds();
    const double seconds = periodSecondsOf(wl.link.from);
    wl.occupancy = seconds > 0.0 ? airtime / seconds : 0.0;
    wl.normRate = linkNormRate(snap, li);
    snap.wlinks.push_back(wl);
  }

  return snap;
}

void Controller::tick() {
  MAXMIN_PROFILE_SCOPE("gmp.tick");
  if (const sim::FaultPlane* faults = net_.faultPlane();
      faults != nullptr && faults->maxClockSkew() > Duration::zero()) {
    beginSkewedClose(*faults);
    return;
  }
  finishPeriod(takeSnapshot());
}

void Controller::beginSkewedClose(const sim::FaultPlane& faults) {
  // Nodes do not share a clock: each closes its window at the nominal
  // boundary plus its own skew, and the adjustment decision waits until
  // the last close. The skews must fit well inside one period.
  const Duration maxSkew = faults.maxClockSkew();
  MAXMIN_CHECK_MSG(maxSkew + maxSkew < params_.period,
                   "clock skew " << maxSkew << " too large for period "
                                 << params_.period);
  ++skewedPeriods_;

  const int n = net_.topology().numNodes();
  pendingMeas_.assign(static_cast<std::size_t>(n),
                      net::NodePeriodMeasurement{});
  while (static_cast<int>(skewCloses_.size()) < n) {
    skewCloses_.emplace_back(*this,
                             static_cast<topo::NodeId>(skewCloses_.size()));
  }
  for (topo::NodeId node = 0; node < n; ++node) {
    const Duration skew = faults.clockSkew(node);
    if (skew <= Duration::zero()) {
      pendingMeas_[static_cast<std::size_t>(node)] =
          net_.closeMeasurementWindow(node);
    } else {
      skewCloses_[static_cast<std::size_t>(node)].timer.arm(skew);
    }
  }
  assembleTimer_.arm(maxSkew + Duration::millis(1));
}

void Controller::SkewClose::fire() {
  owner->pendingMeas_[static_cast<std::size_t>(node)] =
      owner->net_.closeMeasurementWindow(node);
}

void Controller::assembleSkewedClose() {
  Snapshot snap = assembleSnapshot(pendingMeas_);
  pendingMeas_.clear();
  finishPeriod(std::move(snap));
}

void Controller::finishPeriod(Snapshot snapshot) {
  lastSnapshot_ = std::move(snapshot);
  const Snapshot& snap = lastSnapshot_;
  lastReport_ = engine_.decide(snap);
  decisionTotals_ += lastReport_;
  commandsIssued_ += static_cast<std::int64_t>(lastReport_.commands.size());

  // Remember each flow's limit as it was just before its path went
  // stale, so recovery can restore the old operating point directly
  // instead of re-climbing from the decayed floor at ~10 pps/period.
  for (net::FlowId id : snap.impairedFlows) {
    if (impairedPrev_.contains(id)) continue;
    if (const int i = vnet_->flowIndex(id); i >= 0) {
      preImpairmentLimit_[id] =
          snap.flows[static_cast<std::size_t>(i)].limitPps;
    }
  }

  for (const Command& cmd : lastReport_.commands) {
    switch (cmd.kind) {
      case Command::Kind::kSetLimit:
        net_.setRateLimit(cmd.flow, cmd.limitPps);
        break;
      case Command::Kind::kRemoveLimit:
        net_.setRateLimit(cmd.flow, std::nullopt);
        break;
    }
    if (trace_ != nullptr && trace_->wantsEvents()) {
      obs::JsonWriter w;
      w.beginObject();
      w.key("record").value("command");
      w.key("period").value(periods_);
      w.key("flow").value(static_cast<std::int64_t>(cmd.flow));
      w.key("kind").value(cmd.kind == Command::Kind::kSetLimit
                              ? "set_limit"
                              : "remove_limit");
      if (cmd.kind == Command::Kind::kSetLimit) {
        w.key("limitPps").value(cmd.limitPps);
      }
      w.endObject();
      trace_->writeRecord(w.str());
    }
  }

  // Flows whose paths recovered this period: put back the pre-fault
  // limit (engine commands for them, if any, acted on ghost rates).
  for (const net::FlowId id : impairedPrev_) {
    if (snap.impairedFlows.contains(id)) continue;
    if (const auto it = preImpairmentLimit_.find(id);
        it != preImpairmentLimit_.end()) {
      net_.setRateLimit(id, it->second);
      ++limitsRestored_;
      if (trace_ != nullptr && trace_->wantsEvents()) {
        obs::JsonWriter w;
        w.beginObject();
        w.key("record").value("limit_restored");
        w.key("period").value(periods_);
        w.key("flow").value(static_cast<std::int64_t>(id));
        if (it->second) w.key("limitPps").value(*it->second);
        w.endObject();
        trace_->writeRecord(w.str());
      }
      preImpairmentLimit_.erase(it);
    }
  }
  impairedPrev_ = snap.impairedFlows;

  // Re-stamp each source's normalized rate for the coming period's
  // piggybacking (paper §6.2, "Normalized Rate").
  for (const FlowState& fs : snap.flows) {
    net_.setSourceMu(fs.id, fs.mu());
  }

  violationHistory_.push_back(lastReport_.sourceBufferViolations +
                              lastReport_.bandwidthViolations);
  partitionHistory_.push_back(snap.flowPartition);
  std::map<net::FlowId, double> rates;
  for (const FlowState& fs : snap.flows) rates[fs.id] = fs.ratePps;
  rateHistory_.push_back(std::move(rates));
  emitPeriodTrace();
  if (periodHook_) periodHook_(snap, periods_);
  ++periods_;
}

void Controller::emitPeriodTrace() {
  if (trace_ == nullptr) return;
  const Snapshot& snap = lastSnapshot_;
  obs::JsonWriter w;
  w.beginObject();
  w.key("record").value("period");
  w.key("period").value(periods_);
  w.key("timeUs").value(net_.simulator().now().asMicros());
  w.key("flows").beginArray();
  for (std::size_t i = 0; i < snap.flows.size(); ++i) {
    const FlowState& fs = snap.flows[i];
    w.beginObject();
    w.key("id").value(static_cast<std::int64_t>(fs.id));
    w.key("src").value(fs.src);
    w.key("dst").value(fs.dst);
    w.key("weight").value(fs.weight);
    w.key("hops").value(static_cast<int>(paths_[i].size()) - 1);
    w.key("desiredPps").value(fs.desiredPps);
    w.key("ratePps").value(fs.ratePps);
    w.key("mu").value(fs.mu());
    if (fs.limitPps) w.key("limitPps").value(*fs.limitPps);
    w.endObject();
  }
  w.endArray();
  w.key("vlinks").beginArray();
  for (const VLinkState& vl : snap.vlinks) {
    w.beginObject();
    w.key("from").value(vl.key.from);
    w.key("to").value(vl.key.to);
    w.key("dest").value(vl.key.dest);
    w.key("type").value(linkTypeName(vl.type));
    w.key("ratePps").value(vl.ratePps);
    w.key("normRate").value(vl.normRate);
    w.key("primaryFlows").beginArray();
    for (const net::FlowId id : vl.primaryFlows) {
      w.value(static_cast<std::int64_t>(id));
    }
    w.endArray();
    w.endObject();
  }
  w.endArray();
  w.key("wlinks").beginArray();
  for (const WLinkState& wl : snap.wlinks) {
    w.beginObject();
    w.key("from").value(wl.link.from);
    w.key("to").value(wl.link.to);
    w.key("occupancy").value(wl.occupancy);
    w.key("normRate").value(wl.normRate);
    w.endObject();
  }
  w.endArray();
  w.key("saturatedVnodes").beginArray();
  for (std::size_t v = 0; v < snap.saturated.size(); ++v) {
    if (snap.saturated[v] == 0) continue;
    w.beginObject();
    w.key("node").value(vnet_->vnodes[v].first);
    w.key("dest").value(vnet_->vnodes[v].second);
    w.endObject();
  }
  w.endArray();
  w.key("staleNodes").beginArray();
  for (const topo::NodeId n : snap.staleNodes) w.value(n);
  w.endArray();
  w.key("impairedFlows").beginArray();
  for (const net::FlowId id : snap.impairedFlows) {
    w.value(static_cast<std::int64_t>(id));
  }
  w.endArray();
  // Partition fields only when something is actually severed, keeping
  // fault-free period records byte-identical to the pre-§13 format.
  if (snap.partitions > 1 || !snap.quarantinedFlows.empty()) {
    w.key("partitions").value(snap.partitions);
    w.key("quarantinedFlows").beginArray();
    for (const net::FlowId id : snap.quarantinedFlows) {
      w.value(static_cast<std::int64_t>(id));
    }
    w.endArray();
  }
  w.key("decision").beginObject();
  w.key("sourceBufferViolations").value(lastReport_.sourceBufferViolations);
  w.key("bandwidthViolations").value(lastReport_.bandwidthViolations);
  w.key("reduceRequests").value(lastReport_.reduceRequests);
  w.key("increaseRequests").value(lastReport_.increaseRequests);
  w.key("additiveIncreases").value(lastReport_.additiveIncreases);
  w.key("limitsRemoved").value(lastReport_.limitsRemoved);
  w.key("staleDecays").value(lastReport_.staleDecays);
  w.key("commands").value(
      static_cast<std::int64_t>(lastReport_.commands.size()));
  w.endObject();
  w.endObject();
  trace_->writeRecord(w.str());
}

}  // namespace maxmin::gmp
