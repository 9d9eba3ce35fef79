#include "hybrid/engine.hpp"

#include <algorithm>
#include <memory>
#include <set>
#include <utility>

#include "baselines/two_phase.hpp"
#include "net/packet.hpp"
#include "util/check.hpp"

namespace maxmin::hybrid {
namespace {

bool isForeground(const HybridConfig& cfg, net::FlowId id) {
  if (!cfg.background) return true;
  return std::ranges::find(cfg.foreground, id) != cfg.foreground.end();
}

}  // namespace

std::vector<net::FlowSpec> Engine::foregroundFlows(
    const std::vector<net::FlowSpec>& all, const HybridConfig& cfg) {
  std::vector<net::FlowSpec> out;
  for (const net::FlowSpec& f : all) {
    if (isForeground(cfg, f.id)) out.push_back(f);
  }
  return out;
}

std::vector<net::FlowSpec> Engine::backgroundFlows(
    const std::vector<net::FlowSpec>& all, const HybridConfig& cfg) {
  std::vector<net::FlowSpec> out;
  for (const net::FlowSpec& f : all) {
    if (!isForeground(cfg, f.id)) out.push_back(f);
  }
  return out;
}

Engine::Engine(net::Network& net, gmp::Controller& controller,
               std::vector<net::FlowSpec> allFlows, gmp::GmpParams gmpParams,
               HybridConfig cfg)
    : net_{net},
      controller_{controller},
      allFlows_{std::move(allFlows)},
      gmpParams_{gmpParams},
      cfg_{std::move(cfg)},
      capacityPps_{baselines::nominalLinkCapacityPps(net.config().mac,
                                                     net.config().packetSize)} {
  MAXMIN_CHECK(cfg_.enabled());
  // Flag combinations (faults, impairments, foreground list) are checked
  // by analysis::validate before a run is built.
  if (cfg_.background) bgFlows_ = backgroundFlows(allFlows_, cfg_);
  // The packet network must hold exactly the foreground subset.
  {
    std::set<net::FlowId> want;
    for (const net::FlowSpec& f : foregroundFlows(allFlows_, cfg_)) {
      want.insert(f.id);
    }
    std::set<net::FlowId> have;
    for (const net::FlowSpec& f : net_.flows()) have.insert(f.id);
    MAXMIN_CHECK_MSG(want == have,
                     "network flows do not match the foreground partition");
  }

  if (cfg_.background) {
    bgFluid_.emplace(net_.topology(), bgFlows_, capacityPps_,
                     net_.activeLinks());
    bgHarness_.emplace(*bgFluid_, gmpParams_);
    // The NAV burst covers only the channel *hold* time of one exchange
    // (RTS..ACK with SIFS gaps). The contention overhead that the
    // nominal capacity also prices in — DIFS plus a single station's
    // mean backoff — must NOT be reserved: with several contenders the
    // real inter-exchange gap is the minimum of their countdowns, and
    // the phantom's own deferral/backoff path already supplies its
    // share of idle time dynamically. Reserving the nominal per-packet
    // time instead overcharges dense neighbourhoods by ~25%.
    const mac::MacParams& mp = net_.config().mac;
    MAXMIN_CHECK_MSG(cfg_.bgBatch >= 1, "bgBatch must be at least 1");
    bgLoad_.emplace(net_,
                    mp.exchangeAirtime(net_.config().packetSize) +
                        mp.difs() + mp.slotTime * 2,
                    cfg_.bgBatch);
    std::set<topo::NodeId> senders;
    for (const auto& path : bgFluid_->paths()) {
      for (std::size_t h = 0; h + 1 < path.size(); ++h) senders.insert(path[h]);
    }
    bgSenders_.assign(senders.begin(), senders.end());
    for (const topo::NodeId n : bgSenders_) bgLoad_->addSender(n);
    for (const net::FlowSpec& f : bgFlows_) {
      integral_[f.id] = 0.0;
      currentRates_[f.id] = 0.0;
    }
    stats_.backgroundFlows = static_cast<int>(bgFlows_.size());
  }
}

void Engine::fastForward() {
  if (!cfg_.fastForward) return;
  // The all-flow contention structure is already built: bgFluid_ spans the
  // background routes plus the foreground links, and without background
  // mode the controller's links are every flow's links. FluidNetwork
  // checks that the links match the routes of allFlows_.
  const gmp::ContentionStructure& contention =
      bgFluid_ ? bgFluid_->contention() : controller_.contention();
  fluid::FluidNetwork all{net_.topology(), allFlows_, capacityPps_,
                          contention};
  fluid::FluidGmpHarness harness{all, gmpParams_};
  const fluid::FixedPointResult fp =
      harness.runToFixedPoint(cfg_.ffTol, cfg_.ffMaxPeriods);
  stats_.ffPeriods = fp.periods;
  stats_.ffConverged = fp.converged;
  stats_.ffResidual = fp.residual;

  const fluid::FluidState state = all.evaluate();

  // Inject the foreground operating point: rate limits and piggybacked
  // normalized rates at the sources.
  for (const net::FlowSpec& f : net_.flows()) {
    if (const auto lim = all.rateLimit(f.id)) net_.setRateLimit(f.id, lim);
    net_.setSourceMu(f.id, state.rates.at(f.id) / f.weight);
  }
  // Background flows inherit the jointly-converged limits so the first
  // re-linearization starts from the same operating point.
  if (bgFluid_) {
    for (const net::FlowSpec& f : bgFlows_) {
      bgFluid_->setRateLimit(f.id, all.rateLimit(f.id));
    }
  }

  controller_.warmStart(buildMeasurements(state, all.paths()));
  seedQueues(state, all.paths());
}

std::vector<net::NodePeriodMeasurement> Engine::buildMeasurements(
    const fluid::FluidState& state,
    const std::vector<std::vector<topo::NodeId>>& ffPaths) const {
  const auto numNodes = static_cast<std::size_t>(net_.topology().numNodes());
  std::vector<net::NodePeriodMeasurement> meas(numNodes);
  const double periodSeconds = gmpParams_.period.asSeconds();
  for (std::size_t n = 0; n < numNodes; ++n) {
    meas[n].node = static_cast<topo::NodeId>(n);
    meas[n].periodSeconds = periodSeconds;
  }
  for (std::size_t i = 0; i < allFlows_.size(); ++i) {
    const net::FlowSpec& f = allFlows_[i];
    if (!isForeground(cfg_, f.id)) continue;
    const double rate = state.rates.at(f.id);
    const double mu = rate / f.weight;
    const auto& path = ffPaths[i];
    meas[static_cast<std::size_t>(path.front())].localFlowRate[f.id] = rate;
    for (std::size_t h = 0; h + 1 < path.size(); ++h) {
      auto& m = meas[static_cast<std::size_t>(path[h])];
      net::VirtualLinkSample& vs = m.downstream[f.dst];
      vs.packets += static_cast<int>(rate * periodSeconds);
      vs.flowMu[f.id] = mu;
      const auto sat = state.saturated.find({path[h], f.dst});
      const bool full = sat != state.saturated.end() && sat->second;
      auto [it, inserted] = m.queueFullFraction.try_emplace(f.dst, 0.0);
      if (full) it->second = 1.0;
    }
  }
  return meas;
}

void Engine::seedQueues(const fluid::FluidState& state,
                        const std::vector<std::vector<topo::NodeId>>& ffPaths) {
  const int queueCap = net_.config().queueCapacity;
  if (queueCap <= 0) return;

  // Which foreground flows cross each saturated (node, dest) virtual
  // node, in flow-id order (allFlows_ is id-ordered per validateFlows).
  using VNode = std::pair<topo::NodeId, topo::NodeId>;
  std::map<VNode, std::vector<net::FlowId>> crossing;
  std::map<net::FlowId, const net::FlowSpec*> specOf;
  std::map<net::FlowId, double> muOf;
  for (std::size_t i = 0; i < allFlows_.size(); ++i) {
    const net::FlowSpec& f = allFlows_[i];
    if (!isForeground(cfg_, f.id)) continue;
    specOf[f.id] = &f;
    muOf[f.id] = state.rates.at(f.id) / f.weight;
    for (std::size_t h = 0; h + 1 < ffPaths[i].size(); ++h) {
      const VNode vn{ffPaths[i][h], f.dst};
      if (const auto it = state.saturated.find(vn);
          it != state.saturated.end() && it->second) {
        crossing[vn].push_back(f.id);
      }
    }
  }

  // Fill each saturated queue round-robin across its flows, then assign
  // per-flow sequence numbers in end-to-end delivery order — the hop
  // nearest the destination drains first — so the sink's duplicate
  // suppression sees a monotone sequence. Seeded packets use negative
  // sequence numbers; real source packets start at 0.
  std::map<VNode, std::vector<net::FlowId>> contents;
  std::map<VNode, std::vector<std::int64_t>> seqs;
  for (const auto& [vn, flows] : crossing) {
    auto& slots = contents[vn];
    for (int s = 0; s < queueCap; ++s) {
      slots.push_back(flows[static_cast<std::size_t>(s) % flows.size()]);
    }
    seqs[vn].assign(slots.size(), 0);
  }
  for (std::size_t i = 0; i < allFlows_.size(); ++i) {
    const net::FlowSpec& f = allFlows_[i];
    if (!isForeground(cfg_, f.id)) continue;
    const auto& path = ffPaths[i];
    std::vector<std::pair<const VNode*, std::size_t>> order;
    for (std::size_t h = path.size() - 1; h-- > 0;) {
      const VNode vn{path[h], f.dst};
      const auto it = contents.find(vn);
      if (it == contents.end()) continue;
      for (std::size_t s = 0; s < it->second.size(); ++s) {
        if (it->second[s] == f.id) order.emplace_back(&it->first, s);
      }
    }
    const auto k = static_cast<std::int64_t>(order.size());
    for (std::int64_t j = 0; j < k; ++j) {
      seqs.at(*order[static_cast<std::size_t>(j)].first)
          [order[static_cast<std::size_t>(j)].second] = -k + j;
    }
  }

  const TimePoint now = net_.simulator().now();
  for (const auto& [vn, slots] : contents) {
    const auto& slotSeqs = seqs.at(vn);
    for (std::size_t s = 0; s < slots.size(); ++s) {
      const net::FlowSpec& f = *specOf.at(slots[s]);
      auto p = std::make_shared<net::Packet>();
      p->flow = f.id;
      p->src = f.src;
      p->dst = f.dst;
      p->seq = slotSeqs[s];
      p->size = net_.config().packetSize;
      p->created = now;
      p->normalizedRate = muOf.at(f.id);
      net_.stack(vn.first).seedPacket(std::move(p));
      ++stats_.seededPackets;
    }
  }
}

void Engine::start() {
  if (!cfg_.background) return;
  applyBackgroundRates(bgFluid_->evaluate().rates);
  integralAt_ = net_.simulator().now();
  controller_.setPeriodHook(
      [this](const gmp::Snapshot& snap, int) { relinearize(snap); });
  bgLoad_->start();
}

void Engine::stop() {
  if (!cfg_.background) return;
  bgLoad_->stop();
  controller_.setPeriodHook(nullptr);
}

void Engine::relinearize(const gmp::Snapshot& snap) {
  accumulateTo(net_.simulator().now());
  // Fold the packet-measured foreground airtime into the fluid model's
  // clique constraints. The controller's contention links are exactly
  // the extraLinks the background fluid network was built with.
  for (const gmp::WLinkState& wl : snap.wlinks) {
    bgFluid_->setExternalOccupancy(wl.link, std::min(wl.occupancy, 1.0));
  }
  bgHarness_->step();
  std::map<net::FlowId, double> rates;
  for (const gmp::FlowState& fs : bgHarness_->lastSnapshot().flows) {
    rates[fs.id] = fs.ratePps;
  }
  applyBackgroundRates(rates);
  ++stats_.relinearizations;
}

void Engine::applyBackgroundRates(const std::map<net::FlowId, double>& rates) {
  currentRates_ = rates;
  // maxmin-lint: allow(hot-map) few senders, rebuilt once per period
  std::map<topo::NodeId, double> senderPps;
  for (const topo::NodeId n : bgSenders_) senderPps[n] = 0.0;
  const auto& paths = bgFluid_->paths();
  for (std::size_t i = 0; i < bgFlows_.size(); ++i) {
    const double r = rates.at(bgFlows_[i].id);
    for (std::size_t h = 0; h + 1 < paths[i].size(); ++h) {
      senderPps[paths[i][h]] += r;
    }
  }
  for (const auto& [node, pps] : senderPps) {
    bgLoad_->setSenderRate(node, pps);
  }
}

void Engine::accumulateTo(TimePoint t) {
  const double dt = (t - integralAt_).asSeconds();
  if (dt <= 0.0) return;
  for (auto& [id, packets] : integral_) {
    packets += currentRates_.at(id) * dt;
  }
  integralAt_ = t;
}

Engine::BackgroundSnapshot Engine::snapshotBackground() {
  accumulateTo(net_.simulator().now());
  return BackgroundSnapshot{net_.simulator().now(), integral_};
}

std::map<net::FlowId, double> Engine::ratesBetween(
    const BackgroundSnapshot& from, const BackgroundSnapshot& to) {
  const double dt = (to.at - from.at).asSeconds();
  MAXMIN_CHECK(dt > 0.0);
  std::map<net::FlowId, double> rates;
  for (const auto& [id, packets] : to.packets) {
    rates[id] = (packets - from.packets.at(id)) / dt;
  }
  return rates;
}

int Engine::backgroundHops(net::FlowId id) const {
  MAXMIN_CHECK(bgFluid_.has_value());
  const auto& flows = bgFluid_->flows();
  for (std::size_t i = 0; i < flows.size(); ++i) {
    if (flows[i].id == id) {
      return static_cast<int>(bgFluid_->paths()[i].size()) - 1;
    }
  }
  MAXMIN_CHECK_MSG(false, "unknown background flow " << id);
  return 0;
}

}  // namespace maxmin::hybrid
