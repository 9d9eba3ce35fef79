#include "gmp/engine.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "obs/registry.hpp"
#include "util/check.hpp"

namespace maxmin::gmp {

const char* linkTypeName(LinkType t) {
  switch (t) {
    case LinkType::kUnsaturated: return "unsaturated";
    case LinkType::kBufferSaturated: return "buffer-saturated";
    case LinkType::kBandwidthSaturated: return "bandwidth-saturated";
  }
  return "?";
}

LinkType classifyLink(bool senderSaturated, bool receiverSaturated) {
  if (!senderSaturated) return LinkType::kUnsaturated;
  return receiverSaturated ? LinkType::kBufferSaturated
                           : LinkType::kBandwidthSaturated;
}

BetaCompare::BetaCompare(double beta) : beta_{beta} {
  MAXMIN_CHECK(beta >= 0.0 && beta < 1.0);
}

bool BetaCompare::equal(double a, double b) const {
  const double larger = std::max(std::abs(a), std::abs(b));
  return std::abs(a - b) <= beta_ * larger;
}

Engine::Engine(topo::ContentionStructure contention, GmpParams params)
    : contention_{std::move(contention)}, params_{params}, cmp_{params.beta} {}

double Engine::adjustBase(const FlowState& f) const {
  // Requests scale the flow's current measured rate; floor it so a
  // starved flow can still be lifted.
  return std::max(f.ratePps, params_.minRatePps);
}

DecisionReport Engine::decide(const Snapshot& snapshot) const {
  DecisionReport report;
  RequestMap requests;
  if (snapshot.degraded()) {
    // Graceful degradation: run the unmodified condition checks on the
    // healthy remainder of the network, and only decay the flows whose
    // measurements are ghosts.
    const Snapshot filtered = filterDegraded(snapshot);
    checkSourceAndBufferConditions(filtered, requests, report);
    checkBandwidthCondition(filtered, requests, report);
    resolveRequests(filtered, requests, report);
    decayImpairedFlows(snapshot, report);
    return report;
  }
  checkSourceAndBufferConditions(snapshot, requests, report);
  checkBandwidthCondition(snapshot, requests, report);
  resolveRequests(snapshot, requests, report);
  return report;
}

Snapshot Engine::filterDegraded(const Snapshot& s) const {
  Snapshot out;
  const auto staleNode = [&](topo::NodeId n) { return s.staleNodes.contains(n); };

  for (const FlowState& f : s.flows) {
    if (!s.impairedFlows.contains(f.id)) out.flows.push_back(f);
  }
  for (const VLinkState& vl : s.vlinks) {
    if (staleNode(vl.key.from) || staleNode(vl.key.to) ||
        staleNode(vl.key.dest)) {
      continue;
    }
    VLinkState copy = vl;
    std::erase_if(copy.primaryFlows, [&](net::FlowId id) {
      return s.impairedFlows.contains(id);
    });
    out.vlinks.push_back(std::move(copy));
  }
  for (const WLinkState& wl : s.wlinks) {
    if (!staleNode(wl.link.from) && !staleNode(wl.link.to)) {
      out.wlinks.push_back(wl);
    }
  }
  for (const auto& [nodeDest, sat] : s.saturated) {
    if (!staleNode(nodeDest.first) && !staleNode(nodeDest.second)) {
      out.saturated.emplace(nodeDest, sat);
    }
  }
  return out;
}

void Engine::decayImpairedFlows(const Snapshot& s,
                                DecisionReport& report) const {
  // A flow crossing a stale node may be pushing packets into a black
  // hole at its old equilibrium rate. Freezing the limit would hold that
  // equilibrium on ghost data; removing it would let the source flood.
  // Multiplicative decay toward the floor frees the bandwidth quickly
  // while leaving a probe rate alive to notice recovery.
  for (const FlowState& f : s.flows) {
    if (!s.impairedFlows.contains(f.id)) continue;
    const double base =
        f.limitPps ? *f.limitPps : std::max(f.ratePps, params_.minRatePps);
    const double target =
        std::max(params_.minRatePps, base * params_.staleDecayFactor);
    report.commands.push_back(Command{f.id, Command::Kind::kSetLimit, target});
    ++report.staleDecays;
    MAXMIN_COUNT("gmp.adjust.stale_decay", 1);
  }
}

namespace {

const FlowState* findFlow(const Snapshot& s, net::FlowId id) {
  for (const FlowState& f : s.flows) {
    if (f.id == id) return &f;
  }
  return nullptr;
}

}  // namespace

// ---------------------------------------------------------------------------
// Source condition + buffer-saturated condition (§5.3, tested as in §6.3)
// ---------------------------------------------------------------------------
//
// For every saturated virtual node i_t:
//   L1 = max mu over { upstream virtual links of i_t, local flows at i_t }
//   S1 = min mu over { local flows at i_t, buffer-saturated upstream links }
// The conditions hold iff S1 == L1 (beta-equal). Otherwise the node asks
// the mu==L1 parties to reduce and the mu==S1 buffer-saturated/local
// parties to increase, by halving/doubling while the gap is wide
// (L1 > bigGap*S1) and by beta-percentage steps once it is narrow.

void Engine::checkSourceAndBufferConditions(const Snapshot& s,
                                            RequestMap& requests,
                                            DecisionReport& report) const {
  for (const auto& [nodeDest, saturated] : s.saturated) {
    if (!saturated) continue;
    const auto [node, dest] = nodeDest;

    // Gather this virtual node's upstream links and local flows.
    std::vector<const VLinkState*> upstream;
    for (const VLinkState& vl : s.vlinks) {
      if (vl.key.to == node && vl.key.dest == dest) upstream.push_back(&vl);
    }
    std::vector<const FlowState*> localFlows;
    for (const FlowState& f : s.flows) {
      if (f.src == node && f.dst == dest) localFlows.push_back(&f);
    }

    double l1 = -std::numeric_limits<double>::infinity();
    for (const VLinkState* vl : upstream) l1 = std::max(l1, vl->normRate);
    for (const FlowState* f : localFlows) l1 = std::max(l1, f->mu());

    double s1 = std::numeric_limits<double>::infinity();
    for (const FlowState* f : localFlows) s1 = std::min(s1, f->mu());
    for (const VLinkState* vl : upstream) {
      if (vl->type == LinkType::kBufferSaturated)
        s1 = std::min(s1, vl->normRate);
    }

    if (!std::isfinite(l1) || !std::isfinite(s1)) continue;  // nothing to equalize
    if (cmp_.equal(s1, l1)) continue;                        // satisfied
    ++report.sourceBufferViolations;
    MAXMIN_COUNT("gmp.violations.source_buffer", 1);

    const bool wideGap = l1 > params_.bigGapFactor * s1;
    const double reduceFactor = wideGap ? 0.5 : 1.0 - params_.beta;
    const double increaseFactor = wideGap ? 2.0 : 1.0 + params_.beta;

    // One call site per metric name: the instrumentation macros cache
    // their registry handle in a per-site static, so the counter picked
    // must be compile-time fixed at each site.
    auto countReduce = [&] {
      if (wideGap) {
        MAXMIN_COUNT("gmp.adjust.halve", 1);
      } else {
        MAXMIN_COUNT("gmp.adjust.beta_down", 1);
      }
    };
    auto countIncrease = [&] {
      if (wideGap) {
        MAXMIN_COUNT("gmp.adjust.double", 1);
      } else {
        MAXMIN_COUNT("gmp.adjust.beta_up", 1);
      }
    };
    auto reducePrimaries = [&](const VLinkState& vl) {
      for (net::FlowId id : vl.primaryFlows) {
        if (const FlowState* f = findFlow(s, id)) {
          requests[id].push_back(Request{true, adjustBase(*f) * reduceFactor});
          ++report.reduceRequests;
          countReduce();
        }
      }
    };
    auto increasePrimaries = [&](const VLinkState& vl) {
      for (net::FlowId id : vl.primaryFlows) {
        const FlowState* f = findFlow(s, id);
        if (f != nullptr && f->limitPps.has_value()) {
          requests[id].push_back(
              Request{false, adjustBase(*f) * increaseFactor});
          ++report.increaseRequests;
          countIncrease();
        }
      }
    };

    for (const VLinkState* vl : upstream) {
      if (cmp_.equal(vl->normRate, l1)) reducePrimaries(*vl);
      if (vl->type == LinkType::kBufferSaturated &&
          cmp_.equal(vl->normRate, s1)) {
        increasePrimaries(*vl);
      }
    }
    for (const FlowState* f : localFlows) {
      if (cmp_.equal(f->mu(), l1)) {
        requests[f->id].push_back(Request{true, adjustBase(*f) * reduceFactor});
        ++report.reduceRequests;
        countReduce();
      }
      if (cmp_.equal(f->mu(), s1) && f->limitPps.has_value()) {
        requests[f->id].push_back(
            Request{false, adjustBase(*f) * increaseFactor});
        ++report.increaseRequests;
        countIncrease();
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Bandwidth-saturated condition (§5.3, tested as in §6.3)
// ---------------------------------------------------------------------------
//
// For each wireless link (i,j) with a bandwidth-saturated virtual link:
// take its bandwidth-saturated virtual link with the smallest mu; treat
// the cliques of (i,j) with the largest channel occupancy as saturated.
// The condition holds iff that mu is the largest normalized rate in at
// least one saturated clique. Otherwise every link in those saturated
// cliques reduces primaries at L2 (the cliques' largest wireless-link mu)
// by beta, and raises bandwidth-saturated virtual links whose mu equals
// the deprived link's mu by beta.

void Engine::checkBandwidthCondition(const Snapshot& s, RequestMap& requests,
                                     DecisionReport& report) const {
  // Index the snapshot.
  std::map<topo::Link, std::vector<const VLinkState*>> vlinksByWireless;
  for (const VLinkState& vl : s.vlinks) {
    vlinksByWireless[vl.key.wireless()].push_back(&vl);
  }
  std::map<topo::Link, const WLinkState*> wlinkByLink;
  for (const WLinkState& wl : s.wlinks) wlinkByLink[wl.link] = &wl;

  // Clique channel occupancies (sum over member links present in the
  // snapshot; absent links contribute zero airtime).
  std::vector<double> cliqueOccupancy(contention_.cliques.size(), 0.0);
  for (std::size_t c = 0; c < contention_.cliques.size(); ++c) {
    for (int li : contention_.cliques[c].linkIndices) {
      const topo::Link l = contention_.links[static_cast<std::size_t>(li)];
      if (const auto it = wlinkByLink.find(l); it != wlinkByLink.end()) {
        cliqueOccupancy[c] += it->second->occupancy;
      }
    }
  }

  for (const auto& [wireless, vlinks] : vlinksByWireless) {
    // Smallest-mu bandwidth-saturated virtual link of this wireless link.
    const VLinkState* deprived = nullptr;
    for (const VLinkState* vl : vlinks) {
      if (vl->type != LinkType::kBandwidthSaturated) continue;
      if (deprived == nullptr || vl->normRate < deprived->normRate)
        deprived = vl;
    }
    if (deprived == nullptr) continue;

    const int li = contention_.linkIndex(wireless);
    MAXMIN_CHECK_MSG(li >= 0, "snapshot link " << wireless
                                               << " not in contention structure");
    const auto& cliqueIdxs =
        contention_.cliquesOfLink[static_cast<std::size_t>(li)];
    MAXMIN_CHECK(!cliqueIdxs.empty());

    // Saturated cliques: those whose occupancy beta-equals the maximum.
    double maxOcc = 0.0;
    for (int c : cliqueIdxs) {
      maxOcc = std::max(maxOcc, cliqueOccupancy[static_cast<std::size_t>(c)]);
    }
    std::vector<int> saturatedCliques;
    for (int c : cliqueIdxs) {
      if (cmp_.equal(cliqueOccupancy[static_cast<std::size_t>(c)], maxOcc)) {
        saturatedCliques.push_back(c);
      }
    }

    // Does the deprived virtual link top at least one saturated clique?
    auto cliqueMaxMu = [&](int c) {
      double m = 0.0;
      for (int memberIdx : contention_.cliques[static_cast<std::size_t>(c)]
                               .linkIndices) {
        const topo::Link member =
            contention_.links[static_cast<std::size_t>(memberIdx)];
        if (const auto it = wlinkByLink.find(member); it != wlinkByLink.end())
          m = std::max(m, it->second->normRate);
      }
      return m;
    };
    bool satisfiedSomewhere = false;
    double l2 = 0.0;
    for (int c : saturatedCliques) {
      const double m = cliqueMaxMu(c);
      l2 = std::max(l2, m);
      if (!cmp_.smaller(deprived->normRate, m)) satisfiedSomewhere = true;
    }
    if (satisfiedSomewhere) continue;
    ++report.bandwidthViolations;
    MAXMIN_COUNT("gmp.violations.bandwidth", 1);

    // Collect the member links of all saturated cliques.
    std::vector<topo::Link> members;
    for (int c : saturatedCliques) {
      for (int memberIdx : contention_.cliques[static_cast<std::size_t>(c)]
                               .linkIndices) {
        members.push_back(
            contention_.links[static_cast<std::size_t>(memberIdx)]);
      }
    }
    std::sort(members.begin(), members.end());
    members.erase(std::unique(members.begin(), members.end()), members.end());

    for (const topo::Link& km : members) {
      const auto it = vlinksByWireless.find(km);
      if (it == vlinksByWireless.end()) continue;
      for (const VLinkState* vl : it->second) {
        if (cmp_.equal(vl->normRate, l2)) {
          for (net::FlowId id : vl->primaryFlows) {
            if (const FlowState* f = findFlow(s, id)) {
              requests[id].push_back(
                  Request{true, adjustBase(*f) * (1.0 - params_.beta)});
              ++report.reduceRequests;
              MAXMIN_COUNT("gmp.adjust.beta_down", 1);
            }
          }
        }
        if (vl->type == LinkType::kBandwidthSaturated &&
            cmp_.equal(vl->normRate, deprived->normRate)) {
          for (net::FlowId id : vl->primaryFlows) {
            const FlowState* f = findFlow(s, id);
            if (f != nullptr && f->limitPps.has_value()) {
              requests[id].push_back(
                  Request{false, adjustBase(*f) * (1.0 + params_.beta)});
              ++report.increaseRequests;
              MAXMIN_COUNT("gmp.adjust.beta_up", 1);
            }
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Request resolution (control-packet sweep, §6.3) + rate-limit condition
// ---------------------------------------------------------------------------
//
// The control packet keeps a single request per flow: any reduction
// discards all increases, and among reductions the largest one (smallest
// target) wins; among increases the smallest wins.
//
// For sources with a rate limit and no request at all:
//   * limit binding (actual rate beta-equal to it): additively probe
//     upward (rate-limit condition);
//   * limit slack and the source's virtual node unsaturated: the limit is
//     genuinely unnecessary — remove it (§6.3);
//   * limit slack but the source's virtual node saturated: keep it. The
//     flow shares a congested queue with relayed traffic, and an ungated
//     local source refills every freed buffer slot ahead of upstream
//     senders, so dropping the limit here would let the local flow
//     capture the queue and defeat the equalization the conditions just
//     established.

void Engine::resolveRequests(const Snapshot& s, const RequestMap& requests,
                             DecisionReport& report) const {
  for (const FlowState& f : s.flows) {
    const auto it = requests.find(f.id);
    if (it != requests.end() && !it->second.empty()) {
      bool anyReduce = false;
      double reduceTarget = std::numeric_limits<double>::infinity();
      double increaseTarget = std::numeric_limits<double>::infinity();
      for (const Request& r : it->second) {
        if (r.reduce) {
          anyReduce = true;
          reduceTarget = std::min(reduceTarget, r.targetPps);
        } else {
          increaseTarget = std::min(increaseTarget, r.targetPps);
        }
      }
      if (anyReduce) {
        const double limit = std::max(reduceTarget, params_.minRatePps);
        report.commands.push_back(
            Command{f.id, Command::Kind::kSetLimit, limit});
      } else {
        // An increase never tightens an existing limit.
        double limit = increaseTarget;
        if (f.limitPps) limit = std::max(limit, *f.limitPps);
        report.commands.push_back(
            Command{f.id, Command::Kind::kSetLimit, limit});
      }
      continue;
    }

    if (!f.limitPps.has_value()) continue;

    const bool binding = !cmp_.smaller(f.ratePps, *f.limitPps);
    if (binding) {
      // Rate-limit condition: probe upward.
      report.commands.push_back(Command{
          f.id, Command::Kind::kSetLimit,
          *f.limitPps + params_.additiveIncreasePps});
      ++report.additiveIncreases;
      MAXMIN_COUNT("gmp.adjust.additive", 1);
    } else {
      const auto satIt = s.saturated.find({f.src, f.dst});
      const bool sourceSaturated = satIt != s.saturated.end() && satIt->second;
      const bool clearlySlack =
          f.ratePps < *f.limitPps * params_.removeLimitSlackFactor;
      if (!sourceSaturated && clearlySlack) {
        report.commands.push_back(Command{f.id, Command::Kind::kRemoveLimit});
        ++report.limitsRemoved;
        MAXMIN_COUNT("gmp.adjust.remove_limit", 1);
      }
    }
  }
}

}  // namespace maxmin::gmp
