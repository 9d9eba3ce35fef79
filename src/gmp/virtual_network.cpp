#include "gmp/virtual_network.hpp"

#include <algorithm>
#include <numeric>

#include "util/check.hpp"

namespace maxmin::gmp {

namespace {

/// Position of `key` in the sorted `v`; -1 when absent.
template <typename T>
int positionOf(const std::vector<T>& v, const T& key) {
  const auto it = std::lower_bound(v.begin(), v.end(), key);
  return it != v.end() && *it == key ? static_cast<int>(it - v.begin()) : -1;
}

/// CSR of `rows` rows from (row, item) pairs; negative rows are dropped.
VirtualNetwork::Rows group(std::size_t rows,
                           std::vector<std::pair<int, std::size_t>> pairs) {
  std::sort(pairs.begin(), pairs.end());
  VirtualNetwork::Rows out;
  out.offset.assign(rows + 1, 0);
  for (const auto& [r, item] : pairs) {
    if (r < 0) continue;
    ++out.offset[static_cast<std::size_t>(r) + 1];
    out.items.push_back(item);
  }
  std::partial_sum(out.offset.begin(), out.offset.end(), out.offset.begin());
  return out;
}

}  // namespace

std::shared_ptr<const VirtualNetwork> VirtualNetwork::build(
    const topo::ContentionStructure& contention,
    const std::vector<net::FlowSpec>& flows,
    const std::vector<std::vector<topo::NodeId>>& paths) {
  MAXMIN_CHECK(flows.size() == paths.size());
  auto vn = std::make_shared<VirtualNetwork>();
  for (std::size_t i = 0; i < flows.size(); ++i) {
    const auto& path = paths[i];
    for (std::size_t h = 0; h + 1 < path.size(); ++h) {
      vn->vnodes.emplace_back(path[h], flows[i].dst);
      vn->vlinks.push_back({path[h], path[h + 1], flows[i].dst});
    }
  }
  std::ranges::sort(vn->vnodes);
  vn->vnodes.erase(std::ranges::unique(vn->vnodes).begin(), vn->vnodes.end());
  std::ranges::sort(vn->vlinks);
  vn->vlinks.erase(std::ranges::unique(vn->vlinks).begin(), vn->vlinks.end());

  std::vector<std::pair<int, std::size_t>> upstream, onLink, crossing, local;
  for (std::size_t v = 0; v < vn->vlinks.size(); ++v) {
    const VirtualLinkKey& key = vn->vlinks[v];
    const int li = contention.linkIndex(key.wireless());
    MAXMIN_CHECK_MSG(li >= 0, "path hop " << key.wireless()
                                          << " is not a contention link");
    onLink.emplace_back(li, v);
    vn->vlinkSender.push_back(
        static_cast<std::size_t>(vn->vnodeId(key.from, key.dest)));
    vn->vlinkReceiver.push_back(vn->vnodeId(key.to, key.dest));
    upstream.emplace_back(vn->vlinkReceiver.back(), v);
  }
  for (std::size_t i = 0; i < flows.size(); ++i) {
    const auto& path = paths[i];
    vn->flowById_.emplace_back(flows[i].id, i);
    vn->flowSource.push_back(vn->vnodeId(flows[i].src, flows[i].dst));
    local.emplace_back(vn->flowSource.back(), i);
    for (std::size_t h = 0; h + 1 < path.size(); ++h) {
      const VirtualLinkKey key{path[h], path[h + 1], flows[i].dst};
      crossing.emplace_back(positionOf(vn->vlinks, key), i);
    }
  }
  std::sort(vn->flowById_.begin(), vn->flowById_.end());
  vn->vlinkFlows = group(vn->vlinks.size(), std::move(crossing));
  vn->vnodeUpstream = group(vn->vnodes.size(), std::move(upstream));
  vn->vnodeLocal = group(vn->vnodes.size(), std::move(local));
  vn->linkVlinks = group(contention.links.size(), std::move(onLink));
  return vn;
}

int VirtualNetwork::vnodeId(topo::NodeId node, topo::NodeId dest) const {
  return positionOf(vnodes, std::pair{node, dest});
}

int VirtualNetwork::flowIndex(net::FlowId id) const {
  const auto it = std::lower_bound(flowById_.begin(), flowById_.end(),
                                   std::pair{id, std::size_t{0}});
  return it != flowById_.end() && it->first == id
             ? static_cast<int>(it->second)
             : -1;
}

bool Snapshot::isSaturated(topo::NodeId node, topo::NodeId dest) const {
  const int v = vnet != nullptr ? vnet->vnodeId(node, dest) : -1;
  return v >= 0 && saturated[static_cast<std::size_t>(v)] != 0;
}

void classifyVLink(Snapshot& s, std::size_t v, std::span<const FlowMu> mus,
                   const BetaCompare& cmp) {
  const VirtualNetwork& vn = *s.vnet;
  const int receiver = vn.vlinkReceiver[v];
  VLinkState& vl = s.vlinks[v];
  vl.key = vn.vlinks[v];
  vl.type = classifyLink(
      s.saturated[vn.vlinkSender[v]] != 0,
      receiver >= 0 && s.saturated[static_cast<std::size_t>(receiver)] != 0);
  vl.normRate = 0.0;
  for (const auto& [id, mu] : mus) vl.normRate = std::max(vl.normRate, mu);
  vl.primaryFlows.clear();
  for (const auto& [id, mu] : mus) {
    if (cmp.equal(mu, vl.normRate)) vl.primaryFlows.push_back(id);
  }
}

double linkNormRate(const Snapshot& s, std::size_t li) {
  double rate = 0.0;
  for (const std::size_t v : s.vnet->linkVlinks.row(li)) {
    rate = std::max(rate, s.vlinks[v].normRate);
  }
  return rate;
}

}  // namespace maxmin::gmp
