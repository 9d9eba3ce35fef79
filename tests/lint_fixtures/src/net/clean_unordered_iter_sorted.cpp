// Fixture: the sanctioned patterns stay silent — collect-then-sort
// snapshots and writes into ordered containers keyed by the loop key are
// order-independent.
#include <algorithm>
#include <map>
#include <ostream>
#include <unordered_map>
#include <utility>
#include <vector>

namespace maxmin::net {

struct WindowReport {
  std::unordered_map<int, double> flowRate_;

  // Sorted snapshot: push_back then sort before anything ordered happens.
  std::vector<std::pair<int, double>> sortedRates() const {
    std::vector<std::pair<int, double>> out;
    out.reserve(flowRate_.size());
    for (const auto& [flow, rate] : flowRate_) {
      out.push_back({flow, rate});
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  // Re-keying into an ordered map is order-independent by construction.
  std::map<int, double> asOrdered() const {
    std::map<int, double> out;
    for (const auto& [flow, rate] : flowRate_) {
      out.emplace(flow, rate);
    }
    return out;
  }

  void render(std::ostream& os) const {
    for (const auto& [flow, rate] : sortedRates()) {
      os << flow << "," << rate << "\n";
    }
  }
};

}  // namespace maxmin::net
