// Introspection example: traces GMP's internal state period by period —
// measured flow rates and limits, saturated virtual nodes, virtual-link
// classification (un/BF/BW = unsaturated / buffer-saturated /
// bandwidth-saturated), and the rate commands each adjustment period
// issues. Useful to watch the four local conditions steer the network
// into the maxmin fixed point.
//
//   ./build/examples/trace_gmp_periods [fig2|fig2w|fig3|fig4|fig1]
#include <iostream>

#include "baselines/configs.hpp"
#include "gmp/controller.hpp"
#include "net/network.hpp"
#include "scenarios/scenarios.hpp"

int main(int argc, char** argv) {
  using namespace maxmin;
  const std::string which = argc > 1 ? argv[1] : "fig3";
  const auto scenario = which == "fig2"   ? scenarios::fig2()
                        : which == "fig2w" ? scenarios::fig2({1, 2, 1, 3})
                        : which == "fig4" ? scenarios::fig4()
                        : which == "fig1" ? scenarios::fig1()
                                          : scenarios::fig3();
  net::NetworkConfig cfg = baselines::configGmp({});
  cfg.seed = 7;
  net::Network net{scenario.topology, cfg, scenario.flows};
  gmp::Controller ctrl{net, gmp::GmpParams{}};
  ctrl.start();

  for (int period = 1; period <= 100; ++period) {
    net.run(Duration::seconds(4.0));
    const auto& s = ctrl.lastSnapshot();
    const auto& r = ctrl.lastReport();
    std::cout << "p" << period << " viol(sb=" << r.sourceBufferViolations
              << ",bw=" << r.bandwidthViolations << ") flows:";
    for (const auto& f : s.flows) {
      std::cout << " f" << f.id << "=" << static_cast<int>(f.ratePps)
                << (f.limitPps ? "(L" + std::to_string(static_cast<int>(
                                     *f.limitPps)) + ")"
                               : "(-)");
    }
    std::cout << " sat:";
    for (const auto& [node, dest] : s.vnet->vnodes) {
      if (s.isSaturated(node, dest)) std::cout << " " << node << "@" << dest;
    }
    std::cout << " vlinks:";
    for (const auto& vl : s.vlinks) {
      std::cout << " " << vl.key.from << ">" << vl.key.to << "="
                << static_cast<int>(vl.normRate)
                << (vl.type == gmp::LinkType::kBandwidthSaturated
                        ? "BW"
                        : (vl.type == gmp::LinkType::kBufferSaturated ? "BF"
                                                                      : "un"));
    }
    std::cout << " cmds:";
    for (const auto& c : r.commands) {
      if (c.kind == gmp::Command::Kind::kRemoveLimit) {
        std::cout << " f" << c.flow << ":rm";
      } else {
        std::cout << " f" << c.flow << ":" << static_cast<int>(c.limitPps);
      }
    }
    std::cout << "\n";
  }
  return 0;
}
