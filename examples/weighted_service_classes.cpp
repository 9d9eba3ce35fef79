// Weighted bandwidth allocation via GMP: three service classes.
//
// The paper's motivating use case (§2.1): "we may establish several
// service classes in the network and assign larger weights to
// applications belonging to higher classes." This example puts six flows
// on a random mesh — two gold (weight 4), two silver (weight 2), two
// bronze (weight 1) — and shows that GMP drives the *normalized* rates
// r(f)/w(f) toward equality, i.e. directly-competing flows receive
// bandwidth in proportion to their weights.
//
//   ./build/examples/weighted_service_classes
#include <iostream>

#include "analysis/experiment.hpp"
#include "analysis/maxmin_solver.hpp"
#include "mac/params.hpp"
#include "scenarios/scenarios.hpp"
#include "util/table.hpp"

int main() {
  using namespace maxmin;

  // A reproducible 10-node mesh with six multi-hop flows...
  scenarios::Scenario scenario = scenarios::randomMesh(/*seed=*/4, 10, 900.0, 6);
  scenario.name = "service-classes";
  // ...assigned to service classes by flow id.
  const char* className[] = {"gold", "gold", "silver", "silver",
                             "bronze", "bronze"};
  const double classWeight[] = {4, 4, 2, 2, 1, 1};
  for (std::size_t i = 0; i < scenario.flows.size(); ++i) {
    scenario.flows[i].weight = classWeight[i];
    scenario.flows[i].name = std::string(className[i]) + "-" +
                             std::to_string(i % 2 + 1);
  }

  analysis::RunConfig config;
  config.protocol = analysis::Protocol::kGmp;
  config.duration = Duration::seconds(400.0);
  config.warmup = Duration::seconds(240.0);
  config.seed = 21;
  const auto result = analysis::runScenario(scenario, config);

  // Centralized weighted-maxmin reference for comparison.
  const auto model = analysis::buildCliqueModel(
      scenario.topology, scenario.flows,
      mac::MacParams{}.nominalLinkCapacityPps(DataSize::bytes(1024)));
  const auto reference = analysis::solveWeightedMaxmin(model);

  std::cout << "GMP weighted maxmin across three service classes "
               "(10-node mesh, 6 flows):\n\n";
  Table t({"flow", "class weight", "hops", "rate (pkt/s)",
           "normalized r/w", "centralized reference"});
  for (const auto& f : result.flows) {
    t.addRow({f.name, Table::num(f.weight, 0), std::to_string(f.hops),
              Table::num(f.ratePps), Table::num(f.ratePps / f.weight),
              Table::num(reference.at(f.id))});
  }
  t.print(std::cout);

  std::cout << "\nEquality index over normalized rates (1.0 = perfectly "
               "weighted-fair): "
            << Table::num(result.normalizedSummary.ieq, 3) << '\n'
            << "Queue drops (lossless backpressure): " << result.queueDrops
            << '\n';
  return 0;
}
