// Reproduces paper Table 2: weighted maxmin on the Fig. 2 topology,
// weights w(f1..f4) = 1, 2, 1, 3.
//
// Expected shape (paper: 527.58, 225.40, 121.90, 377.20): the clique-1
// flows f2, f3, f4 receive rates approximately proportional to their
// weights 2:1:3, while f1 — despite weight 1 — opportunistically takes
// the clique-0 bandwidth f2 cannot use.
#include <benchmark/benchmark.h>

#include "analysis/maxmin_solver.hpp"
#include "mac/params.hpp"
#include "bench/bench_util.hpp"

namespace {

using namespace maxmin;

void reproduceTable2() {
  const auto sc = scenarios::fig2({1, 2, 1, 3});
  const auto result = analysis::runScenario(
      sc, bench::paperRunConfig(analysis::Protocol::kGmp));
  bench::printComparison("Table 2: weighted GMP on Fig. 2 (w = 1,2,1,3)", sc,
                         {527.58, 225.40, 121.90, 377.20}, result, {});

  // Normalized rates: the weighted-fairness view.
  Table t({"flow", "weight", "measured mu = r/w"});
  for (const auto& f : result.flows) {
    t.addRow({f.name, Table::num(f.weight, 0),
              Table::num(f.ratePps / f.weight)});
  }
  t.print(std::cout);

  // Centralized reference on the idealized clique model.
  const auto model = analysis::buildCliqueModel(
      sc.topology, sc.flows,
      mac::MacParams{}.nominalLinkCapacityPps(DataSize::bytes(1024)));
  const auto reference = analysis::solveWeightedMaxmin(model);
  Table r({"flow", "centralized maxmin reference"});
  for (const auto& f : sc.flows) {
    r.addRow({f.name, Table::num(reference.at(f.id))});
  }
  r.print(std::cout);
  std::cout << '\n';
}

void BM_WeightedMaxminSolverFig2(benchmark::State& state) {
  const auto sc = scenarios::fig2({1, 2, 1, 3});
  const auto model = analysis::buildCliqueModel(sc.topology, sc.flows, 580.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::solveWeightedMaxmin(model));
  }
}
BENCHMARK(BM_WeightedMaxminSolverFig2);

}  // namespace

int main(int argc, char** argv) {
  reproduceTable2();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
