// Fluid-solver microbenchmarks (DESIGN.md §16): the fixed-point solve
// the hybrid fast-forward leans on, at sweep scale. The N=5k numbers
// back the "orders-of-magnitude cheaper macro-scale sweeps" claim: one
// fluid GMP period on a 5000-node mesh costs milliseconds where the
// packet engine costs minutes.
//
// The solver core is allocation-free after the first evaluate() (CSR
// incidence + reused workspace); counters report iterations so a
// regression in convergence shows up as surely as one in wall time.
//
// The centralized maxmin reference and the 2PP allocator run on the same
// meshes and the same topo::FlowIncidence, so the three solvers' costs
// are directly comparable.
#include <benchmark/benchmark.h>

#include <cstdint>

#include "analysis/maxmin_solver.hpp"
#include "baselines/two_phase.hpp"
#include "fluid/fluid_gmp.hpp"
#include "fluid/fluid_network.hpp"
#include "mac/params.hpp"
#include "scenarios/scenarios.hpp"

namespace {

using namespace maxmin;

double nominalCapacity() {
  return mac::MacParams{}.nominalLinkCapacityPps(DataSize::bytes(1000));
}

scenarios::Scenario sweepMesh(int nodes) {
  // Constant-density placement (average tx degree ~8) with one flow per
  // ~10 nodes: the macro-scale sweep shape, not the dense stress preset.
  return scenarios::randomMesh(11, nodes,
                               scenarios::meshSideForDegree(nodes, 8.0),
                               nodes / 10);
}

/// One steady-state evaluate() under fresh rate limits: the per-period
/// cost inside fast-forward and the background re-linearization loop.
void BM_FluidEvaluate(benchmark::State& state) {
  const auto nodes = static_cast<int>(state.range(0));
  const auto sc = sweepMesh(nodes);
  fluid::FluidNetwork net{sc.topology, sc.flows, nominalCapacity()};
  // Warm the workspace; later calls are allocation-free.
  benchmark::DoNotOptimize(net.evaluate().rates.size());
  std::int64_t iterations = 0;
  for (auto _ : state) {
    const auto fs = net.evaluate();
    iterations += net.lastSolveStats().iterations;
    benchmark::DoNotOptimize(fs.rates.size());
  }
  state.counters["scale_iters"] = benchmark::Counter(
      static_cast<double>(iterations), benchmark::Counter::kAvgIterations);
  state.counters["flows"] = static_cast<double>(sc.flows.size());
  state.counters["cliques"] =
      static_cast<double>(net.contention().cliques.size());
}
BENCHMARK(BM_FluidEvaluate)->Arg(500)->Arg(5000)->Unit(benchmark::kMillisecond);

/// The full fast-forward primitive: iterate fluid GMP periods until the
/// EWMA rate residual falls below the hybrid default tolerance.
void BM_FluidFixedPoint(benchmark::State& state) {
  const auto nodes = static_cast<int>(state.range(0));
  const auto sc = sweepMesh(nodes);
  const double cap = nominalCapacity();
  std::int64_t periods = 0;
  bool converged = true;
  for (auto _ : state) {
    state.PauseTiming();
    fluid::FluidNetwork net{sc.topology, sc.flows, cap};
    fluid::FluidGmpHarness harness{net, gmp::GmpParams{}};
    state.ResumeTiming();
    const auto fp = harness.runToFixedPoint(0.02, 400);
    periods += fp.periods;
    converged = converged && fp.converged;
    benchmark::DoNotOptimize(fp.residual);
  }
  state.counters["periods"] = benchmark::Counter(
      static_cast<double>(periods), benchmark::Counter::kAvgIterations);
  state.counters["converged"] = converged ? 1.0 : 0.0;
}
BENCHMARK(BM_FluidFixedPoint)
    ->Arg(500)
    ->Arg(5000)
    ->Unit(benchmark::kMillisecond);

/// One GMP decision on the fixed-point snapshot: the engine's share of
/// every fast-forward period, without the fluid solve around it.
void BM_EngineDecide(benchmark::State& state) {
  const auto sc = sweepMesh(static_cast<int>(state.range(0)));
  fluid::FluidNetwork net{sc.topology, sc.flows, nominalCapacity()};
  fluid::FluidGmpHarness harness{net, gmp::GmpParams{}};
  harness.runToFixedPoint(0.02, 400);
  const gmp::Snapshot snapshot = harness.lastSnapshot();
  const gmp::Engine engine{net.contention(), gmp::GmpParams{}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.decide(snapshot).commands.size());
  }
  state.counters["vlinks"] = static_cast<double>(snapshot.vlinks.size());
}
BENCHMARK(BM_EngineDecide)
    ->Arg(500)
    ->Arg(5000)
    ->Unit(benchmark::kMillisecond);

/// The centralized weighted-maxmin reference end to end: route, enumerate
/// the cliques, build the incidence, water-fill.
void BM_ReferenceMaxmin(benchmark::State& state) {
  const auto sc = sweepMesh(static_cast<int>(state.range(0)));
  const double cap = nominalCapacity();
  std::size_t cliques = 0;
  for (auto _ : state) {
    const auto model = analysis::buildCliqueModel(sc.topology, sc.flows, cap);
    benchmark::DoNotOptimize(analysis::solveWeightedMaxmin(model).size());
    cliques = model.contention.cliques.size();
  }
  state.counters["flows"] = static_cast<double>(sc.flows.size());
  state.counters["cliques"] = static_cast<double>(cliques);
}
BENCHMARK(BM_ReferenceMaxmin)
    ->Arg(500)
    ->Arg(5000)
    ->Unit(benchmark::kMillisecond);

/// The 2PP baseline end to end: route, build the incidence, allocate.
void BM_TwoPhaseAllocate(benchmark::State& state) {
  const auto sc = sweepMesh(static_cast<int>(state.range(0)));
  const double cap = nominalCapacity();
  for (auto _ : state) {
    const baselines::TwoPhaseAllocator allocator{sc.topology, sc.flows, cap};
    benchmark::DoNotOptimize(allocator.allocate().totalPps.size());
  }
  state.counters["flows"] = static_cast<double>(sc.flows.size());
}
BENCHMARK(BM_TwoPhaseAllocate)
    ->Arg(500)
    ->Arg(5000)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
