// Microbenchmarks for the substrate components: event queue, medium,
// clique enumeration, dominating sets, routing, fluid evaluation, and
// end-to-end DES throughput.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "analysis/maxmin_solver.hpp"
#include "baselines/configs.hpp"
#include "fluid/fluid_network.hpp"
#include "net/network.hpp"
#include "scenarios/scenarios.hpp"
#include "sim/simulator.hpp"
#include "sim/timer.hpp"
#include "topology/cliques.hpp"
#include "topology/conflict_graph.hpp"
#include "topology/dominating_set.hpp"
#include "topology/routing.hpp"
#include "util/rng.hpp"

namespace {

using namespace maxmin;

void BM_EventQueueScheduleRun(benchmark::State& state) {
  const auto n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulator sim;
    Rng rng{42};
    int fired = 0;
    for (int i = 0; i < n; ++i) {
      sim.post(Duration::micros(rng.uniformInt(0, 1000000)),
                   [&fired] { ++fired; });
    }
    sim.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EventQueueScheduleRun)->Arg(1000)->Arg(100000);

// Steady-state churn: a fixed population of pending events where every
// firing schedules a successor — the actual workload shape of a running
// simulation (timers re-arming, frames chaining), as opposed to the
// bulk-load-then-drain shape above.
void BM_EventQueueSteadyState(benchmark::State& state) {
  const auto population = static_cast<int>(state.range(0));
  constexpr int kFiresPerIter = 20000;
  for (auto _ : state) {
    state.PauseTiming();
    sim::Simulator sim;
    Rng rng{7};
    std::int64_t fired = 0;
    std::function<void()> chain = [&] {
      ++fired;
      if (fired + static_cast<std::int64_t>(sim.pendingEvents()) <
          kFiresPerIter) {
        sim.post(Duration::micros(rng.uniformInt(1, 10000)), [&] {
          chain();
        });
      }
    };
    for (int i = 0; i < population; ++i) {
      sim.post(Duration::micros(rng.uniformInt(1, 10000)),
                   [&] { chain(); });
    }
    state.ResumeTiming();
    sim.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * kFiresPerIter);
}
BENCHMARK(BM_EventQueueSteadyState)->Arg(100)->Arg(10000);

// Same-instant bursts: many events at identical timestamps (period
// boundaries in GMP fire every node's window close at once); stresses
// FIFO tie-breaking on seq in the heap.
void BM_EventQueueSameInstantBursts(benchmark::State& state) {
  constexpr int kBursts = 100;
  constexpr int kPerBurst = 100;
  for (auto _ : state) {
    sim::Simulator sim;
    int fired = 0;
    for (int b = 0; b < kBursts; ++b) {
      for (int i = 0; i < kPerBurst; ++i) {
        sim.post(Duration::millis(b), [&fired] { ++fired; });
      }
    }
    sim.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * kBursts * kPerBurst);
}
BENCHMARK(BM_EventQueueSameInstantBursts);

void BM_EventCancellation(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    std::vector<sim::EventId> ids;
    ids.reserve(10000);
    for (int i = 0; i < 10000; ++i) {
      ids.push_back(sim.schedule(Duration::micros(i + 1), [] {}));
    }
    for (std::size_t i = 0; i < ids.size(); i += 2) sim.cancel(ids[i]);
    sim.run();
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_EventCancellation);

// Re-arm-later churn: the DCF wake / NodeStack hold-retry shape, where a
// pending deadline is pushed out again and again before it fires. Each
// 1 us driver tick re-arms one of 8 timers to 50-100 us out — usually
// later than its pending deadline, so most arms are deferred re-arms.
void BM_TimerRearm(benchmark::State& state) {
  constexpr int kTimers = 8;
  constexpr int kTicks = 20000;
  for (auto _ : state) {
    state.PauseTiming();
    sim::Simulator sim;
    std::vector<std::unique_ptr<sim::Timer>> timers;
    for (int i = 0; i < kTimers; ++i) {
      timers.push_back(std::make_unique<sim::Timer>(sim));
    }
    Rng rng{3};
    int ticks = 0;
    std::int64_t fired = 0;
    std::function<void()> tick = [&] {
      sim::Timer& t =
          *timers[static_cast<std::size_t>(rng.uniformInt(0, kTimers - 1))];
      t.arm(Duration::micros(rng.uniformInt(50, 100)), [&fired] { ++fired; });
      if (++ticks < kTicks) sim.post(Duration::micros(1), [&] { tick(); });
    };
    sim.post(Duration::zero(), [&] { tick(); });
    state.ResumeTiming();
    sim.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * kTicks);
}
BENCHMARK(BM_TimerRearm);

// One long stretch behind a far sentinel: 10^6 events with 64 pending
// pass through the queue. The max_queued_keys counter (sampled every 1024
// events) shows the queue stays sized by its pending keys, not by
// everything it has popped.
void BM_EventQueueLongRun(benchmark::State& state) {
  constexpr std::int64_t kLive = 64;
  constexpr std::int64_t kEvents = 1'000'000;
  std::size_t maxKeys = 0;
  for (auto _ : state) {
    sim::Simulator sim;
    sim.post(Duration::seconds(1000.0), [] {});
    std::int64_t fired = 0;
    std::function<void()> tick = [&] {
      ++fired;
      if ((fired & 1023) == 0) maxKeys = std::max(maxKeys, sim.queuedKeys());
      if (fired + kLive <= kEvents) {
        sim.post(Duration::micros(1 + fired % 7), [&] { tick(); });
      }
    };
    for (std::int64_t i = 0; i < kLive; ++i) {
      sim.post(Duration::micros(i), [&] { tick(); });
    }
    sim.runUntil(TimePoint{} + Duration::seconds(100.0));
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * kEvents);
  state.counters["max_queued_keys"] = static_cast<double>(maxKeys);
}
BENCHMARK(BM_EventQueueLongRun);

scenarios::Scenario meshScenario(int nodes) {
  return scenarios::randomMesh(99, nodes, 250.0 * nodes / 4, 4);
}

void BM_CliqueEnumeration(benchmark::State& state) {
  const auto n = static_cast<int>(state.range(0));
  const auto sc = meshScenario(n);
  std::vector<topo::Link> links;
  for (topo::NodeId a = 0; a < sc.topology.numNodes(); ++a) {
    for (topo::NodeId b : sc.topology.neighbors(a)) {
      if (a < b) links.push_back(topo::Link{a, b});
    }
  }
  const topo::ConflictGraph graph{sc.topology, links};
  for (auto _ : state) {
    benchmark::DoNotOptimize(topo::enumerateMaximalCliques(graph));
  }
  state.SetLabel(std::to_string(links.size()) + " links");
}
BENCHMARK(BM_CliqueEnumeration)->Arg(12)->Arg(20);

void BM_DominatingSets(benchmark::State& state) {
  const auto sc = meshScenario(20);
  for (auto _ : state) {
    for (topo::NodeId n = 0; n < sc.topology.numNodes(); ++n) {
      benchmark::DoNotOptimize(topo::computeDominatingSet(sc.topology, n));
    }
  }
}
BENCHMARK(BM_DominatingSets);

void BM_ShortestPathRouting(benchmark::State& state) {
  const auto sc = meshScenario(20);
  for (auto _ : state) {
    for (topo::NodeId n = 0; n < sc.topology.numNodes(); ++n) {
      benchmark::DoNotOptimize(
          topo::RoutingTree::shortestPaths(sc.topology, n));
    }
  }
}
BENCHMARK(BM_ShortestPathRouting);

void BM_FluidEvaluate(benchmark::State& state) {
  const auto sc = scenarios::fig4();
  fluid::FluidNetwork net{sc.topology, sc.flows, 580.0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.evaluate());
  }
}
BENCHMARK(BM_FluidEvaluate);

void BM_MaxminSolverMesh(benchmark::State& state) {
  const auto sc = meshScenario(16);
  const auto model = analysis::buildCliqueModel(sc.topology, sc.flows, 580.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::solveWeightedMaxmin(model));
  }
}
BENCHMARK(BM_MaxminSolverMesh);

/// End-to-end DES cost: simulated-seconds per wall-second on the
/// saturated Fig. 4 network under the GMP configuration.
void BM_DesSimulatedSecondFig4(benchmark::State& state) {
  const auto sc = scenarios::fig4();
  net::NetworkConfig cfg = baselines::configGmp({});
  cfg.seed = 3;
  net::Network net{sc.topology, cfg, sc.flows};
  net.run(Duration::seconds(2.0));
  std::uint64_t eventsBefore = net.simulator().executedEvents();
  for (auto _ : state) {
    net.run(Duration::seconds(1.0));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(net.simulator().executedEvents() - eventsBefore));
  state.SetLabel("items = simulator events");
}
BENCHMARK(BM_DesSimulatedSecondFig4)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
