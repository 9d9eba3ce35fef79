// Microbenchmarks for the substrate components: event queue, medium,
// clique enumeration, dominating sets, routing, fluid evaluation, and
// end-to-end DES throughput.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <set>
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

// The kernel benches: every event is a sim::Timer firing, as in a real
// run. Timers are built before timing starts; a firing costs what it
// costs in the simulator (arm, heap push/pop, one bound call).

/// Callback that counts firings into `fired`.
sim::Callback countInto(std::int64_t& fired) {
  return {[](void* p) { ++*static_cast<std::int64_t*>(p); }, &fired};
}

/// A timer that re-arms itself a random 1..maxDelayUs out until its
/// chain's budget of firings is spent: the steady-state shape of a
/// running simulation (timers re-arming, frames chaining).
struct ChainTimer {
  struct Chain {
    Rng rng;
    std::int64_t maxDelayUs;
    std::int64_t budget;  ///< firings still to arm
    std::int64_t fired = 0;
    std::size_t maxKeys = 0;  ///< queue size, sampled every 1024 firings
  };
  ChainTimer(sim::Simulator& s, Chain& c)
      : sim{&s}, chain{&c}, timer{s, sim::bind<&ChainTimer::fire>(this)} {}
  void arm() {
    if (chain->budget <= 0) return;
    --chain->budget;
    timer.arm(Duration::micros(chain->rng.uniformInt(1, chain->maxDelayUs)));
  }
  void fire() {
    if ((++chain->fired & 1023) == 0) {
      chain->maxKeys = std::max(chain->maxKeys, sim->pendingEvents());
    }
    arm();
  }
  sim::Simulator* sim;
  Chain* chain;
  sim::Timer timer;
};

void BM_TimerQueueArmRun(benchmark::State& state) {
  const auto n = static_cast<int>(state.range(0));
  sim::Simulator sim;
  std::int64_t fired = 0;
  std::deque<sim::Timer> timers;
  for (int i = 0; i < n; ++i) timers.emplace_back(sim, countInto(fired));
  Rng rng{42};
  for (auto _ : state) {
    for (sim::Timer& t : timers) {
      t.arm(Duration::micros(rng.uniformInt(0, 1000000)));
    }
    sim.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_TimerQueueArmRun)->Arg(1000)->Arg(100000);

// Steady-state churn: a fixed population of pending timers where every
// firing re-arms its timer — as opposed to the bulk-arm-then-drain shape
// above.
void BM_TimerQueueSteadyState(benchmark::State& state) {
  const auto population = static_cast<int>(state.range(0));
  constexpr std::int64_t kFiresPerIter = 20000;
  for (auto _ : state) {
    state.PauseTiming();
    sim::Simulator sim;
    ChainTimer::Chain chain{Rng{7}, 10000, kFiresPerIter};
    std::deque<ChainTimer> timers;
    for (int i = 0; i < population; ++i) timers.emplace_back(sim, chain).arm();
    state.ResumeTiming();
    sim.run();
    benchmark::DoNotOptimize(chain.fired);
  }
  state.SetItemsProcessed(state.iterations() * kFiresPerIter);
}
BENCHMARK(BM_TimerQueueSteadyState)->Arg(100)->Arg(10000);

// Same-instant bursts: many timers due at identical timestamps (period
// boundaries in GMP fire every node's window close at once); stresses
// FIFO tie-breaking on seq in the heap.
void BM_TimerQueueSameInstantBursts(benchmark::State& state) {
  constexpr int kBursts = 100;
  constexpr int kPerBurst = 100;
  sim::Simulator sim;
  std::int64_t fired = 0;
  std::deque<sim::Timer> timers;
  for (int i = 0; i < kBursts * kPerBurst; ++i) {
    timers.emplace_back(sim, countInto(fired));
  }
  for (auto _ : state) {
    for (int b = 0; b < kBursts; ++b) {
      for (int i = 0; i < kPerBurst; ++i) {
        timers[static_cast<std::size_t>(b * kPerBurst + i)].arm(
            Duration::millis(b));
      }
    }
    sim.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * kBursts * kPerBurst);
}
BENCHMARK(BM_TimerQueueSameInstantBursts);

void BM_TimerCancellation(benchmark::State& state) {
  constexpr int kTimers = 10000;
  sim::Simulator sim;
  std::int64_t fired = 0;
  std::deque<sim::Timer> timers;
  for (int i = 0; i < kTimers; ++i) timers.emplace_back(sim, countInto(fired));
  for (auto _ : state) {
    for (int i = 0; i < kTimers; ++i) {
      timers[static_cast<std::size_t>(i)].arm(Duration::micros(i + 1));
    }
    for (int i = 0; i < kTimers; i += 2) {
      timers[static_cast<std::size_t>(i)].cancel();
    }
    sim.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * kTimers);
}
BENCHMARK(BM_TimerCancellation);

// Re-arm-later churn: the DCF wake / NodeStack hold-retry shape, where a
// pending deadline is pushed out again and again before it fires. Each
// 1 us driver tick re-arms one of 8 timers to 50-100 us out — usually
// later than its pending deadline, so most arms are deferred re-arms.
struct RearmDriver {
  static constexpr int kTimers = 8;
  static constexpr int kTicks = 20000;
  explicit RearmDriver(sim::Simulator& sim)
      : tick{sim, sim::bind<&RearmDriver::onTick>(this)} {
    for (int i = 0; i < kTimers; ++i) {
      timers.emplace_back(sim, countInto(fired));
    }
  }
  void onTick() {
    timers[static_cast<std::size_t>(rng.uniformInt(0, kTimers - 1))].arm(
        Duration::micros(rng.uniformInt(50, 100)));
    if (++ticks < kTicks) tick.arm(Duration::micros(1));
  }
  Rng rng{3};
  int ticks = 0;
  std::int64_t fired = 0;
  std::deque<sim::Timer> timers;
  sim::Timer tick;
};

void BM_TimerRearm(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    sim::Simulator sim;
    RearmDriver driver{sim};
    driver.tick.arm(Duration::zero());
    state.ResumeTiming();
    sim.run();
    benchmark::DoNotOptimize(driver.fired);
  }
  state.SetItemsProcessed(state.iterations() * RearmDriver::kTicks);
}
BENCHMARK(BM_TimerRearm);

// One long stretch behind a far sentinel: 10^6 firings of 64 self-re-
// arming timers pass through the queue. The max_queued_keys counter
// (sampled every 1024 firings) shows the queue stays sized by its
// pending keys, not by everything it has popped.
void BM_TimerQueueLongRun(benchmark::State& state) {
  constexpr int kLive = 64;
  constexpr std::int64_t kEvents = 1'000'000;
  std::size_t maxKeys = 0;
  for (auto _ : state) {
    sim::Simulator sim;
    std::int64_t sentinelFired = 0;
    sim::Timer sentinel{sim, countInto(sentinelFired)};
    sentinel.arm(Duration::seconds(1000.0));
    ChainTimer::Chain chain{Rng{5}, 7, kEvents};
    std::deque<ChainTimer> timers;
    for (int i = 0; i < kLive; ++i) timers.emplace_back(sim, chain).arm();
    sim.runUntil(TimePoint{} + Duration::seconds(100.0));
    maxKeys = std::max(maxKeys, chain.maxKeys);
    benchmark::DoNotOptimize(chain.fired);
  }
  state.SetItemsProcessed(state.iterations() * kEvents);
  state.counters["max_queued_keys"] = static_cast<double>(maxKeys);
}
BENCHMARK(BM_TimerQueueLongRun);

scenarios::Scenario meshScenario(int nodes) {
  return scenarios::randomMesh(99, nodes, 250.0 * nodes / 4, 4);
}

/// Arg 800: the pinned dense set of Cliques.DenseMeshAllFlowCliquesArePinned
/// (every link on a route of denseMesh(1, 800, 100)'s flows; 673 links,
/// 1,536 cliques). Other args: every link of a random mesh of that many
/// nodes.
std::vector<topo::Link> cliqueBenchLinks(const scenarios::Scenario& sc,
                                         int n) {
  std::vector<topo::Link> links;
  if (n == 800) {
    std::set<topo::Link> onRoutes;
    for (const auto& f : sc.flows) {
      const auto path = topo::RoutingTree::shortestPaths(sc.topology, f.dst)
                            .pathFrom(f.src);
      for (std::size_t h = 0; h + 1 < path.size(); ++h) {
        onRoutes.insert(topo::Link{path[h], path[h + 1]});
      }
    }
    links.assign(onRoutes.begin(), onRoutes.end());
    return links;
  }
  for (topo::NodeId a = 0; a < sc.topology.numNodes(); ++a) {
    for (topo::NodeId b : sc.topology.neighbors(a)) {
      if (a < b) links.push_back(topo::Link{a, b});
    }
  }
  return links;
}

void BM_CliqueEnumeration(benchmark::State& state) {
  const auto n = static_cast<int>(state.range(0));
  const auto sc =
      n == 800 ? scenarios::denseMesh(1, 800, 100) : meshScenario(n);
  const std::vector<topo::Link> links = cliqueBenchLinks(sc, n);
  const topo::ConflictGraph graph{sc.topology, links};
  for (auto _ : state) {
    benchmark::DoNotOptimize(topo::enumerateMaximalCliques(graph));
  }
  state.SetLabel(std::to_string(links.size()) + " links");
}
BENCHMARK(BM_CliqueEnumeration)->Arg(12)->Arg(20)->Arg(800);

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
