// Microbenchmarks for the PHY frame pipeline (phys::Medium): isolated
// start/finish cost on constant-density random meshes, worst-case dense
// same-instant bursts, and dense macro scenarios under the full DES (GMP,
// and plain 802.11).
// tools/emit_bench_kernel.sh --medium runs these and emits
// BENCH_medium.json, the frame-pipeline performance trajectory artifact.
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "baselines/configs.hpp"
#include "net/network.hpp"
#include "phys/medium.hpp"
#include "scenarios/scenarios.hpp"
#include "sim/simulator.hpp"
#include "topology/topology.hpp"
#include "util/rng.hpp"

namespace {

using namespace maxmin;

/// Counts deliveries/corruptions; ignores carrier-sense transitions. The
/// counters keep the compiler from discarding the reception work.
class CountingRadio final : public phys::RadioListener {
 public:
  void onChannelBusy() override {}
  void onChannelIdle() override {}
  void onFrameReceived(const phys::Frame&) override { ++received; }
  void onFrameCorrupted(const phys::Frame&) override { ++corrupted; }
  std::int64_t received = 0;
  std::int64_t corrupted = 0;
};

phys::Frame dataFrame(topo::NodeId from, std::int64_t micros) {
  phys::Frame f;
  f.kind = phys::FrameKind::kData;
  f.transmitter = from;
  f.addressee = topo::kNoNode;  // Medium delivers to every node in range
  f.duration = Duration::micros(micros);
  return f;
}

/// A Medium with one counting radio per node and no MAC above it.
struct Harness {
  explicit Harness(topo::Topology t)
      : topo{std::move(t)},
        medium{sim, topo},
        radios(static_cast<std::size_t>(topo.numNodes())) {
    for (topo::NodeId n = 0; n < topo.numNodes(); ++n) {
      medium.attachRadio(n, &radios[static_cast<std::size_t>(n)]);
    }
  }
  sim::Simulator sim;
  topo::Topology topo;
  phys::Medium medium;
  std::vector<CountingRadio> radios;
};

/// Staggered start/finish churn: every node transmits one 100 us frame at
/// a random offset within a 400 us window, repeated for `kRounds` rounds
/// per iteration — the workload shape of a loaded but not pathological
/// mesh (partial overlap, mixed clean/corrupted receptions).
void BM_MediumStartFinish(benchmark::State& state) {
  const auto n = static_cast<int>(state.range(0));
  const auto sc = scenarios::randomMesh(
      99, n, scenarios::meshSideForDegree(n, 5.0), 2);
  Harness h{sc.topology};
  Rng rng{42};
  constexpr int kRounds = 10;
  std::int64_t frames = 0;
  for (auto _ : state) {
    for (int round = 0; round < kRounds; ++round) {
      for (topo::NodeId s = 0; s < h.topo.numNodes(); ++s) {
        h.sim.post(Duration::micros(rng.uniformInt(0, 400)),
                   [&h, s] { h.medium.startTransmission(dataFrame(s, 100)); });
      }
      h.sim.run();
      frames += h.topo.numNodes();
    }
  }
  state.SetItemsProcessed(frames);
  state.SetLabel("items = frames");
}
BENCHMARK(BM_MediumStartFinish)->Arg(50)->Arg(200)->Arg(800);

/// Worst-case contention: every node of a dense mesh (cs-degree ~58)
/// starts transmitting at the same instant — the shape of a saturated
/// slot under backpressure-style scheduling. This is the case the
/// O(active x receptions) corruption scan made quadratic.
void BM_MediumDenseBurst(benchmark::State& state) {
  const auto n = static_cast<int>(state.range(0));
  const auto sc = scenarios::denseMesh(7, n, 2);
  Harness h{sc.topology};
  constexpr int kBursts = 4;
  std::int64_t frames = 0;
  for (auto _ : state) {
    for (int burst = 0; burst < kBursts; ++burst) {
      for (topo::NodeId s = 0; s < h.topo.numNodes(); ++s) {
        h.medium.startTransmission(dataFrame(s, 100));
      }
      h.sim.run();
      frames += h.topo.numNodes();
    }
  }
  state.SetItemsProcessed(frames);
  state.SetLabel("items = frames");
}
BENCHMARK(BM_MediumDenseBurst)->Arg(50)->Arg(200)->Arg(800);

/// Dense macro scenario: the full DES (DCF + GMP + queues) on a 60-node
/// dense mesh, measured as simulator events per wall-second. Bounds how
/// much of the end-to-end budget the frame pipeline still costs when the
/// whole stack runs above it.
void BM_MediumDenseMacro(benchmark::State& state) {
  const auto sc = scenarios::denseMesh(5, 60, 8);
  net::NetworkConfig cfg = baselines::configGmp({});
  cfg.seed = 3;
  net::Network net{sc.topology, cfg, sc.flows};
  net.run(Duration::seconds(1.0));  // warm up queues and GMP state
  const std::uint64_t eventsBefore = net.simulator().executedEvents();
  for (auto _ : state) {
    net.run(Duration::seconds(0.5));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(
      net.simulator().executedEvents() - eventsBefore));
  state.SetLabel("items = simulator events");
}
BENCHMARK(BM_MediumDenseMacro)->Unit(benchmark::kMillisecond);

/// Dense 802.11: denseMesh(11, N, 20) under plain DCF through
/// Network::run, as simulator events per wall-second (and simulated
/// seconds per wall-second, which fewer events can raise). At N=800 most
/// nodes carry no flow, so this is where parked radios (no carrier-sense
/// callbacks or NAV/EIFS wakes for nodes with nothing to send) pay off;
/// N=200 is the short variant CI smoke-runs.
void BM_MediumDenseDcf(benchmark::State& state) {
  const auto sc =
      scenarios::denseMesh(11, static_cast<int>(state.range(0)), 20);
  net::NetworkConfig cfg = baselines::config80211({});
  cfg.seed = 11;
  net::Network net{sc.topology, cfg, sc.flows};
  net.run(Duration::seconds(1.0));  // fill the queues
  const std::uint64_t eventsBefore = net.simulator().executedEvents();
  constexpr double kSliceSeconds = 0.25;
  for (auto _ : state) {
    net.run(Duration::seconds(kSliceSeconds));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(
      net.simulator().executedEvents() - eventsBefore));
  state.counters["sim_s_per_s"] = benchmark::Counter(
      kSliceSeconds * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
  state.SetLabel("items = simulator events");
}
BENCHMARK(BM_MediumDenseDcf)->Arg(200)->Arg(800)->Unit(benchmark::kMillisecond);

/// Topology construction at scale: grid-bucketed neighbor discovery +
/// CSR assembly on a constant-density (~12 tx-degree) uniform layout.
/// Above the dense-adjacency threshold (2048 nodes) no n^2-bit matrices
/// are built, so memory — reported via the `bytes` counter — must track
/// nodes + edges. This is the N = 100k wall the old all-pairs loop
/// could not cross; tools/emit_bench_kernel.sh --topo snapshots it as
/// BENCH_topology.json.
void BM_TopologyConstruct(benchmark::State& state) {
  const auto n = static_cast<int>(state.range(0));
  const double side = scenarios::meshSideForDegree(n, 12.0);
  Rng rng{7};
  std::vector<topo::Point> pts;
  pts.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    pts.push_back({rng.uniformReal(0, side), rng.uniformReal(0, side)});
  }
  std::size_t bytes = 0;
  std::int64_t edges = 0;
  for (auto _ : state) {
    topo::Topology t = topo::Topology::fromPositions(pts);
    bytes = t.memoryFootprintBytes();
    edges = t.numEdges();
    benchmark::DoNotOptimize(t);
  }
  state.counters["bytes"] = static_cast<double>(bytes);
  state.counters["edges"] = static_cast<double>(edges);
  state.SetItemsProcessed(state.iterations() * n);
  state.SetLabel("items = nodes");
}
BENCHMARK(BM_TopologyConstruct)
    ->Unit(benchmark::kMillisecond)
    ->Arg(800)
    ->Arg(5000)
    ->Arg(20000)
    ->Arg(100000);

/// The staggered start/finish workload on a sparse-mode mesh (above the
/// dense threshold): exercises the per-cs-neighbor corruption probe and
/// CSR row iteration that large-N simulations run on.
void BM_MediumSparseStartFinish(benchmark::State& state) {
  const auto n = static_cast<int>(state.range(0));
  const auto sc = scenarios::randomMesh(
      99, n, scenarios::meshSideForDegree(n, 5.0), 2);
  Harness h{topo::Topology::fromPositions(
      [&] {
        std::vector<topo::Point> pts;
        for (topo::NodeId a = 0; a < sc.topology.numNodes(); ++a) {
          pts.push_back(sc.topology.position(a));
        }
        return pts;
      }(),
      topo::RadioRanges{}, topo::TopologyOptions{0})};
  Rng rng{42};
  constexpr int kRounds = 2;
  std::int64_t frames = 0;
  for (auto _ : state) {
    for (int round = 0; round < kRounds; ++round) {
      for (topo::NodeId s = 0; s < h.topo.numNodes(); ++s) {
        h.sim.post(Duration::micros(rng.uniformInt(0, 400)),
                   [&h, s] { h.medium.startTransmission(dataFrame(s, 100)); });
      }
      h.sim.run();
      frames += h.topo.numNodes();
    }
  }
  state.SetItemsProcessed(frames);
  state.SetLabel("items = frames");
}
BENCHMARK(BM_MediumSparseStartFinish)->Arg(5000)->Arg(20000);

}  // namespace

BENCHMARK_MAIN();
