// Frame-pipeline regression tests for the packed-adjacency Medium:
//
//  * a dense same-instant-burst workload whose delivered/corrupted
//    counters and per-receiver outcomes were golden-captured from the
//    pre-rewrite O(active x receptions) implementation — the rewrite must
//    reproduce them exactly;
//  * an allocation-count assertion (via a counting global operator new)
//    that steady-state startTransmission/finishTransmission perform zero
//    heap allocations once the slot/spill pools reach their high-water
//    marks.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <deque>
#include <new>
#include <vector>

#include "phys/medium.hpp"
#include "scenarios/scenarios.hpp"
#include "sim/fault_plane.hpp"
#include "sim/simulator.hpp"
#include "sim/timer.hpp"
#include "util/rng.hpp"

namespace {

std::atomic<std::uint64_t> g_heapAllocs{0};

}  // namespace

// Counting global operator new: every heap allocation in this test binary
// bumps g_heapAllocs. Deletes are forwarded to free untouched. noinline:
// when sanitizer instrumentation inlines these into a call site, GCC's
// mismatched-new-delete checker sees the raw malloc/free pair through
// the operator boundary and reports a false positive.
__attribute__((noinline)) void* operator new(std::size_t size) {
  g_heapAllocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc{};
}
__attribute__((noinline)) void* operator new[](std::size_t size) {
  g_heapAllocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc{};
}
__attribute__((noinline)) void operator delete(void* p) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete[](void* p) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete[](void* p,
                                                 std::size_t) noexcept {
  std::free(p);
}

namespace maxmin::phys {
namespace {

class CountingRadio final : public RadioListener {
 public:
  void onChannelBusy() override {}
  void onChannelIdle() override {}
  void onFrameReceived(const Frame&) override { ++received; }
  void onFrameCorrupted(const Frame&) override { ++corrupted; }
  void onTxEnd() override {}
  std::int64_t received = 0;
  std::int64_t corrupted = 0;
};

Frame dataFrame(topo::NodeId from, std::int64_t micros) {
  Frame f;
  f.kind = FrameKind::kData;
  f.transmitter = from;
  f.addressee = topo::kNoNode;
  f.duration = Duration::micros(micros);
  return f;
}

struct DenseFixture {
  DenseFixture()
      : scenario{scenarios::denseMesh(21, 40, 1)},
        medium{sim, scenario.topology},
        radios(40) {
    for (topo::NodeId n = 0; n < 40; ++n) {
      medium.attachRadio(n, &radios[static_cast<std::size_t>(n)]);
      starters.emplace_back(*this, n);
    }
  }

  /// Starts one node's frame when it fires; built once, so the waves
  /// below allocate nothing.
  struct Starter {
    Starter(DenseFixture& f, topo::NodeId n)
        : fixture{&f}, node{n}, timer{f.sim, sim::bind<&Starter::fire>(this)} {}
    void fire() { fixture->medium.startTransmission(dataFrame(node, 100)); }
    DenseFixture* fixture;
    topo::NodeId node;
    sim::Timer timer;
  };

  /// The golden workload: a same-instant burst from every fourth node, a
  /// staggered overlapping wave, a sequential clean wave, and a full
  /// same-instant burst from all 40 nodes.
  void runBurstPattern() {
    for (topo::NodeId s = 0; s < 40; s += 4) {
      medium.startTransmission(dataFrame(s, 100));
    }
    sim.run();
    for (topo::NodeId s = 0; s < 40; ++s) {
      starters[static_cast<std::size_t>(s)].timer.arm(
          Duration::micros((s % 5) * 60));
    }
    sim.run();
    for (topo::NodeId s = 0; s < 10; ++s) {
      starters[static_cast<std::size_t>(s)].timer.arm(
          Duration::micros(s * 150));
    }
    sim.run();
    for (topo::NodeId s = 0; s < 40; ++s) {
      medium.startTransmission(dataFrame(s, 100));
    }
    sim.run();
  }

  scenarios::Scenario scenario;
  sim::Simulator sim;
  Medium medium;
  std::vector<CountingRadio> radios;
  std::deque<Starter> starters;  ///< by node; timers must not move
};

// Golden counters captured from the pre-rewrite implementation (the
// O(active x receptions) scan with per-call inCsRange distance checks) on
// this exact fixture. The packed-adjacency pipeline changes only how the
// corruption relation is computed, never its outcome.
TEST(MediumDenseBurst, MatchesGoldenCountersFromLinearScanImplementation) {
  DenseFixture f;
  f.runBurstPattern();

  EXPECT_EQ(f.medium.framesDelivered(), 88u);
  EXPECT_EQ(f.medium.framesCorrupted(), 692u);
  EXPECT_EQ(f.medium.framesImpaired(), 0u);
  EXPECT_EQ(f.medium.framesSuppressed(), 0u);

  // Per-receiver outcomes, folded FNV-style so a single flipped delivery
  // anywhere in the mesh fails the test.
  std::uint64_t rxHash = 1469598103934665603ULL;
  for (int n = 0; n < 40; ++n) {
    rxHash = (rxHash ^ static_cast<std::uint64_t>(
                           f.radios[static_cast<std::size_t>(n)].received)) *
             1099511628211ULL;
    rxHash = (rxHash ^ static_cast<std::uint64_t>(
                           f.radios[static_cast<std::size_t>(n)].corrupted)) *
             1099511628211ULL;
  }
  EXPECT_EQ(rxHash, 2736256693161567801ULL);

  // Spot checks so a failure localizes without decoding the hash.
  EXPECT_EQ(f.radios[0].received, 5);
  EXPECT_EQ(f.radios[0].corrupted, 26);
  EXPECT_EQ(f.radios[4].received, 1);
  EXPECT_EQ(f.radios[4].corrupted, 13);
  EXPECT_EQ(f.radios[7].received, 5);
  EXPECT_EQ(f.radios[7].corrupted, 27);
}

TEST(MediumAllocation, SteadyStateStartFinishIsAllocationFree) {
  DenseFixture f;
  // Warm every pool to its high-water mark: transmission records (each
  // with its finish timer), spill blocks and the DES kernel's heap
  // vector. Several warmup patterns, not one, so every pool has seen
  // the pattern's peak before counting starts.
  for (int i = 0; i < 6; ++i) f.runBurstPattern();
  const std::size_t slotsWarm = f.medium.activeSlotHighWater();
  const std::size_t blocksWarm = f.medium.spillBlockHighWater();
  ASSERT_GT(blocksWarm, 0u);  // dense mesh: tx degree exceeds inline 8

  const std::uint64_t allocsBefore =
      g_heapAllocs.load(std::memory_order_relaxed);
  f.runBurstPattern();
  const std::uint64_t allocsAfter =
      g_heapAllocs.load(std::memory_order_relaxed);

  EXPECT_EQ(allocsAfter - allocsBefore, 0u)
      << "steady-state frame pipeline must not touch the heap";
  EXPECT_EQ(f.medium.activeSlotHighWater(), slotsWarm);
  EXPECT_EQ(f.medium.spillBlockHighWater(), blocksWarm);
}

// The free list is shared by the silent (crashed-sender) and radiating
// paths: a silent transmission recycles the same records and stays
// allocation-free too.
TEST(MediumAllocation, SilentPathSharesRecycledRecords) {
  DenseFixture f;
  sim::FaultScript script;
  sim::FaultEvent crash;
  crash.at = TimePoint::origin();
  crash.kind = sim::FaultEvent::Kind::kNodeDown;
  crash.node = 3;
  script.events = {crash};
  sim::FaultPlane faults{f.sim, f.scenario.topology.numNodes(), script,
                         Rng{1}};
  f.medium.setFaultPlane(&faults);
  faults.start();
  f.sim.run();  // node 3 is down from here on
  // Warm pools with node 3's transmissions silent (same multi-pattern
  // warmup as above).
  for (int i = 0; i < 6; ++i) f.runBurstPattern();
  const std::size_t slotsWarm = f.medium.activeSlotHighWater();

  const std::uint64_t allocsBefore =
      g_heapAllocs.load(std::memory_order_relaxed);
  f.runBurstPattern();
  EXPECT_EQ(g_heapAllocs.load(std::memory_order_relaxed) - allocsBefore, 0u);
  EXPECT_EQ(f.medium.activeSlotHighWater(), slotsWarm);
  EXPECT_GT(f.medium.framesSuppressed(), 0u);
}

}  // namespace
}  // namespace maxmin::phys
