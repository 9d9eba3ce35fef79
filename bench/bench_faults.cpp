// Robustness experiment (no counterpart figure in the paper): GMP under
// fault injection on the Fig. 4 topology.
//
// Three sessions are compared against the fault-free baseline:
//   * a mid-session crash of a relay node with later recovery,
//   * 20 % bursty (Gilbert-Elliott) loss on control frames,
//   * both at once.
// Reported per session: fairness before/after the disruption, the dip
// depth, how many 4 s adjustment periods GMP needs to re-converge to
// I_eq >= 0.9 after recovery, and the packets lost to the fault.
#include <benchmark/benchmark.h>

#include <iostream>

#include "analysis/disruption.hpp"
#include "bench/bench_util.hpp"
#include "scenarios/scenarios.hpp"

namespace {

using namespace maxmin;

constexpr double kCrashSeconds = 120.0;
constexpr double kRecoverSeconds = 160.0;
constexpr double kPeriodSeconds = 4.0;

phys::ImpairmentConfig burstyControlLoss() {
  // ~20 % steady-state loss, bursty: pGoodToBad / (pGoodToBad +
  // pBadToGood) = 0.05 / 0.25 = 0.2 with full loss in the bad state.
  phys::ImpairmentConfig cfg;
  cfg.gilbert.pGoodToBad = 0.05;
  cfg.gilbert.pBadToGood = 0.20;
  cfg.gilbert.lossBad = 1.0;
  cfg.scope = phys::ImpairmentConfig::Scope::kControlFrames;
  return cfg;
}

struct SessionSpec {
  std::string name;
  bool crash = false;
  bool bursty = false;
};

void faultRow(Table& t, const scenarios::Scenario& sc,
              const SessionSpec& spec) {
  analysis::RunConfig cfg = bench::paperRunConfig(analysis::Protocol::kGmp);
  if (spec.crash) {
    cfg.faults = scenarios::midSessionRelayCrash(
        sc, Duration::seconds(kCrashSeconds),
        Duration::seconds(kRecoverSeconds - kCrashSeconds));
  }
  if (spec.bursty) cfg.netBase.impairments = burstyControlLoss();
  const auto result = analysis::runScenario(sc, cfg);

  std::map<net::FlowId, int> hops;
  for (const auto& f : result.flows) hops[f.id] = f.hops;

  analysis::DisruptionConfig dc;
  dc.faultPeriod = static_cast<int>(kCrashSeconds / kPeriodSeconds);
  dc.recoveryPeriod =
      spec.crash ? static_cast<int>(kRecoverSeconds / kPeriodSeconds) : -1;
  auto report = analysis::analyzeDisruption(result.rateHistory, hops, dc);
  report.packetsLost =
      result.metrics.crashDrops + result.metrics.deadNeighborDrops +
      result.queueDrops;

  t.addRow({spec.name, Table::num(report.baselineIeq, 3),
            Table::num(report.dipIeq, 3), Table::num(report.dipDepth(), 3),
            report.periodsToReconverge < 0
                ? "never"
                : std::to_string(report.periodsToReconverge),
            Table::num(result.summary.ieq, 3),
            std::to_string(report.packetsLost),
            std::to_string(result.metrics.framesImpaired)});
}

void reproduceFaults() {
  std::cout << "== GMP graceful degradation, Fig. 4 (crash at "
            << kCrashSeconds << " s, recovery at " << kRecoverSeconds
            << " s, 400 s session) ==\n";
  const auto sc = scenarios::fig4();
  Table t({"session", "I_eq before", "I_eq dip", "dip depth",
           "periods to I_eq>=0.9", "final I_eq", "pkts lost",
           "frames impaired"});
  faultRow(t, sc, {"fault-free", false, false});
  faultRow(t, sc, {"relay crash+recover", true, false});
  faultRow(t, sc, {"20% bursty ctrl loss", false, true});
  faultRow(t, sc, {"crash + bursty loss", true, true});
  t.print(std::cout);
  std::cout
      << "\nThe crash severs one parallel chain's 2-hop flow; fairness dips "
         "while the controller decays the orphaned flow's limit, then the "
         "pre-fault limit is restored on recovery and I_eq climbs back "
         "within a few adjustment periods. Bursty control-frame loss alone "
         "leaves the out-of-band adjustment loop intact (it stresses the "
         "in-band dissemination path measured in control_plane_test).\n\n";
}

void BM_DisruptionAnalysis(benchmark::State& state) {
  analysis::RateHistory history;
  for (int p = 0; p < 100; ++p) {
    std::map<net::FlowId, double> rates;
    for (net::FlowId f = 0; f < 8; ++f) {
      rates[f] = (p >= 30 && p < 40 && f == 0) ? 2.0 : 100.0;
    }
    history.push_back(rates);
  }
  std::map<net::FlowId, int> hops;
  for (net::FlowId f = 0; f < 8; ++f) hops[f] = 2;
  analysis::DisruptionConfig dc;
  dc.faultPeriod = 30;
  dc.recoveryPeriod = 40;
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::analyzeDisruption(history, hops, dc));
  }
}
BENCHMARK(BM_DisruptionAnalysis);

}  // namespace

int main(int argc, char** argv) {
  reproduceFaults();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
