// maxmin_sim — command-line experiment runner.
//
// Runs any built-in scenario (or a random mesh) under 802.11 / 2PP / GMP
// and prints per-flow rates plus the paper's metrics, as a table or CSV.
//
// Examples:
//   maxmin_sim --scenario fig3 --protocol gmp
//   maxmin_sim --scenario fig2w --protocol gmp --duration 400 --seed 9
//   maxmin_sim --scenario mesh --nodes 12 --flows 5 --protocol 802.11 --csv
//   maxmin_sim --scenario fig4 --faults "crash 1 60; recover 1 100"
//   maxmin_sim --scenario fig3 --faults outage.faults --ge 0.05:0.25:1
//       --impair-scope control
#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "analysis/chaos_harness.hpp"
#include "analysis/experiment.hpp"
#include "analysis/trace_replay.hpp"
#include "exp/sweep.hpp"
#include "obs/profile.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "scenarios/scenarios.hpp"
#include "util/table.hpp"

namespace {

using namespace maxmin;

struct Options {
  std::string scenario = "fig3";
  std::string protocol = "gmp";
  double durationSeconds = 400.0;
  double warmupSeconds = 200.0;
  std::uint64_t seed = 7;
  int nodes = 12;       // mesh only
  int flows = 5;        // mesh only
  double area = 1000.0; // mesh only
  bool csv = false;
  bool sweep = false;     // run a seed sweep instead of a single run
  int runs = 16;          // sweep size (seeds seed..seed+runs-1)
  int jobs = 0;           // sweep worker threads; 0 = hardware concurrency
  std::string json;       // sweep only: write full JSON report here
  std::string faults;     // file path or inline script; empty = none
  double per = 0.0;       // uniform per-frame loss probability
  std::string ge;         // "pGoodToBad:pBadToGood:lossBad"
  std::string impairScope = "all";
  std::string trace;      // JSONL trace output path; empty = no tracing
  std::string traceLevel = "period";  // period|event
  bool fastForward = false;  // fluid fast-forward before t=0
  double ffTol = 0.02;       // fast-forward convergence tolerance
  bool hybrid = false;       // fluid background load (needs --foreground)
  std::string foreground;    // "0,3" or "auto:K": packet-simulated flows
  bool profile = false;   // per-site wall-time histograms on stderr
  bool metrics = false;   // metrics-registry dump on stderr (needs
                          // a MAXMIN_OBSERVABILITY=ON build to be non-empty)
  int chaos = 0;          // run N fuzzed fault schedules (0 = off)
  double chaosHorizon = 150.0;
  double chaosHeal = 56.0;
  double chaosTailIeq = 0.99;
  bool chaosCanary = false;  // disable repair: the fuzzer must catch it
};

[[noreturn]] void usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0 << " [options]\n"
      << "  --scenario  fig1|fig2|fig2w|fig3|fig4|chain|mesh|dense  (default fig3)\n"
      << "  --protocol  802.11|2pp|gmp                        (default gmp)\n"
      << "  --duration  seconds                               (default 400)\n"
      << "  --warmup    seconds                               (default 200)\n"
      << "  --seed      integer                               (default 7)\n"
      << "  --nodes/--flows/--area   random-mesh parameters\n"
      << "  --csv       emit CSV instead of a table\n"
      << "  --sweep     run a multi-seed sweep (seeds seed..seed+runs-1)\n"
      << "  --runs      sweep size                            (default 16)\n"
      << "  --jobs      sweep worker threads; 0 = all cores   (default 0)\n"
      << "  --json      sweep only: write the full JSON report to this file\n"
      << "  --faults    fault script: a file path, or inline text like\n"
      << "              \"crash 1 60; recover 1 100\" (see sim/fault_plane.hpp)\n"
      << "  --per       uniform per-frame loss probability      (default 0)\n"
      << "  --ge        Gilbert-Elliott bursty loss, pGoodToBad:pBadToGood:lossBad\n"
      << "  --impair-scope  all|control|data   frames hit by --per/--ge\n"
      << "  --trace FILE        write a structured JSONL trace of every GMP\n"
      << "                      period (fixed seed => byte-identical file)\n"
      << "  --trace-level  period|event        trace granularity (default period)\n"
      << "  --fast-forward      iterate the fluid GMP fixed point before t=0\n"
      << "                      and start the packet run inside its basin\n"
      << "                      (gmp only; see DESIGN.md §16)\n"
      << "  --ff-tol EPS        fast-forward convergence tolerance, as a\n"
      << "                      fraction of clique capacity   (default 0.02)\n"
      << "  --hybrid            advance all non-foreground flows with the\n"
      << "                      fluid solver, re-linearized each GMP period;\n"
      << "                      needs --foreground (gmp only; incompatible\n"
      << "                      with --faults/--per/--ge)\n"
      << "  --foreground LIST   packet-simulated flows under --hybrid: flow\n"
      << "                      ids like \"0,3\", or auto:K for the first K\n"
      << "  --profile   print per-callback-site wall-time histograms\n"
      << "  --metrics   print the metrics registry (counters are compiled\n"
      << "              in only with -DMAXMIN_OBSERVABILITY=ON)\n"
      << "  --chaos N           fuzz N seeded fault schedules (seeds seed..seed+N-1)\n"
      << "                      against the scenario and check the self-healing\n"
      << "                      invariants; exit 1 and print a replayable script\n"
      << "                      on any violation\n"
      << "  --chaos-horizon S   simulated seconds per schedule    (default 150)\n"
      << "  --chaos-heal S      all faults healed by here         (default 56)\n"
      << "  --chaos-tail-ieq X  re-convergence bar for the tail   (default 0.99)\n"
      << "  --chaos-canary      run with dominating-set repair disabled (the\n"
      << "                      coverage oracle must catch this)\n";
  std::exit(2);
}

/// The whole of `text` as a finite number of type T; anything else
/// (empty, trailing characters, out of range, nan, inf) is a usage error
/// naming `flag`.
template <typename T>
T parseNumber(const std::string& flag, const std::string& text) {
  T v{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  bool ok = ec == std::errc{} && ptr == end;
  if constexpr (std::is_floating_point_v<T>) ok = ok && std::isfinite(v);
  if (!ok) {
    std::cerr << flag << " expects a finite number, got '" << text << "'\n";
    std::exit(2);
  }
  return v;
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (arg == "--scenario") {
      o.scenario = value();
    } else if (arg == "--protocol") {
      o.protocol = value();
    } else if (arg == "--duration") {
      o.durationSeconds = parseNumber<double>(arg, value());
    } else if (arg == "--warmup") {
      o.warmupSeconds = parseNumber<double>(arg, value());
    } else if (arg == "--seed") {
      o.seed = parseNumber<std::uint64_t>(arg, value());
    } else if (arg == "--nodes") {
      o.nodes = parseNumber<int>(arg, value());
    } else if (arg == "--flows") {
      o.flows = parseNumber<int>(arg, value());
    } else if (arg == "--area") {
      o.area = parseNumber<double>(arg, value());
    } else if (arg == "--csv") {
      o.csv = true;
    } else if (arg == "--sweep") {
      o.sweep = true;
    } else if (arg == "--runs") {
      o.runs = parseNumber<int>(arg, value());
    } else if (arg == "--jobs") {
      o.jobs = parseNumber<int>(arg, value());
    } else if (arg == "--json") {
      o.json = value();
    } else if (arg == "--faults") {
      o.faults = value();
    } else if (arg == "--per") {
      o.per = parseNumber<double>(arg, value());
    } else if (arg == "--ge") {
      o.ge = value();
    } else if (arg == "--impair-scope") {
      o.impairScope = value();
    } else if (arg == "--trace") {
      o.trace = value();
    } else if (arg == "--trace-level") {
      o.traceLevel = value();
    } else if (arg == "--fast-forward") {
      o.fastForward = true;
    } else if (arg == "--ff-tol") {
      o.ffTol = parseNumber<double>(arg, value());
    } else if (arg == "--hybrid") {
      o.hybrid = true;
    } else if (arg == "--foreground") {
      o.foreground = value();
    } else if (arg == "--profile") {
      o.profile = true;
    } else if (arg == "--metrics") {
      o.metrics = true;
    } else if (arg == "--chaos") {
      o.chaos = parseNumber<int>(arg, value());
    } else if (arg == "--chaos-horizon") {
      o.chaosHorizon = parseNumber<double>(arg, value());
    } else if (arg == "--chaos-heal") {
      o.chaosHeal = parseNumber<double>(arg, value());
    } else if (arg == "--chaos-tail-ieq") {
      o.chaosTailIeq = parseNumber<double>(arg, value());
    } else if (arg == "--chaos-canary") {
      o.chaosCanary = true;
    } else {
      usage(argv[0]);
    }
  }
  return o;
}

/// `--faults` accepts either a script file or inline text.
sim::FaultScript loadFaultScript(const std::string& arg) {
  std::string text = arg;
  if (std::ifstream file{arg}; file) {
    std::ostringstream contents;
    contents << file.rdbuf();
    text = contents.str();
  }
  try {
    return sim::parseFaultScript(text);
  } catch (const std::exception& e) {
    std::cerr << "bad fault script: " << e.what() << '\n';
    std::exit(2);
  }
}

phys::ImpairmentConfig makeImpairments(const Options& o) {
  phys::ImpairmentConfig cfg;
  cfg.per = o.per;
  if (!o.ge.empty()) {
    char c1 = 0;
    char c2 = 0;
    std::istringstream in{o.ge};
    if (!(in >> cfg.gilbert.pGoodToBad >> c1 >> cfg.gilbert.pBadToGood >> c2 >>
          cfg.gilbert.lossBad) ||
        c1 != ':' || c2 != ':') {
      std::cerr << "--ge expects pGoodToBad:pBadToGood:lossBad\n";
      std::exit(2);
    }
  }
  if (o.impairScope == "all") {
    cfg.scope = phys::ImpairmentConfig::Scope::kAllFrames;
  } else if (o.impairScope == "control") {
    cfg.scope = phys::ImpairmentConfig::Scope::kControlFrames;
  } else if (o.impairScope == "data") {
    cfg.scope = phys::ImpairmentConfig::Scope::kDataFrames;
  } else {
    std::cerr << "unknown --impair-scope '" << o.impairScope << "'\n";
    std::exit(2);
  }
  return cfg;
}

/// `--foreground` accepts an explicit id list ("0,3,5") or "auto:K"
/// (the scenario's first K flows). analysis::validate checks the ids
/// against the scenario.
std::vector<net::FlowId> parseForeground(const std::string& spec,
                                         const scenarios::Scenario& scenario) {
  std::vector<net::FlowId> ids;
  if (spec.rfind("auto:", 0) == 0) {
    int k = 0;
    try {
      k = std::stoi(spec.substr(5));
    } catch (const std::exception&) {
      k = 0;
    }
    if (k <= 0) {
      std::cerr << "--foreground auto:K needs K >= 1\n";
      std::exit(2);
    }
    for (std::size_t i = 0;
         i < std::min<std::size_t>(scenario.flows.size(),
                                   static_cast<std::size_t>(k));
         ++i) {
      ids.push_back(scenario.flows[i].id);
    }
  } else {
    std::istringstream in{spec};
    for (std::string tok; std::getline(in, tok, ',');) {
      try {
        ids.push_back(std::stoi(tok));
      } catch (const std::exception&) {
        std::cerr << "--foreground: bad flow id '" << tok << "'\n";
        std::exit(2);
      }
    }
  }
  return ids;
}

scenarios::Scenario pickScenario(const Options& o) {
  if (o.scenario == "fig1") return scenarios::fig1();
  if (o.scenario == "fig2") return scenarios::fig2();
  if (o.scenario == "fig2w") return scenarios::fig2({1, 2, 1, 3});
  if (o.scenario == "fig3") return scenarios::fig3();
  if (o.scenario == "fig4") return scenarios::fig4();
  if (o.scenario == "chain") return scenarios::chain(5);
  // The generators check their command-line parameters (--nodes 0, ...);
  // a rejected value is a usage error.
  try {
    if (o.scenario == "mesh") {
      return scenarios::randomMesh(o.seed, o.nodes, o.area, o.flows);
    }
    if (o.scenario == "dense") {
      return scenarios::denseMesh(o.seed, o.nodes, o.flows);
    }
  } catch (const std::exception& e) {
    std::cerr << "bad --scenario " << o.scenario
              << " parameters: " << e.what() << '\n';
    std::exit(2);
  }
  std::cerr << "unknown scenario '" << o.scenario << "'\n";
  std::exit(2);
}

analysis::Protocol pickProtocol(const Options& o) {
  if (o.protocol == "802.11" || o.protocol == "dcf") {
    return analysis::Protocol::kDcf80211;
  }
  if (o.protocol == "2pp") return analysis::Protocol::kTwoPhase;
  if (o.protocol == "gmp") return analysis::Protocol::kGmp;
  std::cerr << "unknown protocol '" << o.protocol << "'\n";
  std::exit(2);
}

int runChaos(const scenarios::Scenario& scenario, const Options& options) {
  analysis::ChaosParams params;
  params.horizonSeconds = options.chaosHorizon;
  params.healBySeconds = options.chaosHeal;
  params.tailIeq = options.chaosTailIeq;
  params.repairEnabled = !options.chaosCanary;
  if (params.healBySeconds >= params.horizonSeconds) {
    std::cerr << "--chaos-heal must leave a fault-free tail before "
                 "--chaos-horizon\n";
    return 2;
  }

  std::vector<analysis::ChaosOutcome> outcomes;
  try {
    outcomes = analysis::runChaosBatch(scenario, options.seed, options.chaos,
                                       params);
  } catch (const std::exception& e) {
    // The schedule generator rejects windows too short for its outages.
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
  int failed = 0;
  for (const auto& o : outcomes) {
    if (o.ok) continue;
    ++failed;
    std::cout << "FAIL seed=" << o.seed << " (" << o.periodsRun
              << " periods, tail I_eq " << o.tailIeq << ")\n";
    for (const auto& v : o.violations) std::cout << "  " << v << '\n';
    std::cout << "  replay with --faults on this script:\n";
    std::istringstream lines{o.script};
    for (std::string line; std::getline(lines, line);) {
      std::cout << "    " << line << '\n';
    }
  }
  std::int64_t repairs = 0;
  std::int64_t retransmits = 0;
  for (const auto& o : outcomes) {
    repairs += o.relayRepairs;
    retransmits += o.retransmits;
  }
  std::cout << (options.chaos - failed) << '/' << options.chaos
            << " chaos schedules ok on " << scenario.name << " (seeds "
            << options.seed << ".." << options.seed + options.chaos - 1
            << ", " << repairs << " relay repairs, " << retransmits
            << " retransmits)\n";
  return failed == 0 ? 0 : 1;
}

int runSweep(const scenarios::Scenario& scenario,
             const analysis::RunConfig& base, const Options& options) {
  if (options.runs <= 0) {
    std::cerr << "--runs must be positive\n";
    return 2;
  }
  // A mesh scenario is itself seed-derived: regenerate the topology per
  // seed so the sweep samples topologies, not just MAC/arrival noise.
  std::vector<exp::SweepJob> jobs;
  if (options.scenario == "mesh" || options.scenario == "dense") {
    for (int i = 0; i < options.runs; ++i) {
      exp::SweepJob job;
      job.config = base;
      job.config.seed = base.seed + static_cast<std::uint64_t>(i);
      job.scenario =
          options.scenario == "dense"
              ? scenarios::denseMesh(job.config.seed, options.nodes,
                                     options.flows)
              : scenarios::randomMesh(job.config.seed, options.nodes,
                                      options.area, options.flows);
      job.label = job.scenario.name + "/" +
                  analysis::protocolName(base.protocol) +
                  "/seed=" + std::to_string(job.config.seed);
      jobs.push_back(std::move(job));
    }
  } else {
    jobs = exp::seedGrid(scenario, base, options.runs);
  }

  const exp::SweepRunner runner{options.jobs};
  const auto outcomes = runner.runAll(jobs);
  const auto summary = exp::summarize(outcomes);

  Table perRun({"run", "seed", "I_mm", "I_eq", "U_pkt_hops_per_s",
                "queue_drops", "wall_s"});
  for (const auto& o : outcomes) {
    if (o.ok) {
      perRun.addRow({o.label, std::to_string(o.seed),
                     Table::num(o.result.summary.imm, 4),
                     Table::num(o.result.summary.ieq, 4),
                     Table::num(o.result.summary.effectiveThroughputPps),
                     std::to_string(o.result.queueDrops),
                     Table::num(o.wallSeconds, 2)});
    } else {
      perRun.addRow({o.label, std::to_string(o.seed), "FAIL", "-", "-", "-",
                     Table::num(o.wallSeconds, 2)});
    }
  }
  Table agg({"metric", "mean", "stddev", "min", "max"});
  const auto statRow = [&agg](const std::string& name,
                              const RunningStats& st) {
    agg.addRow({name, Table::num(st.mean(), 4), Table::num(st.stddev(), 4),
                Table::num(st.min(), 4), Table::num(st.max(), 4)});
  };
  statRow("I_mm", summary.imm);
  statRow("I_eq", summary.ieq);
  statRow("U_pkt_hops_per_s", summary.throughputPps);
  statRow("queue_drops", summary.queueDrops);
  statRow("wall_s", summary.wallSeconds);

  if (options.csv) {
    perRun.printCsv(std::cout);
    std::cout << '\n';
    agg.printCsv(std::cout);
  } else {
    perRun.print(std::cout);
    std::cout << '\n' << summary.total - summary.failed << '/' << summary.total
              << " runs ok, " << runner.jobs() << " jobs\n\n";
    agg.print(std::cout);
  }
  for (const auto& o : outcomes) {
    if (!o.ok) std::cerr << o.label << ": " << o.error << '\n';
  }

  if (!options.json.empty()) {
    std::ofstream out{options.json};
    if (!out) {
      std::cerr << "cannot write " << options.json << '\n';
      return 2;
    }
    exp::writeJson(out, outcomes, summary);
  }
  return summary.failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse(argc, argv);
  const auto scenario = pickScenario(options);

  if (options.chaos > 0) return runChaos(scenario, options);

  if (options.profile) obs::Profiler::setEnabled(true);
  if (options.metrics) obs::Registry::setEnabled(true);
  std::unique_ptr<obs::TraceSink> trace;
  if (!options.trace.empty()) {
    const auto level = obs::parseTraceLevel(options.traceLevel);
    if (!level) {
      std::cerr << "unknown --trace-level '" << options.traceLevel
                << "' (expected period|event)\n";
      return 2;
    }
    trace = obs::TraceSink::openFile(options.trace, *level);
    if (!trace) {
      std::cerr << "cannot write trace file " << options.trace << "\n";
      return 2;
    }
  }

  analysis::RunConfig cfg;
  cfg.protocol = pickProtocol(options);
  cfg.duration = Duration::seconds(options.durationSeconds);
  cfg.warmup = Duration::seconds(options.warmupSeconds);
  cfg.seed = options.seed;
  if (!options.faults.empty()) cfg.faults = loadFaultScript(options.faults);
  cfg.netBase.impairments = makeImpairments(options);
  cfg.hybrid.fastForward = options.fastForward;
  cfg.hybrid.ffTol = options.ffTol;
  cfg.hybrid.background = options.hybrid;
  if (!options.foreground.empty()) {
    cfg.hybrid.foreground = parseForeground(options.foreground, scenario);
  }
  if (const auto errors = analysis::validate(cfg, scenario); !errors.empty()) {
    for (const std::string& e : errors) std::cerr << e << '\n';
    return 2;
  }
  cfg.trace = trace.get();

  if (options.sweep) return runSweep(scenario, cfg, options);

  analysis::RunResult result;
  try {
    result = analysis::runScenario(scenario, cfg);
  } catch (const std::exception& e) {
    // A fault script can be well-formed yet invalid for the chosen
    // scenario (e.g. it names a node the topology doesn't have); that
    // is a usage error, not a simulator bug.
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }

  // Background (fluid-advanced) flows are tagged in the name column;
  // with hybrid off the table is byte-identical to earlier builds.
  Table table({"flow", "src>dst", "weight", "hops", "rate_pps", "mu"});
  for (std::size_t i = 0; i < result.flows.size(); ++i) {
    const auto& f = result.flows[i];
    const auto& spec = scenario.flows[i];
    table.addRow({f.background ? f.name + " (bg)" : f.name,
                  std::to_string(spec.src) + ">" + std::to_string(spec.dst),
                  Table::num(f.weight, 1), std::to_string(f.hops),
                  Table::num(f.ratePps), Table::num(f.ratePps / f.weight)});
  }
  Table metrics({"metric", "value"});
  metrics.addRow({"protocol", analysis::protocolName(result.protocol)});
  metrics.addRow({"scenario", scenario.name});
  metrics.addRow({"U_pkt_hops_per_s",
                  Table::num(result.summary.effectiveThroughputPps)});
  metrics.addRow({"I_mm", Table::num(result.summary.imm, 4)});
  metrics.addRow({"I_eq", Table::num(result.summary.ieq, 4)});
  metrics.addRow({"I_mm_normalized",
                  Table::num(result.normalizedSummary.imm, 4)});
  metrics.addRow({"queue_drops", std::to_string(result.queueDrops)});
  const bool faulted =
      !options.faults.empty() || cfg.netBase.impairments.enabled();
  if (faulted) {
    metrics.addRow({"crash_drops", std::to_string(result.crashDrops)});
    metrics.addRow(
        {"dead_nexthop_drops", std::to_string(result.deadNeighborDrops)});
    metrics.addRow({"frames_impaired", std::to_string(result.framesImpaired)});
    metrics.addRow(
        {"frames_suppressed", std::to_string(result.framesSuppressed)});
    metrics.addRow({"stale_meas_used",
                    std::to_string(result.staleMeasurementsUsed)});
    metrics.addRow({"limits_restored", std::to_string(result.limitsRestored)});
  }
  if (cfg.hybrid.enabled()) {
    if (cfg.hybrid.fastForward) {
      metrics.addRow({"ff_periods", std::to_string(result.ffPeriods)});
      metrics.addRow({"ff_converged", result.ffConverged ? "1" : "0"});
      metrics.addRow({"seeded_packets", std::to_string(result.seededPackets)});
    }
    if (cfg.hybrid.background) {
      metrics.addRow({"background_flows",
                      std::to_string(result.backgroundFlows)});
      metrics.addRow({"relinearizations",
                      std::to_string(result.relinearizations)});
      metrics.addRow({"phantom_bursts",
                      std::to_string(result.phantomBursts)});
    }
  }

  if (options.csv) {
    table.printCsv(std::cout);
    std::cout << '\n';
    metrics.printCsv(std::cout);
  } else {
    table.print(std::cout);
    std::cout << '\n';
    metrics.print(std::cout);
    if (!result.violationHistory.empty()) {
      std::cout << "\nGMP violations per period:";
      for (int v : result.violationHistory) std::cout << ' ' << v;
      std::cout << '\n';
    }
  }
  // Diagnostics go to stderr so --csv output stays machine-clean.
  if (options.profile) obs::Profiler::global().printTable(std::cerr);
  if (options.metrics) obs::Registry::global().printTable(std::cerr);
  return 0;
}
