// perfbench_sim — runs one instance of a benchmark workload through the
// same public calls as analysis::runScenario and times each call from
// outside the library:
//
//   scenarios::* -> net::Network -> gmp::Controller ctor+start
//   -> hybrid::Engine ctor/fastForward/start -> Network::run(warmup)
//   -> snapshot -> Network::run(rest) -> analysis::summarize
//
// Prints one JSON object on stdout: end-to-end timings, per-layer counters,
// the output fingerprint and the validity verdict. perfbench/run.py drives
// it; see perfbench/README.md.
//
//   perfbench_sim --workload NAME --seed N [--traced] [--spans FILE]
//   perfbench_sim --workload NAME --seed N --check
//
// --traced records a span around every public call (and around each fixed
// simulated slice of run()), captures the GMP period snapshots and replays
// Engine::decide on them, and writes the spans to FILE at exit. --check
// runs the workload at a short horizon three ways — untraced, traced, and
// through analysis::runScenario — and fails unless all three fingerprints
// agree.
#include <algorithm>
#include <bit>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/experiment.hpp"
#include "analysis/metrics.hpp"
#include "baselines/configs.hpp"
#include "gmp/controller.hpp"
#include "gmp/engine.hpp"
#include "hybrid/engine.hpp"
#include "net/network.hpp"
#include "obs/json.hpp"
#include "scenarios/scenarios.hpp"

namespace {

using namespace maxmin;
using Clock = std::chrono::steady_clock;

struct Workload {
  std::string_view name;
  bool dense;  ///< denseMesh (constant density) instead of randomMesh
  int nodes;
  int flows;
  analysis::Protocol protocol;
  double durationS;
  double warmupS;
  /// >0: hybrid fast-forward plus background mode, with the scenario's
  /// first `foreground` flows packet-simulated.
  int foreground;
  /// Traced runs split run() into slices of this many simulated seconds.
  double sliceS;
  /// Short horizon for --check.
  double checkDurationS;
  double checkWarmupS;
  /// Set-ups timed per instance (the last one is the one that runs);
  /// setup_s is their median.
  int setupReps;
};

constexpr double kMeshArea = 1000.0;  // maxmin-sim's default --area

// Horizons are short enough that one run of perfbench/run.py covers a
// dozen or more topologies: the cost of these scenarios varies by 10-20 %
// from one random topology to the next, and only a median over many of
// them repeats from seed to seed.
constexpr Workload kWorkloads[] = {
    {"mesh20_gmp", false, 20, 12, analysis::Protocol::kGmp, 250.0, 100.0, 0,
     10.0, 100.0, 40.0, 50},
    {"dense800_dcf", true, 800, 20, analysis::Protocol::kDcf80211, 12.0, 4.0,
     0, 0.1, 2.0, 1.0, 10},
    {"dense800_hybrid", true, 800, 100, analysis::Protocol::kGmp, 8.0, 4.0, 8,
     0.1, 8.0, 4.0, 1},
};

const Workload* findWorkload(std::string_view name) {
  for (const Workload& w : kWorkloads) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

double secondsSince(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double>(t1 - t0).count();
}

/// Spans kept in memory: name, start, end, parent and run id. Recording
/// is off in untraced runs; span() still returns the call's wall time.
class Tracer {
 public:
  struct Span {
    std::string name;
    double startS = 0.0;
    double endS = 0.0;
    int parent = -1;
    std::int64_t runId = 0;  ///< the instance's topology seed
  };

  Tracer(bool enabled, std::int64_t runId)
      : enabled_{enabled}, runId_{runId} {}

  [[nodiscard]] bool enabled() const { return enabled_; }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Run `fn` inside a span named `name`; returns its wall seconds.
  template <typename Fn>
  double span(std::string_view name, Fn&& fn) {
    int id = -1;
    if (enabled_) {
      id = static_cast<int>(spans_.size());
      spans_.push_back({std::string{name}, 0.0, 0.0,
                        open_.empty() ? -1 : open_.back(), runId_});
      open_.push_back(id);
    }
    const Clock::time_point t0 = Clock::now();
    fn();
    const Clock::time_point t1 = Clock::now();
    if (id >= 0) {
      spans_[static_cast<std::size_t>(id)].startS = secondsSince(origin_, t0);
      spans_[static_cast<std::size_t>(id)].endS = secondsSince(origin_, t1);
      open_.pop_back();
    }
    return secondsSince(t0, t1);
  }

  /// Duration of span `id` minus the time its direct children cover.
  [[nodiscard]] double selfSeconds(int id) const {
    const Span& s = spans_.at(static_cast<std::size_t>(id));
    double self = s.endS - s.startS;
    for (const Span& c : spans_) {
      if (c.parent == id) self -= c.endS - c.startS;
    }
    return self;
  }

  /// Sum of the durations of every span called `name`.
  [[nodiscard]] double total(std::string_view name) const {
    double sum = 0.0;
    for (const Span& s : spans_) {
      if (s.name == name) sum += s.endS - s.startS;
    }
    return sum;
  }

  void write(std::ostream& out) const {
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      obs::JsonWriter j;
      j.beginObject()
          .key("id").value(static_cast<std::int64_t>(i))
          .key("name").value(s.name)
          .key("start_s").value(s.startS)
          .key("end_s").value(s.endS)
          .key("parent").value(s.parent)
          .key("run").value(s.runId)
          .endObject();
      out << j.str() << '\n';
    }
  }

 private:
  bool enabled_;
  std::int64_t runId_;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
};

scenarios::Scenario makeScenario(const Workload& w, std::uint64_t seed) {
  return w.dense ? scenarios::denseMesh(seed, w.nodes, w.flows)
                 : scenarios::randomMesh(seed, w.nodes, kMeshArea, w.flows);
}

analysis::RunConfig makeConfig(const Workload& w, std::uint64_t seed,
                               const scenarios::Scenario& scenario,
                               bool shortHorizon) {
  analysis::RunConfig cfg;
  cfg.protocol = w.protocol;
  cfg.duration =
      Duration::seconds(shortHorizon ? w.checkDurationS : w.durationS);
  cfg.warmup = Duration::seconds(shortHorizon ? w.checkWarmupS : w.warmupS);
  cfg.seed = seed;
  if (w.foreground > 0) {
    cfg.hybrid.fastForward = true;
    cfg.hybrid.background = true;
    for (int i = 0; i < w.foreground; ++i) {
      cfg.hybrid.foreground.push_back(
          scenario.flows.at(static_cast<std::size_t>(i)).id);
    }
  }
  return cfg;
}

/// What one instance produced, as the fingerprint and validity check see it.
struct Outcome {
  std::map<net::FlowId, double> rates;
  analysis::FairnessSummary summary;
  std::int64_t queueDrops = 0;
};

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t word) {
  for (int i = 0; i < 8; ++i) {
    h ^= (word >> (8 * i)) & 0xffU;
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Hash of the per-flow rates at full precision, I_mm, I_eq, U and queue
/// drops, in scenario flow order.
std::string fingerprint(const scenarios::Scenario& scenario,
                        const std::map<net::FlowId, double>& rates,
                        const analysis::FairnessSummary& summary,
                        std::int64_t queueDrops) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const net::FlowSpec& f : scenario.flows) {
    h = fnv1a(h, static_cast<std::uint64_t>(f.id));
    h = fnv1a(h, std::bit_cast<std::uint64_t>(rates.at(f.id)));
  }
  h = fnv1a(h, std::bit_cast<std::uint64_t>(summary.imm));
  h = fnv1a(h, std::bit_cast<std::uint64_t>(summary.ieq));
  h = fnv1a(h, std::bit_cast<std::uint64_t>(summary.effectiveThroughputPps));
  h = fnv1a(h, static_cast<std::uint64_t>(queueDrops));
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

/// Empty when the outputs are plausible; otherwise the first violation.
std::string validate(const scenarios::Scenario& scenario, const Outcome& o) {
  for (const net::FlowSpec& f : scenario.flows) {
    const auto it = o.rates.find(f.id);
    if (it == o.rates.end()) return "no rate for flow " + f.name;
    const double r = it->second;
    if (!std::isfinite(r) || r < 0.0 || r > f.desiredRate.asPerSecond()) {
      return "flow " + f.name + " rate " + std::to_string(r) +
             " outside [0, desired]";
    }
  }
  const auto unit = [](double x) { return std::isfinite(x) && x >= 0.0 && x <= 1.0; };
  if (!unit(o.summary.imm)) return "I_mm outside [0, 1]";
  if (!unit(o.summary.ieq)) return "I_eq outside [0, 1]";
  return {};
}

/// The live objects of one instance, declared so that destruction runs
/// hybrid engine, controller, network — the reverse of construction.
struct Instance {
  scenarios::Scenario scenario;
  analysis::RunConfig config;
  std::unique_ptr<net::Network> net;
  std::optional<gmp::Controller> controller;
  std::optional<hybrid::Engine> hybridEngine;
};

/// Everything up to the first event, as analysis::runScenario does it.
void setUp(Instance& in, const Workload& w, std::uint64_t seed,
           bool shortHorizon, Tracer& tr) {
  tr.span("scenarios.build", [&] { in.scenario = makeScenario(w, seed); });
  in.config = makeConfig(w, seed, in.scenario, shortHorizon);
  net::NetworkConfig nc = in.config.netBase;
  nc.seed = in.config.seed;
  nc = w.protocol == analysis::Protocol::kGmp ? baselines::configGmp(nc)
                                              : baselines::config80211(nc);
  tr.span("net.construct", [&] {
    in.net = std::make_unique<net::Network>(
        in.scenario.topology, nc,
        hybrid::Engine::foregroundFlows(in.scenario.flows, in.config.hybrid));
  });
  if (w.protocol != analysis::Protocol::kGmp) return;
  tr.span("gmp.controller_setup", [&] {
    in.controller.emplace(*in.net, in.config.gmpParams);
    in.controller->setTraceSink(in.config.trace);
    in.controller->start();
  });
  if (!in.config.hybrid.enabled()) return;
  tr.span("hybrid.construct", [&] {
    in.hybridEngine.emplace(*in.net, *in.controller, in.scenario.flows,
                            in.config.gmpParams, in.config.hybrid);
  });
  tr.span("hybrid.fast_forward", [&] { in.hybridEngine->fastForward(); });
  tr.span("hybrid.start", [&] { in.hybridEngine->start(); });
}

/// Network::run(d); traced runs split it into fixed simulated slices,
/// one span each.
void runNet(net::Network& net, Duration d, Duration slice, Tracer& tr) {
  if (!tr.enabled()) {
    net.run(d);
    return;
  }
  const TimePoint end = net.now() + d;
  while (net.now() < end) {
    const Duration step = std::min(slice, end - net.now());
    tr.span("net.run.slice", [&] { net.run(step); });
  }
}

struct Counters {
  std::uint64_t events = 0;
  std::uint64_t pendingEnd = 0;
  mac::DcfCounters mac;
  std::uint64_t rxOk = 0;
  std::uint64_t rxCorrupt = 0;
  std::int64_t delivered = 0;
  int nodes = 0;
  std::int64_t edges = 0;
  std::size_t topoBytes = 0;
  std::size_t gmpLinks = 0;
  std::size_t gmpCliques = 0;
  int gmpPeriods = 0;
  hybrid::HybridStats hybrid;
  std::int64_t phantomBursts = 0;
};

Counters readCounters(Instance& in) {
  Counters c;
  net::Network& net = *in.net;
  c.events = net.simulator().executedEvents();
  c.pendingEnd = net.simulator().pendingEvents();
  const topo::Topology& topo = net.topology();
  c.nodes = topo.numNodes();
  c.edges = topo.numEdges();
  c.topoBytes = topo.memoryFootprintBytes();
  for (topo::NodeId n = 0; n < c.nodes; ++n) {
    const mac::DcfCounters& m = net.macOf(n).counters();
    c.mac.rtsSent += m.rtsSent;
    c.mac.dataSent += m.dataSent;
    c.mac.txSuccesses += m.txSuccesses;
    c.mac.ctsTimeouts += m.ctsTimeouts;
    c.mac.ackTimeouts += m.ackTimeouts;
    c.mac.macDrops += m.macDrops;
  }
  c.rxOk = net.framesDelivered();
  c.rxCorrupt = net.framesCorrupted();
  for (const net::FlowSpec& f : net.flows()) c.delivered += net.delivered(f.id);
  if (in.controller) {
    c.gmpLinks = in.controller->contention().links.size();
    c.gmpCliques = in.controller->contention().cliques.size();
    c.gmpPeriods = in.controller->periodsRun();
  }
  if (in.hybridEngine) {
    c.hybrid = in.hybridEngine->stats();
    c.phantomBursts = in.hybridEngine->phantomBursts();
  }
  return c;
}

struct Result {
  Outcome outcome;
  std::string fingerprint;
  std::string invalid;  ///< empty = outputs plausible and horizon reached
  double setupS = 0.0;  ///< median over the timed set-ups
  double wallS = 0.0;
  double runS = 0.0;    ///< inside Network::run only
  double simS = 0.0;
  double decideUsPerPeriod = 0.0;
  Counters counters;
};

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Replay Engine::decide on the captured period snapshots; microseconds
/// per period, best of a few passes.
double replayDecide(const gmp::Controller& controller,
                    const gmp::GmpParams& params,
                    const std::vector<gmp::Snapshot>& snapshots) {
  if (snapshots.empty()) return 0.0;
  const gmp::Engine engine{controller.contention(), params};
  double best = 0.0;
  std::size_t sink = 0;
  for (int pass = 0; pass < 5; ++pass) {
    const Clock::time_point t0 = Clock::now();
    for (const gmp::Snapshot& s : snapshots) {
      sink += engine.decide(s).commands.size();
    }
    const double us = 1e6 * secondsSince(t0, Clock::now()) /
                      static_cast<double>(snapshots.size());
    if (pass == 0 || us < best) best = us;
  }
  // Keeps the decisions observable so the loop is not optimized away.
  if (sink == static_cast<std::size_t>(-1)) std::cerr << sink;
  return best;
}

Result runInstance(const Workload& w, std::uint64_t seed, bool shortHorizon,
                   Tracer& tr) {
  Result res;
  std::vector<double> setups;
  for (int rep = 1; rep < w.setupReps; ++rep) {
    Tracer quiet{false, 0};
    Instance scratch;
    const Clock::time_point t0 = Clock::now();
    setUp(scratch, w, seed, shortHorizon, quiet);
    setups.push_back(secondsSince(t0, Clock::now()));
  }

  Instance in;
  std::vector<gmp::Snapshot> snapshots;
  net::Network::DeliverySnapshot start;
  std::optional<hybrid::Engine::BackgroundSnapshot> bgStart;
  double setupS = 0.0;
  res.wallS = tr.span("workload", [&] {
    setupS = tr.span("setup", [&] { setUp(in, w, seed, shortHorizon, tr); });
    net::Network& net = *in.net;
    // The hybrid engine owns the period hook; elsewhere capturing the
    // snapshots it is handed changes nothing the run computes.
    if (tr.enabled() && in.controller && !in.hybridEngine) {
      in.controller->setPeriodHook(
          [&snapshots](const gmp::Snapshot& s, int) { snapshots.push_back(s); });
    }
    const Duration slice = Duration::seconds(w.sliceS);
    res.runS += tr.span("net.run.warmup",
                        [&] { runNet(net, in.config.warmup, slice, tr); });
    tr.span("net.snapshot", [&] {
      start = net.snapshotDeliveries();
      if (in.hybridEngine) bgStart = in.hybridEngine->snapshotBackground();
    });
    res.runS += tr.span("net.run.measure", [&] {
      runNet(net, in.config.duration - in.config.warmup, slice, tr);
    });
    tr.span("analysis.summarize", [&] {
      Outcome& o = res.outcome;
      o.rates = net::Network::ratesBetween(start, net.snapshotDeliveries());
      std::map<net::FlowId, int> hops;
      std::map<net::FlowId, double> weights;
      if (in.hybridEngine) {
        const auto bgRates = hybrid::Engine::ratesBetween(
            *bgStart, in.hybridEngine->snapshotBackground());
        for (const auto& [id, pps] : bgRates) o.rates[id] = pps;
        in.hybridEngine->stop();
      }
      const auto bgSpecs =
          hybrid::Engine::backgroundFlows(in.scenario.flows, in.config.hybrid);
      for (const net::FlowSpec& f : in.scenario.flows) {
        const bool bg = std::any_of(
            bgSpecs.begin(), bgSpecs.end(),
            [&f](const net::FlowSpec& b) { return b.id == f.id; });
        hops[f.id] = bg ? in.hybridEngine->backgroundHops(f.id)
                        : net.hopCount(f.id);
        weights[f.id] = f.weight;
      }
      o.summary = analysis::summarize(o.rates, hops);
      // runScenario computes it too; it is part of the measured work.
      (void)analysis::summarizeNormalized(o.rates, weights, hops);
      o.queueDrops = net.totalQueueDrops();
    });
  });
  setups.push_back(setupS);
  res.setupS = median(setups);
  res.simS = in.config.duration.asSeconds();

  res.counters = readCounters(in);
  res.fingerprint = fingerprint(in.scenario, res.outcome.rates,
                                res.outcome.summary, res.outcome.queueDrops);
  if (in.net->now() != TimePoint::origin() + in.config.duration) {
    res.invalid = "simulated horizon not reached";
  } else {
    res.invalid = validate(in.scenario, res.outcome);
  }
  if (tr.enabled() && in.controller) {
    tr.span("gmp.decide_replay", [&] {
      res.decideUsPerPeriod =
          replayDecide(*in.controller, in.config.gmpParams, snapshots);
    });
  }
  return res;
}

/// The fingerprint analysis::runScenario gives for the same inputs.
std::string referenceFingerprint(const Workload& w, std::uint64_t seed) {
  const scenarios::Scenario scenario = makeScenario(w, seed);
  const analysis::RunConfig cfg = makeConfig(w, seed, scenario, true);
  const analysis::RunResult r = analysis::runScenario(scenario, cfg);
  std::map<net::FlowId, double> rates;
  for (const analysis::FlowOutcome& f : r.flows) rates[f.id] = f.ratePps;
  return fingerprint(scenario, rates, r.summary, r.queueDrops);
}

/// Peak resident set of this process image, in MiB. VmHWM, unlike
/// getrusage's ru_maxrss, starts afresh at exec, so the launching
/// process's own footprint does not leak into it.
double peakRssMb() {
  std::ifstream status{"/proc/self/status"};
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

void writeResult(obs::JsonWriter& j, const Result& r, const Tracer& tr) {
  const Counters& c = r.counters;
  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  const auto d = [](auto v) { return static_cast<double>(v); };
  j.key("fingerprint").value(r.fingerprint);
  j.key("valid").value(r.invalid.empty());
  j.key("error").value(r.invalid);
  j.key("setup_s").value(r.setupS);
  j.key("wall_s").value(r.wallS);
  j.key("run_s").value(r.runS);
  j.key("sim_s").value(r.simS);
  j.key("peak_rss_mb").value(peakRssMb());
  if (!tr.enabled()) return;
  j.key("layers").beginObject();
  j.key("sim.events").value(d(c.events));
  j.key("sim.ns_per_event").value(ratio(1e9 * r.runS, d(c.events)));
  j.key("sim.events_per_sim_s").value(ratio(d(c.events), r.simS));
  j.key("sim.pending_events_end").value(d(c.pendingEnd));
  std::vector<double> slicesMs;
  for (const Tracer::Span& s : tr.spans()) {
    if (s.name == "net.run.slice") slicesMs.push_back(1e3 * (s.endS - s.startS));
  }
  std::sort(slicesMs.begin(), slicesMs.end());
  const auto pct = [&slicesMs](double q) {
    if (slicesMs.empty()) return 0.0;
    const auto i = static_cast<std::size_t>(
        q * static_cast<double>(slicesMs.size() - 1) + 0.5);
    return slicesMs[i];
  };
  j.key("sim.slice_ms_p50").value(pct(0.5));
  j.key("sim.slice_ms_p90").value(pct(0.9));
  j.key("mac.rts_sent").value(d(c.mac.rtsSent));
  j.key("mac.data_sent").value(d(c.mac.dataSent));
  j.key("mac.tx_successes").value(d(c.mac.txSuccesses));
  j.key("mac.cts_timeouts").value(d(c.mac.ctsTimeouts));
  j.key("mac.ack_timeouts").value(d(c.mac.ackTimeouts));
  j.key("mac.drops").value(d(c.mac.macDrops));
  j.key("mac.success_ratio").value(ratio(d(c.mac.txSuccesses), d(c.mac.rtsSent)));
  j.key("mac.events_per_data_frame").value(ratio(d(c.events), d(c.mac.dataSent)));
  j.key("phys.receptions_ok").value(d(c.rxOk));
  j.key("phys.receptions_corrupted").value(d(c.rxCorrupt));
  j.key("phys.corrupt_ratio").value(ratio(d(c.rxCorrupt), d(c.rxOk + c.rxCorrupt)));
  j.key("phys.receptions_per_data_frame")
      .value(ratio(d(c.rxOk + c.rxCorrupt), d(c.mac.dataSent)));
  j.key("net.construct_s").value(tr.total("net.construct"));
  j.key("net.delivered_pkts").value(d(c.delivered));
  j.key("net.queue_drops").value(d(r.outcome.queueDrops));
  j.key("net.events_per_delivered_pkt").value(ratio(d(c.events), d(c.delivered)));
  j.key("scenarios.build_s").value(tr.total("scenarios.build"));
  j.key("topology.nodes").value(d(c.nodes));
  j.key("topology.edges").value(d(c.edges));
  j.key("topology.bytes").value(d(c.topoBytes));
  j.key("gmp.controller_setup_s").value(tr.total("gmp.controller_setup"));
  j.key("gmp.links").value(d(c.gmpLinks));
  j.key("gmp.cliques").value(d(c.gmpCliques));
  j.key("gmp.periods").value(d(c.gmpPeriods));
  j.key("gmp.decide_us_per_period").value(r.decideUsPerPeriod);
  j.key("hybrid.fast_forward_s").value(tr.total("hybrid.fast_forward"));
  j.key("fluid.ff_periods").value(d(c.hybrid.ffPeriods));
  j.key("hybrid.start_s")
      .value(tr.total("hybrid.construct") + tr.total("hybrid.start"));
  j.key("hybrid.relinearizations").value(d(c.hybrid.relinearizations));
  j.key("hybrid.phantom_bursts").value(d(c.phantomBursts));
  j.key("hybrid.background_flows").value(d(c.hybrid.backgroundFlows));
  // Root span ("workload", id 0) minus the public calls inside it.
  j.key("trace.root_self_s").value(tr.selfSeconds(0));
  // Share of the set-up span covered by the per-layer set-up spans.
  const double layered =
      tr.total("scenarios.build") + tr.total("net.construct") +
      tr.total("gmp.controller_setup") + tr.total("hybrid.construct") +
      tr.total("hybrid.fast_forward") + tr.total("hybrid.start");
  j.key("trace.setup_accounted_pct")
      .value(100.0 * ratio(layered, tr.total("setup")));
  j.endObject();
}

[[noreturn]] void usage() {
  std::cerr << "usage: perfbench_sim --workload NAME --seed N "
               "[--traced] [--spans FILE] [--check]\nworkloads:";
  for (const Workload& w : kWorkloads) std::cerr << ' ' << w.name;
  std::cerr << '\n';
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  const Workload* w = nullptr;
  std::optional<std::uint64_t> seed;
  bool traced = false;
  bool check = false;
  std::string spansPath;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto value = [&]() -> std::string_view {
      if (i + 1 >= argc) usage();
      return argv[++i];
    };
    if (arg == "--workload") {
      w = findWorkload(value());
      if (w == nullptr) usage();
    } else if (arg == "--seed") {
      const std::string_view v = value();
      std::uint64_t s = 0;
      const auto [ptr, ec] = std::from_chars(v.data(), v.data() + v.size(), s);
      if (ec != std::errc{} || ptr != v.data() + v.size()) usage();
      seed = s;
    } else if (arg == "--traced") {
      traced = true;
    } else if (arg == "--spans") {
      spansPath = value();
    } else if (arg == "--check") {
      check = true;
    } else {
      usage();
    }
  }
  if (w == nullptr || !seed) usage();

  obs::JsonWriter j;
  j.beginObject().key("workload").value(w->name);
  j.key("seed").value(static_cast<std::int64_t>(*seed));
  int status = 0;
  try {
    if (check) {
      Tracer off{false, 0};
      Tracer on{true, 0};
      const Result plain = runInstance(*w, *seed, true, off);
      const Result sliced = runInstance(*w, *seed, true, on);
      const std::string reference = referenceFingerprint(*w, *seed);
      const bool same = plain.fingerprint == sliced.fingerprint &&
                        plain.fingerprint == reference;
      j.key("untraced").value(plain.fingerprint);
      j.key("traced").value(sliced.fingerprint);
      j.key("run_scenario").value(reference);
      j.key("valid").value(plain.invalid.empty());
      j.key("error").value(plain.invalid);
      j.key("match").value(same);
      status = same && plain.invalid.empty() ? 0 : 1;
    } else {
      Tracer tr{traced, static_cast<std::int64_t>(*seed)};
      const Result r = runInstance(*w, *seed, false, tr);
      writeResult(j, r, tr);
      if (!spansPath.empty()) {
        std::ofstream out{spansPath};
        tr.write(out);
        if (!out) {
          std::cerr << "cannot write " << spansPath << '\n';
          status = 1;
        }
      }
    }
  } catch (const std::exception& e) {
    j.key("valid").value(false);
    j.key("error").value(std::string{"exception: "} + e.what());
    status = 1;
  }
  j.endObject();
  std::cout << j.str() << '\n';
  return status;
}
