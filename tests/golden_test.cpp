// Golden behaviour lock: a fixed matrix of seeded runs through
// analysis::runScenario, each rendered as `field value` lines and compared
// with tests/golden/<case>.txt. Any change to event ordering, MAC timing,
// queueing or the GMP controller moves at least one field; the failure
// message lists every field that moved. The kernel's event counts are
// separate `events.*` lines, so a change to event bookkeeping alone shows
// up as exactly those lines.
//
// Each run also writes its rendering to golden_actual/<case>.txt under the
// test's build directory; tools/regen_golden.sh copies those over the
// committed files (for a change that alters behaviour on purpose).
#include <gtest/gtest.h>

#include <charconv>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <system_error>
#include <vector>

#include "analysis/experiment.hpp"
#include "obs/trace.hpp"
#include "scenarios/scenarios.hpp"
#include "sim/fault_plane.hpp"
#include "util/hash.hpp"

namespace maxmin::analysis {
namespace {

constexpr std::uint64_t kSeed = 7;

struct GoldenCase {
  const char* name;
  const char* scenario;  ///< maxmin-sim --scenario name, at its defaults
  Protocol protocol;
  double durationS;
  double warmupS;
  const char* faults = "";   ///< fault script text
  const char* ge = "";       ///< pGoodToBad:pBadToGood:lossBad
  bool fastForward = false;
  int foreground = 0;        ///< >0: --hybrid --foreground auto:K
  bool eventTrace = false;   ///< fingerprint an event-level trace
};

const GoldenCase kCases[] = {
    {"fig2_80211", "fig2", Protocol::kDcf80211, 60.0, 20.0},
    {"fig2_2pp", "fig2", Protocol::kTwoPhase, 60.0, 20.0},
    {"fig2_gmp", "fig2", Protocol::kGmp, 60.0, 20.0},
    {"fig2w_80211", "fig2w", Protocol::kDcf80211, 60.0, 20.0},
    {"fig2w_2pp", "fig2w", Protocol::kTwoPhase, 60.0, 20.0},
    {"fig2w_gmp", "fig2w", Protocol::kGmp, 60.0, 20.0},
    {"fig3_80211", "fig3", Protocol::kDcf80211, 60.0, 20.0},
    {"fig3_2pp", "fig3", Protocol::kTwoPhase, 60.0, 20.0},
    {"fig3_gmp", "fig3", Protocol::kGmp, 60.0, 20.0},
    {"chain_80211", "chain", Protocol::kDcf80211, 60.0, 20.0},
    {"chain_2pp", "chain", Protocol::kTwoPhase, 60.0, 20.0},
    {"chain_gmp", "chain", Protocol::kGmp, 60.0, 20.0},
    {"fig4_80211", "fig4", Protocol::kDcf80211, 60.0, 20.0},
    {"fig4_2pp", "fig4", Protocol::kTwoPhase, 60.0, 20.0},
    {"fig4_gmp", "fig4", Protocol::kGmp, 60.0, 20.0},
    {"mesh_gmp", "mesh", Protocol::kGmp, 60.0, 20.0},
    {"dense_80211", "dense", Protocol::kDcf80211, 4.0, 1.0},
    {"fig4_gmp_faults", "fig4", Protocol::kGmp, 60.0, 20.0,
     "crash 1 20; recover 1 40"},
    {"fig4_gmp_ge", "fig4", Protocol::kGmp, 60.0, 20.0, "", "0.01:0.3:0.5"},
    {"mesh_gmp_ff", "mesh", Protocol::kGmp, 60.0, 20.0, "", "", true},
    {"mesh_gmp_hybrid", "mesh", Protocol::kGmp, 60.0, 20.0, "", "", false,
     3},
    // Phantom bursts reach dozens of radios with nothing to send, so most
    // of its wakes are parked ones (DESIGN.md §16).
    {"dense_gmp_hybrid", "dense200", Protocol::kGmp, 4.0, 1.0, "", "", false,
     3},
    // Every fault-plane timer kind: churn, a cut and its repair, a clock
    // skew (staggered window closes), and two faults at one instant.
    {"fig4_gmp_churn", "fig4", Protocol::kGmp, 60.0, 20.0,
     "churn nodes=4,7 up=8 down=2 from=15 until=50; linkdown 0 1 25; "
     "linkup 0 1 35; skew 3 20; crash 10 30; linkdown 6 7 30",
     "", false, 0, true},
};

// Names the case in test listings (gtest would otherwise dump its bytes).
void PrintTo(const GoldenCase& c, std::ostream* os) { *os << c.name; }

scenarios::Scenario makeScenario(const std::string& name) {
  // maxmin-sim's defaults: --nodes 12 --flows 5 --area 1000.
  if (name == "mesh") return scenarios::randomMesh(kSeed, 12, 1000.0, 5);
  if (name == "dense") return scenarios::denseMesh(kSeed, 12, 5);
  // maxmin-sim --scenario dense --nodes 200 --flows 30.
  if (name == "dense200") return scenarios::denseMesh(kSeed, 200, 30);
  if (name == "fig2") return scenarios::fig2();
  if (name == "fig2w") return scenarios::fig2({1, 2, 1, 3});
  if (name == "fig3") return scenarios::fig3();
  if (name == "chain") return scenarios::chain(5);
  return scenarios::fig4();
}

std::string fmt(double v) {
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
  EXPECT_EQ(ec, std::errc{});
  return {buf, end};
}

/// Run the case and render every locked field, one `field value` per line.
std::string render(const GoldenCase& c) {
  const scenarios::Scenario scenario = makeScenario(c.scenario);
  RunConfig cfg;
  cfg.protocol = c.protocol;
  cfg.duration = Duration::seconds(c.durationS);
  cfg.warmup = Duration::seconds(c.warmupS);
  cfg.seed = kSeed;
  cfg.faults = sim::parseFaultScript(c.faults);
  if (*c.ge != '\0') {
    char sep1 = 0;
    char sep2 = 0;
    phys::GilbertElliottParams& g = cfg.netBase.impairments.gilbert;
    std::istringstream in{c.ge};
    in >> g.pGoodToBad >> sep1 >> g.pBadToGood >> sep2 >> g.lossBad;
    EXPECT_TRUE(in && sep1 == ':' && sep2 == ':') << c.ge;
  }
  cfg.hybrid.fastForward = c.fastForward;
  if (c.foreground > 0) {
    cfg.hybrid.background = true;
    for (int i = 0; i < c.foreground; ++i) {
      cfg.hybrid.foreground.push_back(
          scenario.flows[static_cast<std::size_t>(i)].id);
    }
  }
  std::ostringstream traceText;
  obs::TraceSink trace{traceText, c.eventTrace ? obs::TraceLevel::kEvent
                                               : obs::TraceLevel::kPeriod};
  cfg.trace = &trace;

  const RunResult r = runScenario(scenario, cfg);

  std::ostringstream out;
  for (const FlowOutcome& f : r.flows) {
    out << "rate." << f.id << ' ' << fmt(f.ratePps) << '\n';
  }
  out << "I_mm " << fmt(r.summary.imm) << '\n'
      << "I_eq " << fmt(r.summary.ieq) << '\n'
      << "U " << fmt(r.summary.effectiveThroughputPps) << '\n'
      << "queue_drops " << r.queueDrops << '\n'
      << "crash_drops " << r.metrics.crashDrops << '\n'
      << "dead_neighbor_drops " << r.metrics.deadNeighborDrops << '\n'
      << "frames_impaired " << r.metrics.framesImpaired << '\n'
      << "frames_suppressed " << r.metrics.framesSuppressed << '\n'
      // Kernel bookkeeping: the only lines a change to how events are
      // queued (not to what they do) may move.
      << "events.scheduled " << r.metrics.eventsScheduled << '\n'
      << "events.executed " << r.metrics.eventsExecuted << '\n'
      << "events.cancelled " << r.metrics.eventsCancelled << '\n';
  if (c.protocol == Protocol::kGmp) {
    out << "trace_fnv1a " << std::hex << fnv1a(traceText.str()) << std::dec
        << '\n';
  }
  return out.str();
}

/// `field value` lines as a map (order-insensitive field comparison).
std::map<std::string, std::string> fields(const std::string& text) {
  std::map<std::string, std::string> out;
  std::istringstream in{text};
  for (std::string key, value; in >> key >> value;) out[key] = value;
  return out;
}

class GoldenTest : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(GoldenTest, MatchesCommittedFingerprint) {
  const GoldenCase& c = GetParam();
  const std::string actual = render(c);

  const std::filesystem::path outDir{MAXMIN_GOLDEN_ACTUAL_DIR};
  std::filesystem::create_directories(outDir);
  std::ofstream{outDir / (std::string{c.name} + ".txt")} << actual;

  const std::filesystem::path goldenPath =
      std::filesystem::path{MAXMIN_GOLDEN_DIR} / (std::string{c.name} + ".txt");
  std::ifstream goldenFile{goldenPath};
  ASSERT_TRUE(goldenFile) << "missing " << goldenPath
                          << " (tools/regen_golden.sh writes it)";
  std::ostringstream golden;
  golden << goldenFile.rdbuf();
  if (golden.str() == actual) return;

  const auto want = fields(golden.str());
  const auto got = fields(actual);
  std::ostringstream moved;
  for (const auto& [key, value] : want) {
    const auto it = got.find(key);
    if (it == got.end()) {
      moved << "  " << key << ": " << value << " -> (missing)\n";
    } else if (it->second != value) {
      moved << "  " << key << ": " << value << " -> " << it->second << '\n';
    }
  }
  for (const auto& [key, value] : got) {
    if (!want.contains(key)) {
      moved << "  " << key << ": (new) " << value << '\n';
    }
  }
  if (moved.str().empty()) moved << "  (same fields, layout changed)\n";
  ADD_FAILURE() << c.name << " differs from " << goldenPath << ":\n"
                << moved.str();
}

std::string caseName(const ::testing::TestParamInfo<GoldenCase>& param) {
  return param.param.name;
}

INSTANTIATE_TEST_SUITE_P(Matrix, GoldenTest, ::testing::ValuesIn(kCases),
                         caseName);

}  // namespace
}  // namespace maxmin::analysis
