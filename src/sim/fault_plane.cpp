#include "sim/fault_plane.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "util/check.hpp"
#include "util/num_text.hpp"

namespace maxmin::sim {

const char* faultEventKindName(FaultEvent::Kind kind) {
  switch (kind) {
    case FaultEvent::Kind::kNodeDown: return "crash";
    case FaultEvent::Kind::kNodeUp: return "recover";
    case FaultEvent::Kind::kLinkDown: return "linkdown";
    case FaultEvent::Kind::kLinkUp: return "linkup";
    case FaultEvent::Kind::kClockSkew: return "skew";
  }
  return "?";
}

std::ostream& operator<<(std::ostream& os, const FaultEvent& e) {
  os << faultEventKindName(e.kind) << ' ' << e.node;
  if (e.kind == FaultEvent::Kind::kLinkDown ||
      e.kind == FaultEvent::Kind::kLinkUp) {
    os << '-' << e.peer;
  }
  if (e.kind == FaultEvent::Kind::kClockSkew) os << " +" << e.skew;
  return os << " @" << e.at;
}

namespace {

/// Event/churn times in the script grammar are seconds; six fixed decimals
/// name the microsecond tick exactly, and the to_chars wrapper keeps the
/// '.' separator regardless of the host locale (snprintf "%.6f" would emit
/// ',' under e.g. de_DE and break the replay contract).
void appendSeconds(std::ostringstream& os, double seconds) {
  char buf[40];
  os << formatDoubleFixed(buf, sizeof buf, seconds, 6);
}

/// Churn means are kept as parsed, not on the microsecond grid, so they go
/// out as the shortest text that parses back to the same double.
void appendMean(std::ostringstream& os, double seconds) {
  char buf[40];
  os << formatDoubleShortest(buf, sizeof buf, seconds);
}

}  // namespace

std::string toScriptText(const FaultScript& script) {
  std::ostringstream os;
  for (const FaultEvent& e : script.events) {
    os << faultEventKindName(e.kind) << ' ' << e.node;
    if (e.kind == FaultEvent::Kind::kLinkDown ||
        e.kind == FaultEvent::Kind::kLinkUp) {
      os << ' ' << e.peer;
    }
    if (e.kind == FaultEvent::Kind::kClockSkew) {
      os << ' ';
      appendSeconds(os, e.skew.asSeconds() * 1e3);  // grammar wants ms
    }
    os << ' ';
    appendSeconds(os, e.at.asSeconds());
    os << '\n';
  }
  if (script.churn.enabled()) {
    os << "churn nodes=";
    for (std::size_t i = 0; i < script.churn.nodes.size(); ++i) {
      if (i > 0) os << ',';
      os << script.churn.nodes[i];
    }
    os << " up=";
    appendMean(os, script.churn.meanUpSeconds);
    os << " down=";
    appendMean(os, script.churn.meanDownSeconds);
    if (script.churn.start != TimePoint::origin()) {
      os << " from=";
      appendSeconds(os, script.churn.start.asSeconds());
    }
    if (script.churn.stop != TimePoint::max()) {
      os << " until=";
      appendSeconds(os, script.churn.stop.asSeconds());
    }
    os << '\n';
  }
  return os.str();
}

// ---------------------------------------------------------------------------
// Script parsing
// ---------------------------------------------------------------------------

namespace {

[[noreturn]] void parseError(const std::string& line, const char* why) {
  throw std::invalid_argument("bad fault-script line '" + line + "': " + why);
}

std::vector<std::string> tokenize(const std::string& line) {
  std::istringstream is{line};
  std::vector<std::string> tokens;
  std::string tok;
  while (is >> tok) tokens.push_back(tok);
  return tokens;
}

std::int32_t parseNode(const std::string& line, const std::string& tok) {
  std::int32_t v = 0;
  const char* end = tok.data() + tok.size();
  const auto res = std::from_chars(tok.data(), end, v);
  if (res.ec != std::errc{} || res.ptr != end || v < 0) {
    parseError(line, "expected a node id in [0, 2^31)");
  }
  return v;
}

double parseNum(const std::string& line, const std::string& tok) {
  double v = 0.0;
  if (!parseDouble(tok, v)) parseError(line, "expected a number");
  return v;
}

/// Seconds-as-text → microsecond tick, rounding to nearest. Script times
/// like "8.100000" have no exact double ("8.1" is 8.0999999999999996...),
/// so the truncating Duration::seconds() would land one tick low and each
/// serialize/parse cycle would drift the event earlier by a microsecond.
/// Rounding makes every "%.6f"-printed tick a fixed point of the text
/// round-trip — including the chaos generator's 250 ms quantum edges.
Duration secondsRounded(double seconds) {
  return Duration::micros(static_cast<std::int64_t>(std::llround(seconds * 1e6)));
}

/// A time, skew or churn mean: `tok` × `scale` seconds, finite, non-negative
/// and at most 1e9 s (~31.7 years), so secondsRounded never overflows.
double parseSeconds(const std::string& line, const std::string& tok,
                    double scale = 1.0) {
  const double seconds = parseNum(line, tok) * scale;
  if (!(seconds >= 0.0)) parseError(line, "expected a non-negative time");
  if (!(seconds <= 1e9)) parseError(line, "time out of range");
  return seconds;
}

TimePoint parseTime(const std::string& line, const std::string& tok) {
  return TimePoint::origin() + secondsRounded(parseSeconds(line, tok));
}

void parseChurnLine(const std::string& line,
                    const std::vector<std::string>& tokens, ChurnConfig& out) {
  for (std::size_t i = 1; i < tokens.size(); ++i) {
    const auto eq = tokens[i].find('=');
    if (eq == std::string::npos) parseError(line, "churn wants key=value");
    const std::string key = tokens[i].substr(0, eq);
    const std::string value = tokens[i].substr(eq + 1);
    if (key == "nodes") {
      std::istringstream is{value};
      std::string part;
      while (std::getline(is, part, ',')) {
        if (!part.empty()) out.nodes.push_back(parseNode(line, part));
      }
    } else if (key == "up") {
      out.meanUpSeconds = parseSeconds(line, value);
    } else if (key == "down") {
      out.meanDownSeconds = parseSeconds(line, value);
    } else if (key == "from") {
      out.start = parseTime(line, value);
    } else if (key == "until") {
      out.stop = parseTime(line, value);
    } else {
      parseError(line, "unknown churn key");
    }
  }
  if (!out.enabled()) parseError(line, "churn needs nodes=, up= and down=");
}

}  // namespace

FaultScript parseFaultScript(std::string_view text) {
  FaultScript script;
  // ';' and newlines both end a statement, so one-liners work on a CLI.
  std::string normalized{text};
  std::replace(normalized.begin(), normalized.end(), ';', '\n');
  std::istringstream lines{normalized};
  std::string line;
  while (std::getline(lines, line)) {
    if (const auto hash = line.find('#'); hash != std::string::npos) {
      line.erase(hash);
    }
    const auto tokens = tokenize(line);
    if (tokens.empty()) continue;
    const std::string& verb = tokens[0];

    FaultEvent e;
    if (verb == "crash" || verb == "recover") {
      if (tokens.size() != 3) parseError(line, "want: <node> <t>");
      e.kind = verb == "crash" ? FaultEvent::Kind::kNodeDown
                               : FaultEvent::Kind::kNodeUp;
      e.node = parseNode(line, tokens[1]);
      e.at = parseTime(line, tokens[2]);
    } else if (verb == "linkdown" || verb == "linkup") {
      if (tokens.size() != 4) parseError(line, "want: <a> <b> <t>");
      e.kind = verb == "linkdown" ? FaultEvent::Kind::kLinkDown
                                  : FaultEvent::Kind::kLinkUp;
      e.node = parseNode(line, tokens[1]);
      e.peer = parseNode(line, tokens[2]);
      e.at = parseTime(line, tokens[3]);
    } else if (verb == "skew") {
      if (tokens.size() != 3 && tokens.size() != 4) {
        parseError(line, "want: <node> <ms> [<t>]");
      }
      e.kind = FaultEvent::Kind::kClockSkew;
      e.node = parseNode(line, tokens[1]);
      e.skew = secondsRounded(parseSeconds(line, tokens[2], 1e-3));
      if (tokens.size() == 4) e.at = parseTime(line, tokens[3]);
    } else if (verb == "churn") {
      parseChurnLine(line, tokens, script.churn);
      continue;
    } else {
      parseError(line, "unknown verb");
    }
    script.events.push_back(e);
  }
  return script;
}

// ---------------------------------------------------------------------------
// FaultPlane
// ---------------------------------------------------------------------------

FaultPlane::FaultPlane(Simulator& sim, int numNodes, FaultScript script,
                       Rng rng)
    : sim_{sim}, script_{std::move(script)}, rng_{rng} {
  MAXMIN_CHECK(numNodes > 0);
  up_.assign(static_cast<std::size_t>(numNodes), true);
  skew_.assign(static_cast<std::size_t>(numNodes), Duration::zero());
  for (const FaultEvent& e : script_.events) {
    checkNode(e.node);
    if (e.kind == FaultEvent::Kind::kLinkDown ||
        e.kind == FaultEvent::Kind::kLinkUp) {
      checkNode(e.peer);
      MAXMIN_CHECK_MSG(e.node != e.peer, "link fault needs two nodes");
    }
  }
  for (const std::int32_t n : script_.churn.nodes) checkNode(n);
}

void FaultPlane::checkNode(std::int32_t node) const {
  MAXMIN_CHECK_MSG(node >= 0 && node < static_cast<std::int32_t>(up_.size()),
                   "fault references unknown node " << node);
}

void FaultPlane::addListener(FaultListener* listener) {
  MAXMIN_CHECK(listener != nullptr);
  listeners_.push_back(listener);
}

void FaultPlane::start() {
  MAXMIN_CHECK_MSG(!started_, "FaultPlane::start called twice");
  started_ = true;
  for (const FaultEvent& e : script_.events) {
    // Skew events at the origin apply immediately so the first period is
    // already staggered; everything else waits for its instant.
    if (e.kind == FaultEvent::Kind::kClockSkew && e.at == TimePoint::origin() &&
        sim_.now() == TimePoint::origin()) {
      apply(e);
      continue;
    }
    MAXMIN_CHECK_MSG(e.at >= sim_.now(), "fault event in the past");
    scripted_.emplace_back(*this, e).timer.arm(e.at - sim_.now());
  }
  if (script_.churn.enabled()) {
    for (const std::int32_t n : script_.churn.nodes) {
      churn_.emplace_back(*this, n).timer.arm(
          std::max(script_.churn.start, sim_.now()) - sim_.now());
    }
  }
}

void FaultPlane::apply(const FaultEvent& e) {
  switch (e.kind) {
    case FaultEvent::Kind::kNodeDown:
      setNodeUp(e.node, false);
      break;
    case FaultEvent::Kind::kNodeUp:
      setNodeUp(e.node, true);
      break;
    case FaultEvent::Kind::kLinkDown: {
      if (cutLinks_.insert(normalized(e.node, e.peer)).second) {
        ++linkCutsInjected_;
        for (FaultListener* l : listeners_) {
          l->onLinkChanged(e.node, e.peer, false);
        }
      }
      break;
    }
    case FaultEvent::Kind::kLinkUp: {
      if (cutLinks_.erase(normalized(e.node, e.peer)) > 0) {
        for (FaultListener* l : listeners_) {
          l->onLinkChanged(e.node, e.peer, true);
        }
      }
      break;
    }
    case FaultEvent::Kind::kClockSkew:
      skew_[static_cast<std::size_t>(e.node)] = e.skew;
      break;
  }
}

void FaultPlane::setNodeUp(std::int32_t node, bool up) {
  auto state = up_.begin() + node;
  if (*state == up) return;  // idempotent: scripted + churn may overlap
  *state = up;
  if (up) {
    ++recoveriesInjected_;
    for (FaultListener* l : listeners_) l->onNodeUp(node);
  } else {
    ++crashesInjected_;
    for (FaultListener* l : listeners_) l->onNodeDown(node);
  }
}

void FaultPlane::ChurnNode::fire() {
  if (started) plane->setNodeUp(node, !plane->nodeUp(node));
  started = true;
  plane->scheduleChurn(*this);
}

void FaultPlane::scheduleChurn(ChurnNode& c) {
  const ChurnConfig& churn = script_.churn;
  const bool isUp = nodeUp(c.node);
  if (isUp && sim_.now() >= churn.stop) return;  // no new outages
  const double meanSeconds =
      isUp ? churn.meanUpSeconds : churn.meanDownSeconds;
  c.timer.arm(std::max(Duration::micros(1),
                       Duration::seconds(rng_.exponential(meanSeconds))));
}

std::pair<std::int32_t, std::int32_t> FaultPlane::normalized(
    std::int32_t a, std::int32_t b) const {
  return {std::min(a, b), std::max(a, b)};
}

bool FaultPlane::nodeUp(std::int32_t node) const {
  return up_.at(static_cast<std::size_t>(node));
}

bool FaultPlane::linkUp(std::int32_t a, std::int32_t b) const {
  return nodeUp(a) && nodeUp(b) && !cutLinks_.contains(normalized(a, b));
}

bool FaultPlane::linkCut(std::int32_t a, std::int32_t b) const {
  return cutLinks_.contains(normalized(a, b));
}

Duration FaultPlane::clockSkew(std::int32_t node) const {
  return skew_.at(static_cast<std::size_t>(node));
}

Duration FaultPlane::maxClockSkew() const {
  Duration m = Duration::zero();
  for (const Duration d : skew_) m = std::max(m, d);
  return m;
}

}  // namespace maxmin::sim
