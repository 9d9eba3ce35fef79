#include "analysis/trace_replay.hpp"

#include <cmath>
#include <fstream>
#include <istream>
#include <limits>
#include <optional>
#include <utility>

#include "util/check.hpp"
#include "util/num_text.hpp"

namespace maxmin::analysis {
namespace {

// Minimal recursive-descent JSON reader, just enough for the trace
// schema (objects, arrays, strings with the writer's escapes, numbers,
// booleans, null). The writer is ours, so unsupported JSON (exponents
// are fine; \uXXXX beyond the writer's \u0000 is not) simply fails the
// parse and surfaces as a malformed-line error with context. Nesting is
// capped so a hostile line cannot exhaust the stack.
struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  [[nodiscard]] const JsonValue* find(const std::string& k) const {
    const auto it = object.find(k);
    return it == object.end() ? nullptr : &it->second;
  }
};

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_{text} {}

  JsonValue parse() {
    JsonValue v = value();
    skipWs();
    MAXMIN_CHECK_MSG(pos_ == text_.size(), "trailing bytes after JSON value");
    return v;
  }

 private:
  void skipWs() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t')) {
      ++pos_;
    }
  }
  char peek() {
    MAXMIN_CHECK_MSG(pos_ < text_.size(), "unexpected end of JSON");
    return text_[pos_];
  }
  void expect(char c) {
    MAXMIN_CHECK_MSG(peek() == c, "expected '" << c << "' at byte " << pos_);
    ++pos_;
  }

  /// The writer nests at most four deep (period → vlinks → vlink →
  /// primaryFlows).
  static constexpr int kMaxDepth = 64;

  JsonValue value() {
    skipWs();
    switch (peek()) {
      case '{':
      case '[': {
        MAXMIN_CHECK_MSG(++depth_ <= kMaxDepth,
                         "JSON nested deeper than " << kMaxDepth);
        JsonValue v = peek() == '{' ? object() : array();
        --depth_;
        return v;
      }
      case '"': return string();
      case 't':
      case 'f': return boolean();
      case 'n': return null();
      default: return number();
    }
  }

  JsonValue object() {
    expect('{');
    JsonValue v;
    v.type = JsonValue::Type::kObject;
    skipWs();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    for (;;) {
      skipWs();
      JsonValue key = string();
      skipWs();
      expect(':');
      v.object.emplace(std::move(key.string), value());
      skipWs();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  JsonValue array() {
    expect('[');
    JsonValue v;
    v.type = JsonValue::Type::kArray;
    skipWs();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    for (;;) {
      v.array.push_back(value());
      skipWs();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  JsonValue string() {
    expect('"');
    JsonValue v;
    v.type = JsonValue::Type::kString;
    for (;;) {
      const char c = peek();
      ++pos_;
      if (c == '"') return v;
      if (c != '\\') {
        v.string.push_back(c);
        continue;
      }
      const char esc = peek();
      ++pos_;
      switch (esc) {
        case '"': v.string.push_back('"'); break;
        case '\\': v.string.push_back('\\'); break;
        case 'n': v.string.push_back('\n'); break;
        case 't': v.string.push_back('\t'); break;
        case 'u':
          MAXMIN_CHECK_MSG(text_.substr(pos_, 4) == "0000",
                           "unsupported \\u escape");
          pos_ += 4;
          v.string.push_back('\0');
          break;
        default: MAXMIN_CHECK_MSG(false, "bad escape '\\" << esc << "'");
      }
    }
  }

  JsonValue boolean() {
    JsonValue v;
    v.type = JsonValue::Type::kBool;
    if (text_.substr(pos_, 4) == "true") {
      v.boolean = true;
      pos_ += 4;
    } else {
      MAXMIN_CHECK_MSG(text_.substr(pos_, 5) == "false", "bad literal");
      pos_ += 5;
    }
    return v;
  }

  JsonValue null() {
    MAXMIN_CHECK_MSG(text_.substr(pos_, 4) == "null", "bad literal");
    pos_ += 4;
    return JsonValue{};
  }

  JsonValue number() {
    std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
    }
    MAXMIN_CHECK_MSG(pos_ > start, "expected a number at byte " << start);
    const std::string_view tok = text_.substr(start, pos_ - start);
    JsonValue v;
    v.type = JsonValue::Type::kNumber;
    // parseDouble (std::from_chars) keeps the parse locale-independent:
    // strtod under a ',' decimal-separator locale would stop at the '.'
    // and silently truncate the mantissa.
    MAXMIN_CHECK_MSG(parseDouble(tok, v.number), "bad number " << tok);
    return v;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

double numberField(const JsonValue& obj, const std::string& key) {
  const JsonValue* v = obj.find(key);
  MAXMIN_CHECK_MSG(v != nullptr && v->type == JsonValue::Type::kNumber,
                   "trace record missing numeric field \"" << key << "\"");
  return v->number;
}

/// A whole-number field within [lo, hi]. The bounds stay within ±2^53,
/// where every integer is exact as a double, so the cast is defined.
std::int64_t integerField(const JsonValue& obj, const std::string& key,
                          std::int64_t lo, std::int64_t hi) {
  const double x = numberField(obj, key);
  MAXMIN_CHECK_MSG(std::trunc(x) == x && x >= static_cast<double>(lo) &&
                       x <= static_cast<double>(hi),
                   "\"" << key << "\" must be an integer in [" << lo << ", "
                        << hi << "], got " << x);
  return static_cast<std::int64_t>(x);
}

constexpr std::int64_t kIntMax = std::numeric_limits<int>::max();

/// The period record on one trace line, or nothing for an event record.
std::optional<ReplayPeriod> parsePeriodLine(std::string_view line) {
  const JsonValue root = JsonParser{line}.parse();
  const JsonValue* record = root.find("record");
  MAXMIN_CHECK_MSG(record != nullptr &&
                       record->type == JsonValue::Type::kString,
                   "no \"record\" field");
  if (record->string != "period") return std::nullopt;  // event-level detail

  ReplayPeriod p;
  p.period = static_cast<int>(integerField(root, "period", 0, kIntMax));
  p.timeUs = integerField(root, "timeUs", 0, std::int64_t{1} << 53);
  const JsonValue* flows = root.find("flows");
  MAXMIN_CHECK_MSG(flows != nullptr && flows->type == JsonValue::Type::kArray,
                   "no \"flows\" array");
  for (const JsonValue& f : flows->array) {
    const auto id = static_cast<net::FlowId>(integerField(f, "id", 0, kIntMax));
    const double rate = numberField(f, "ratePps");
    MAXMIN_CHECK_MSG(std::isfinite(rate) && rate >= 0.0,
                     "\"ratePps\" must be finite and >= 0, got " << rate);
    p.ratesPps[id] = rate;
    p.hops[id] = static_cast<int>(integerField(f, "hops", 1, kIntMax));
  }
  p.summary = summarize(p.ratesPps, p.hops);
  return p;
}

}  // namespace

std::vector<double> TraceReplay::immTrajectory() const {
  std::vector<double> out;
  out.reserve(periods.size());
  for (const ReplayPeriod& p : periods) out.push_back(p.summary.imm);
  return out;
}

std::vector<double> TraceReplay::ieqTrajectory() const {
  std::vector<double> out;
  out.reserve(periods.size());
  for (const ReplayPeriod& p : periods) out.push_back(p.summary.ieq);
  return out;
}

TraceReplay traceReplay(std::istream& in) {
  TraceReplay replay;
  std::string line;
  int lineNo = 0;
  while (std::getline(in, line)) {
    ++lineNo;
    if (line.empty()) continue;
    try {
      if (auto p = parsePeriodLine(line)) replay.periods.push_back(std::move(*p));
    } catch (const InvariantViolation& e) {
      MAXMIN_CHECK_MSG(false, "trace line " << lineNo << ": " << e.what());
    }
  }
  return replay;
}

TraceReplay traceReplayFile(const std::string& path) {
  std::ifstream in{path};
  MAXMIN_CHECK_MSG(in.good(), "cannot open trace file " << path);
  return traceReplay(in);
}

}  // namespace maxmin::analysis
