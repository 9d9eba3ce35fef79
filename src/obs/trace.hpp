// Structured trace sink: one JSON record per line (JSONL).
//
// The sink is deliberately dumb — producers (gmp::Controller is the main
// one) format complete records with obs::JsonWriter and hand over the
// finished line. Determinism therefore lives with the producer: records
// are emitted in simulation order from already-sorted state, so a
// fixed-seed run writes a byte-identical file every time.
//
// Levels:
//   kPeriod — one record per GMP measurement/adjustment period.
//   kEvent  — period records plus fine-grained decision events (each
//             engine command, stale-measurement substitution, and
//             post-recovery limit restore as its own record).
#pragma once

#include <fstream>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>

namespace maxmin::obs {

enum class TraceLevel {
  kPeriod,
  kEvent,
};

/// Parse "period" / "event"; nullopt for anything else.
std::optional<TraceLevel> parseTraceLevel(std::string_view name);

class TraceSink {
 public:
  /// Write to a caller-owned stream (tests use an ostringstream).
  TraceSink(std::ostream& os, TraceLevel level) : os_{&os}, level_{level} {}

  /// Open `path` for writing; returns nullptr (with no side effects) if
  /// the file cannot be created.
  static std::unique_ptr<TraceSink> openFile(const std::string& path,
                                             TraceLevel level);

  TraceSink(const TraceSink&) = delete;
  TraceSink& operator=(const TraceSink&) = delete;

  [[nodiscard]] TraceLevel level() const { return level_; }
  [[nodiscard]] bool wantsEvents() const {
    return level_ == TraceLevel::kEvent;
  }

  /// Append one complete JSON record as its own line.
  void writeRecord(std::string_view line) {
    *os_ << line << '\n';
    ++records_;
  }

  [[nodiscard]] std::int64_t recordsWritten() const { return records_; }

 private:
  TraceSink(std::unique_ptr<std::ofstream> owned, TraceLevel level)
      : owned_{std::move(owned)}, os_{owned_.get()}, level_{level} {}

  std::unique_ptr<std::ofstream> owned_;  ///< null when stream is borrowed
  std::ostream* os_;
  TraceLevel level_;
  std::int64_t records_ = 0;
};

}  // namespace maxmin::obs
