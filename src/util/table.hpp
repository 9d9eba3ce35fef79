// Plain-text result tables in the style of the paper's Tables 1-4, plus a
// CSV emitter for downstream plotting.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace maxmin {

class Table {
 public:
  explicit Table(std::vector<std::string> header);

  /// Append one row; must have the same arity as the header.
  void addRow(std::vector<std::string> cells);

  /// Convenience: formats doubles with two decimals, matching the paper.
  static std::string num(double v, int decimals = 2);

  /// Render with box-drawing-free ASCII, columns padded to content width.
  void print(std::ostream& os) const;

  /// Render as RFC-4180-ish CSV (no quoting of embedded commas needed for
  /// our numeric content; commas in cells are replaced by semicolons).
  void printCsv(std::ostream& os) const;

  const std::vector<std::string>& row(std::size_t i) const { return rows_.at(i); }

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace maxmin
