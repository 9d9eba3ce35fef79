// Locale-independent number <-> text conversion.
//
// Every serialized number in the project (JSONL traces, sweep JSON, fault
// scripts) must be byte-identical across hosts, so none of them may go
// through iostream/printf/strtod with the process locale: a host configured
// with a ',' decimal separator would corrupt fixed-seed byte-identity. These
// helpers wrap std::to_chars / std::from_chars, which are defined to use
// "C"-locale semantics unconditionally.
//
// formatDouble with chars_format::general and an explicit precision produces
// exactly the digits printf("%.<precision>g") produces in the C locale —
// which is also what a classic-locale ostream with the same precision
// prints. Switching a writer from `os << v` to these helpers therefore
// preserves existing golden bytes while removing the locale dependence.
#pragma once

#include <charconv>
#include <cstddef>
#include <string>
#include <string_view>
#include <system_error>

#include "util/check.hpp"

namespace maxmin {

/// Format `v` like printf "%.<precision>g" in the C locale. Returns a view
/// over `buf`, which must stay alive while the view is used.
inline std::string_view formatDouble(char* buf, std::size_t size, double v,
                                     int precision = 17) {
  const auto res = std::to_chars(buf, buf + size, v,
                                 std::chars_format::general, precision);
  MAXMIN_CHECK_MSG(res.ec == std::errc{}, "double format buffer too small");
  return {buf, static_cast<std::size_t>(res.ptr - buf)};
}

/// Format `v` like printf "%.<precision>f" in the C locale.
inline std::string_view formatDoubleFixed(char* buf, std::size_t size,
                                          double v, int precision) {
  const auto res =
      std::to_chars(buf, buf + size, v, std::chars_format::fixed, precision);
  MAXMIN_CHECK_MSG(res.ec == std::errc{}, "double format buffer too small");
  return {buf, static_cast<std::size_t>(res.ptr - buf)};
}

/// Format `v` as the shortest text that parses back to exactly `v`.
inline std::string_view formatDoubleShortest(char* buf, std::size_t size,
                                             double v) {
  const auto res = std::to_chars(buf, buf + size, v);
  MAXMIN_CHECK_MSG(res.ec == std::errc{}, "double format buffer too small");
  return {buf, static_cast<std::size_t>(res.ptr - buf)};
}

inline void appendDouble(std::string& out, double v, int precision = 17) {
  char buf[64];
  out.append(formatDouble(buf, sizeof buf, v, precision));
}

/// Parse the entire `text` as a double ("C"-locale grammar). Returns false
/// on any trailing garbage or malformed input.
inline bool parseDouble(std::string_view text, double& out) {
  const auto res = std::from_chars(text.data(), text.data() + text.size(), out);
  return res.ec == std::errc{} && res.ptr == text.data() + text.size();
}

}  // namespace maxmin
