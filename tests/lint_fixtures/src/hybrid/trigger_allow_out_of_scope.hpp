// A hot-map pragma outside the hot-path headers (src/{sim,net,mac,phys})
// suppresses nothing: the rule never looks at this file.
#pragma once

#include <map>

struct Report {
  // maxmin-lint: allow(hot-map) report type, built once per interval
  std::map<int, double> rates;
};
