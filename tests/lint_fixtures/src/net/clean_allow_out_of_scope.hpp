// The same pragma inside the rule's scope is a live suppression.
#pragma once

#include <map>

struct Report {
  // maxmin-lint: allow(hot-map) report type, built once per interval
  std::map<int, double> rates;
};
