#include "analysis/report.hpp"

int main() { return maxmin::analysis::report(); }
