// Included by the perf benchmark.
#pragma once

namespace maxmin::sim {
inline int clock() { return 4; }
}  // namespace maxmin::sim
