// Included by a tool.
#pragma once

namespace maxmin::analysis {
inline int report() { return 5; }
}  // namespace maxmin::analysis
