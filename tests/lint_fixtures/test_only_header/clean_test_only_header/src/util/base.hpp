// Header-only, included by another module's .cpp.
#pragma once

namespace maxmin {
inline int base() { return 1; }
}  // namespace maxmin
