// Included by an example.
#pragma once

namespace maxmin::gmp {
inline int plan() { return 3; }
}  // namespace maxmin::gmp
