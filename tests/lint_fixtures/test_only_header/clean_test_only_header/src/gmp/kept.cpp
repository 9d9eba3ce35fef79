#include "gmp/kept.hpp"

namespace maxmin::gmp {
int kept() { return 6; }
}  // namespace maxmin::gmp
