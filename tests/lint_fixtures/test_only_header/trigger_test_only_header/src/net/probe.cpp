#include "net/probe.hpp"

namespace maxmin::net {
int probe() { return 1; }
}  // namespace maxmin::net
