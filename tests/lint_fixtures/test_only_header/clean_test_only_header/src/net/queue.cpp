#include "net/queue.hpp"

#include "util/base.hpp"

namespace maxmin::net {
int queue() { return base(); }
}  // namespace maxmin::net
