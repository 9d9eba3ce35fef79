// Included only by its own .cpp and a test: the rule fires here.
#pragma once

namespace maxmin::net {
int probe();
}  // namespace maxmin::net
