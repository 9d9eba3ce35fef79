// Included by its own .cpp and by a bench program.
#pragma once

namespace maxmin::net {
int queue();
}  // namespace maxmin::net
