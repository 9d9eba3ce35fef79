// Fixture: a timer callback bound as a {function, context} pair stays
// silent; so does a comment explaining why std::function is banned.
#pragma once

namespace fixture {

struct Callback {
  void (*fn)(void*);
  void* ctx;
};

struct Timer {
  // std::function would type-erase (and may heap-allocate) here; a bound
  // pair is two words, fixed at construction.
  Callback callback;
};

}  // namespace fixture
