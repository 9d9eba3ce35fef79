// Fixture: std::function as a timer callback in the DES kernel must fire
// [event-fn].
#pragma once

#include <functional>

namespace fixture {

struct Timer {
  std::function<void()> callback;
};

}  // namespace fixture
