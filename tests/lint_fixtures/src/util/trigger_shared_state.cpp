// Fixture: a mutable static that nobody wrote into the audited
// inventory (tools/lint/shared_state.toml) must fail repo_lint — this is
// the race-readiness audit exp::SweepRunner's run-per-thread workers
// lean on: no worker may ever meet process-global state the team never saw.
#include <cstdint>

namespace maxmin {
namespace {

std::int64_t& hiddenCounterRef() {
  static std::int64_t hiddenCounter = 0;  // unmanifested mutable static
  return hiddenCounter;
}

}  // namespace

std::int64_t bumpHidden() { return ++hiddenCounterRef(); }

}  // namespace maxmin
