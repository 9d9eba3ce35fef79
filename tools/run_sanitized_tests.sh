#!/usr/bin/env bash
# Sanitizer matrix for the test suite.
#
#   tools/run_sanitized_tests.sh [lane] [ctest -R filter]
#
#   lane: asan  ASan+UBSan over the full suite (default). The fault-
#               injection and robustness tests exercise the crash/recover
#               state machine, whose bugs are exactly the use-after-flush
#               and dangling-timer kind these sanitizers catch.
#         tsan  ThreadSanitizer over the concurrent suites — exp_test
#               (SweepRunner's thread pool and atomic work claiming),
#               sim_test and des_property_test (the kernel the workers
#               run run-per-thread; TSan proves the "distinct Simulators
#               share no state" argument, not just asserts it) and
#               obs_test (the process-wide profiler's site registry).
#         all   both lanes in sequence.
#
#   tools/run_sanitized_tests.sh                    # asan, full suite
#   tools/run_sanitized_tests.sh asan 'fault|robust'
#   tools/run_sanitized_tests.sh tsan               # exp/sim/DES/obs suites
#   tools/run_sanitized_tests.sh all
set -euo pipefail
cd "$(dirname "$0")/.."

LANE="${1:-asan}"
FILTER="${2:-}"

run_lane() {
  local preset="$1" filter="$2"
  shift 2
  cmake --preset "$preset"
  cmake --build --preset "$preset" -j "$(nproc)"
  (
    cd "build-$preset"
    if [[ -n "$filter" ]]; then
      ctest --output-on-failure -j "$(nproc)" -R "$filter" "$@"
    else
      ctest --output-on-failure -j "$(nproc)" "$@"
    fi
  )
}

case "$LANE" in
  asan)
    export ASAN_OPTIONS="strict_string_checks=1:detect_stack_use_after_return=1"
    export UBSAN_OPTIONS="print_stacktrace=1"
    run_lane asan "$FILTER"
    ;;
  tsan)
    export TSAN_OPTIONS="halt_on_error=1:second_deadlock_stack=1"
    # Suites with real concurrency, selected by binary label (see
    # tests/CMakeLists.txt); everything else is single-threaded by design.
    run_lane tsan "$FILTER" -L '^(exp_test|sim_test|des_property_test|obs_test)$'
    ;;
  all)
    "$0" asan "$FILTER"
    "$0" tsan "$FILTER"
    ;;
  *)
    echo "usage: $0 [asan|tsan|all] [ctest -R filter]" >&2
    exit 2
    ;;
esac
