#!/usr/bin/env python3
"""Self-test of the benchmark program.

For each workload at a short horizon, checks that the program's own
sequence of library calls gives the same output fingerprint as
analysis::runScenario, and that the traced run (run() split into slices,
period hook capturing snapshots) gives the same fingerprint as the
untraced one. Exits non-zero on any mismatch or invalid output.

    python3 perfbench/check.py [--seeds 1,2]
"""

import argparse
import json
import subprocess
import sys

import run


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1", help="comma-separated topology seeds")
    args = ap.parse_args()
    run.build()
    failures = 0
    for workload in run.WORKLOADS:
        for seed in args.seeds.split(","):
            proc = subprocess.run(
                [str(run.SIM_BIN), "--workload", workload, "--seed", seed, "--check"],
                capture_output=True, text=True, timeout=300)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            ok = proc.returncode == 0 and result.get("match") is True
            failures += not ok
            print(f"{'ok  ' if ok else 'FAIL'} {workload} seed={seed} "
                  f"untraced={result.get('untraced')} traced={result.get('traced')} "
                  f"runScenario={result.get('run_scenario')} {result.get('error', '')}"
                  f"{proc.stderr.strip()[-300:]}", flush=True)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
