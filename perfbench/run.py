#!/usr/bin/env python3
"""libmaxmin benchmark of record.

Runs one workload and prints, as the last line of stdout, one JSON object:
{"correct": bool, "attempted": n, "failed": n, "metrics": {name: {value, unit}}}

    python3 perfbench/run.py --workload mesh20_gmp --seed 1 --seconds 30 --trace 0

Run it from anywhere inside a libmaxmin checkout; it builds
perfbench_sim (sim.cpp, linked against the repository's libraries
with the repository's own flags) into .bench_build/ on first use.

A run simulates the workload on topologies derived from --seed (topology
i uses seed + 1000003*i, as maxmin-sim --sweep derives one scenario per
seed), one benchmark process per topology, starting new topologies until
--seconds have passed, and reports the median over topologies.

--trace 0 reports the end-to-end metrics, measured untraced.
--trace 1 runs each topology twice, untraced and traced, and reports the
per-layer metrics of the traced instances plus the tracing overhead; the
spans go to .bench_build/spans/.

An instance fails if it throws, misses its horizon, produces an
implausible rate or fairness index, or if its output fingerprint differs
from an earlier run of the same benchmark binary, workload and topology.
The run stops at the first failed instance.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_build"
BUILD = OUT / "cmake"
SIM_BIN = BUILD / "perfbench_sim"
SEED_STRIDE = 1000003
MIN_TOPOLOGIES = 3
INSTANCE_TIMEOUT_S = 30
RUN_LIMIT_S = 120  # start no new instance after this; a run must end by 180

# Metric names and units come from the benchmark's manifest.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def log(msg):
    print(msg, flush=True)


def build():
    """Configure (once) and build the benchmark program; exits non-zero on failure."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        sys.exit(f"perfbench: no libmaxmin sources under {ROOT}")
    BUILD.mkdir(parents=True, exist_ok=True)
    build_log = OUT / "build.log"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT), "-B", str(BUILD),
                      f"-DCMAKE_PROJECT_libmaxmin_INCLUDE={HERE / 'sim.cmake'}"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench_sim",
                  "-j", jobs])
    with open(build_log, "a") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode:
                out.flush()
                tail = build_log.read_text(errors="replace").splitlines()[-30:]
                sys.stderr.write("\n".join(tail) + "\n")
                sys.exit(f"perfbench: build step failed: {' '.join(cmd)}")


def binary_id():
    with open(SIM_BIN, "rb") as f:
        return hashlib.file_digest(f, "sha256").hexdigest()[:16]


class Fingerprints:
    """Fingerprints seen so far, per benchmark binary, workload and topology
    seed. Repeats that disagree mark the instance failed."""

    def __init__(self, workload):
        self.path = OUT / "fingerprints.json"
        self.prefix = f"{binary_id()}/{workload}/"
        try:
            self.seen = json.loads(self.path.read_text())
        except (OSError, ValueError):
            self.seen = {}

    def agrees(self, seed, fp):
        key = self.prefix + str(seed)
        if self.seen.setdefault(key, fp) == fp:
            return True
        log(f"  fingerprint {fp} for seed {seed} differs from earlier {self.seen[key]}")
        return False

    def save(self):
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.seen, indent=0, sort_keys=True))
        os.replace(tmp, self.path)


def run_instance(workload, seed, traced):
    """One benchmark process; returns its JSON result, or None on failure."""
    cmd = [str(SIM_BIN), "--workload", workload, "--seed", str(seed)]
    if traced:
        spans = OUT / "spans"
        spans.mkdir(parents=True, exist_ok=True)
        cmd += ["--traced", "--spans", str(spans / f"{workload}-{seed}.jsonl")]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=INSTANCE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"  seed {seed}: timed out after {INSTANCE_TIMEOUT_S} s")
        return None
    try:
        out = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        log(f"  seed {seed}: no result (exit {proc.returncode}): {proc.stderr.strip()[-300:]}")
        return None
    mode = "traced" if traced else "untraced"
    log(f"  seed {seed} {mode}: wall_s={out.get('wall_s', 0):.4f} "
        f"setup_s={out.get('setup_s', 0):.6f} fingerprint={out.get('fingerprint')}"
        + ("" if out.get("valid") else f" INVALID: {out.get('error')}"))
    if proc.returncode != 0 or not out.get("valid"):
        return None
    out["sim_s_per_wall_s"] = out["sim_s"] / out["run_s"]
    return out


def topology_seeds(seed, seconds):
    """Topology seeds of one run, handed out while the time budget lasts
    (at least MIN_TOPOLOGIES of them)."""
    start = time.monotonic()
    budget = min(seconds, RUN_LIMIT_S)
    i = 0
    while i < MIN_TOPOLOGIES or time.monotonic() - start < budget:
        yield (seed + SEED_STRIDE * i) % 2**64
        i += 1


def median_of(results, pick):
    return statistics.median(map(pick, results)) if results else 0.0


def measure(workload, seed, seconds, fps):
    """Untraced, one instance per topology; end-to-end metrics."""
    results = []
    attempted = 0
    for s in topology_seeds(seed, seconds):
        attempted += 1
        out = run_instance(workload, s, traced=False)
        if out is None or not fps.agrees(s, out["fingerprint"]):
            break
        results.append(out)
    failed = attempted - len(results)
    return attempted, failed, {
        name: (median_of(results, lambda r: r[name]), unit)
        for name, unit in END_TO_END.items()}


def measure_traced(workload, seed, seconds, fps):
    """An untraced and a traced instance per topology; per-layer metrics
    of the traced ones, and the tracing overhead between the two."""
    results = []
    overheads = []
    attempted = failed = 0
    for s in topology_seeds(seed, seconds):
        attempted += 2
        plain = run_instance(workload, s, traced=False)
        traced = run_instance(workload, s, traced=True)
        ok = [r is not None and fps.agrees(s, r["fingerprint"]) for r in (plain, traced)]
        failed += ok.count(False)
        if not all(ok):
            break
        results.append(traced)
        overheads.append(100.0 * (traced["wall_s"] / plain["wall_s"] - 1.0))
    values = {name: median_of(results, lambda r: r["layers"][name])
              for name in PER_LAYER if name != "trace.overhead_pct"}
    values["trace.overhead_pct"] = median_of(overheads, float)
    return attempted, failed, {n: (values[n], u) for n, u in PER_LAYER.items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    build()
    fps = Fingerprints(args.workload)
    log(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
        f"(binary {binary_id()}, nproc {os.cpu_count()})")
    if args.trace:
        attempted, failed, metrics = measure_traced(args.workload, args.seed,
                                                    args.seconds, fps)
    else:
        attempted, failed, metrics = measure(args.workload, args.seed, args.seconds, fps)
    fps.save()

    for name, (value, unit) in metrics.items():
        log(f"{name:32s} {value:16.6f} {unit}")
    log(f"attempted {attempted} failed {failed}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
