#!/usr/bin/env bash
# Run the event-queue microbenchmarks and emit BENCH_kernel.json — the
# kernel performance trajectory artifact. Run after any change to
# src/sim/ and commit the refreshed JSON alongside it. Usage:
#
#   tools/emit_bench_kernel.sh [build-dir] [output.json]
#   tools/emit_bench_kernel.sh --medium [build-dir] [out.json]
#   tools/emit_bench_kernel.sh --topo [build-dir] [out.json]
#   tools/emit_bench_kernel.sh --hybrid [build-dir] [out.json]
#
# Defaults: build/ and BENCH_kernel.json at the repo root. The JSON is
# google-benchmark's machine-readable format (context block with host
# info + one record per benchmark, items_per_second included).
#
# --medium runs the frame-pipeline benchmarks (bench/bench_medium:
# start/finish cycles and dense same-instant bursts at N in {50,200,800},
# plus the dense macro scenarios: GMP at N=60, 802.11 at N in {200,800})
# and writes BENCH_medium.json — the
# Medium performance trajectory artifact. Run after any change to
# src/phys/ or src/topology/ and commit the refreshed JSON alongside it.
#
# --topo runs the large-N topology-construction sweep
# (BM_TopologyConstruct at N in {800, 5000, 20000, 100000}) and writes
# BENCH_topology.json — construction wall time plus the `bytes`
# (memoryFootprintBytes) and `edges` counters per N, proving memory
# stays O(nodes + edges). Run after
# any change to src/topology/ construction and commit the refreshed
# JSON alongside it.
#
# --hybrid times the long-horizon steady-state estimation workload
# (random mesh N=20, 12 flows, seed 11, gmp) three ways — pure packet,
# --fast-forward, and --hybrid background — gates each accelerated mode
# on |dI_mm|/|dI_eq| against the pure reference, and writes
# BENCH_hybrid.json with wall times, deltas, and speedups. Run after
# any change to src/fluid/ or src/hybrid/ and commit the refreshed
# JSON alongside it. Knobs: BENCH_HYBRID_REPS (default 2).

set -euo pipefail
cd "$(dirname "$0")/.."

FILTER='BM_Timer(Queue(ArmRun|SteadyState|SameInstantBursts|LongRun)|Cancellation|Rearm)'
MEDIUM_FILTER='BM_Medium(StartFinish|DenseBurst|DenseMacro|DenseDcf|SparseStartFinish)'
TOPO_FILTER='BM_TopologyConstruct'

run_bench() { # build-dir bench-binary filter out.json
  if [[ ! -x "$1/bench/$2" ]]; then
    echo "error: $1/bench/$2 not built" >&2
    echo "hint: cmake -B $1 -S . && cmake --build $1 --target $2" >&2
    exit 1
  fi
  "$1/bench/$2" \
    --benchmark_filter="$3" \
    --benchmark_min_time=0.5 \
    --benchmark_repetitions=3 \
    --benchmark_report_aggregates_only=true \
    --benchmark_out_format=json \
    --benchmark_out="$4"
}

if [[ "${1:-}" == "--medium" ]]; then
  BUILD_DIR="${2:-build}"
  OUT="${3:-BENCH_medium.json}"
  run_bench "$BUILD_DIR" bench_medium "$MEDIUM_FILTER" "$OUT"
  echo "wrote $OUT"
  exit 0
fi

if [[ "${1:-}" == "--topo" ]]; then
  BUILD_DIR="${2:-build}"
  OUT="${3:-BENCH_topology.json}"
  run_bench "$BUILD_DIR" bench_medium "$TOPO_FILTER" "$OUT"
  echo "wrote $OUT"
  exit 0
fi

if [[ "${1:-}" == "--hybrid" ]]; then
  # Hybrid fluid/packet trajectory (EXPERIMENTS.md E15): steady-state
  # I_mm/I_eq estimation on a long-horizon mesh, three ways. The pure
  # run is the reference (1000 s measured window after a 200 s packet
  # warmup). Fast-forward replaces the warmup with the fluid fixed point
  # (same 1000 s window); hybrid-background additionally advances all
  # non-foreground flows with the fluid solver, and because the run
  # starts inside the fixed-point basin a 100 s window suffices. The
  # accuracy gate runs inline — a speedup at unmatched accuracy would be
  # worthless — and the deltas are recorded in the artifact. Best-of-REPS
  # wall time per config (throughput noise is one-sided). Knobs:
  # BENCH_HYBRID_REPS (default 2).
  BUILD_DIR="${2:-build}"
  OUT="${3:-BENCH_hybrid.json}"
  SIM="$BUILD_DIR/tools/maxmin-sim"
  if [[ ! -x "$SIM" ]]; then
    echo "error: $SIM not built" >&2
    echo "hint: cmake -B $BUILD_DIR -S . && cmake --build $BUILD_DIR --target maxmin_sim_cli" >&2
    exit 1
  fi
  TMP="$(mktemp -d)"
  trap 'rm -rf "$TMP"' EXIT
  REPS="${BENCH_HYBRID_REPS:-2}"
  BASE=(--scenario mesh --nodes 20 --flows 12 --seed 11 --csv)
  declare -A MODE_ARGS=(
    [pure]="--duration 1200 --warmup 200"
    [ff]="--duration 1020 --warmup 20 --fast-forward"
    [hybrid]="--duration 120 --warmup 20 --fast-forward --hybrid --foreground auto:3"
  )
  for mode in pure ff hybrid; do
    : > "$TMP/times-$mode"
    # shellcheck disable=SC2086
    for ((i = 0; i < REPS; ++i)); do
      start=$(date +%s.%N)
      "$SIM" "${BASE[@]}" ${MODE_ARGS[$mode]} > "$TMP/out-$mode.csv"
      end=$(date +%s.%N)
      echo "$start $end" >> "$TMP/times-$mode"
    done
  done
  python3 - "$TMP" "$OUT" <<'PY'
import json, os, sys

tmp, out_path = sys.argv[1], sys.argv[2]

def metrics(mode):
    vals = {}
    with open(f"{tmp}/out-{mode}.csv", encoding="utf-8") as fh:
        for line in fh:
            parts = line.strip().split(",")
            if len(parts) == 2 and parts[0] in (
                    "I_mm", "I_eq", "ff_periods", "ff_converged",
                    "background_flows", "relinearizations",
                    "phantom_bursts", "seeded_packets"):
                vals[parts[0]] = float(parts[1])
    return vals

def times(mode):
    secs = []
    with open(f"{tmp}/times-{mode}", encoding="utf-8") as fh:
        for line in fh:
            a, b = map(float, line.split())
            secs.append(round(b - a, 4))
    return secs

# Accuracy tolerances (DESIGN.md §16): fast-forward changes only the
# transient, so it must land essentially on the pure estimate; the
# hybrid background carries the fluid idealization gap plus the shorter
# window's variance.
TOL = {"ff": (0.02, 0.02), "hybrid": (0.05, 0.08)}

pure = metrics("pure")
report = {
    "context": {
        "host_hardware_concurrency": os.cpu_count(),
        "note": "single-threaded runs; speedup is event-count, not "
                "parallelism. The hybrid window is 100 s vs the pure "
                "1000 s: fluid fast-forward starts the run inside the "
                "fixed-point basin, so the short window estimates the "
                "same steady state (gated below).",
    },
    "workload": "random mesh N=20 flows=12 seed=11, gmp; steady-state "
                "I_mm/I_eq estimation",
    "modes": {},
}
best = {}
for mode in ("pure", "ff", "hybrid"):
    vals = metrics(mode)
    secs = times(mode)
    best[mode] = min(secs)
    entry = {"wall_seconds": secs, "best_wall_seconds": best[mode]}
    entry.update({k: vals[k] for k in sorted(vals)})
    if mode != "pure":
        d_imm = abs(vals["I_mm"] - pure["I_mm"])
        d_ieq = abs(vals["I_eq"] - pure["I_eq"])
        tol_imm, tol_ieq = TOL[mode]
        entry["delta_I_mm"] = round(d_imm, 4)
        entry["delta_I_eq"] = round(d_ieq, 4)
        entry["tolerance_I_mm"] = tol_imm
        entry["tolerance_I_eq"] = tol_ieq
        entry["speedup_vs_pure"] = round(best["pure"] / best[mode], 2)
        if d_imm > tol_imm or d_ieq > tol_ieq:
            sys.exit(f"FAIL: {mode} accuracy gate: dI_mm={d_imm:.4f} "
                     f"(tol {tol_imm}), dI_eq={d_ieq:.4f} (tol {tol_ieq})")
    report["modes"][mode] = entry
with open(out_path, "w", encoding="utf-8") as fh:
    json.dump(report, fh, indent=2)
    fh.write("\n")
h = report["modes"]["hybrid"]
f = report["modes"]["ff"]
print(f"pure {best['pure']:.2f}s; ff {best['ff']:.2f}s "
      f"({f['speedup_vs_pure']}x, dI_mm {f['delta_I_mm']}); "
      f"hybrid {best['hybrid']:.2f}s ({h['speedup_vs_pure']}x, "
      f"dI_mm {h['delta_I_mm']}, dI_eq {h['delta_I_eq']})")
PY
  echo "wrote $OUT"
  exit 0
fi

BUILD_DIR="${1:-build}"
OUT="${2:-BENCH_kernel.json}"
run_bench "$BUILD_DIR" bench_micro "$FILTER" "$OUT"
echo "wrote $OUT"
