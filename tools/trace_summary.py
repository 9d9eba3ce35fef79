#!/usr/bin/env python3
"""trace_summary — per-period digest of a maxmin-sim structured trace.

Reads the JSONL written by `maxmin-sim --trace out.jsonl` and prints one
row per GMP period with the recomputed fairness indices: I_mm (min/max
rate), I_eq (Jain's index), U (sum of rate * hops), plus the decision
counts the controller recorded. It is the project's one trace reader.

A malformed line (bad JSON, a record that is not an object, a period
record without its fields, a flow whose hops or rate is not a finite
number) is reported as `path:line: what is wrong`, exit status 2.

Usage:
  tools/trace_summary.py out.jsonl            human-readable table
  tools/trace_summary.py out.jsonl --csv      CSV (for gnuplot/pandas)
  tools/trace_summary.py out.jsonl --events   also count event records
"""

from __future__ import annotations

import argparse
import json
import math
import sys

INT64 = 2 ** 63


class TraceError(Exception):
    """What is wrong with one trace line."""


def _number(rec, key, *, integer=False, minimum=None, default=None):
    """rec[key] as a finite number (an int64 if `integer`) >= `minimum`;
    `default` when the key is absent and a default is given."""
    if key not in rec:
        if default is None:
            raise TraceError(f"missing '{key}'")
        return default
    value = rec[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        ok = False
    elif isinstance(value, int):
        ok = -INT64 <= value < INT64
    else:
        ok = not integer and math.isfinite(value)
    if not ok:
        kind = "an integer" if integer else "a finite number"
        raise TraceError(f"'{key}' is not {kind}: {value!r}")
    if minimum is not None and value < minimum:
        raise TraceError(f"'{key}' is below {minimum}: {value!r}")
    return value


def _array(rec, key, *, required=False):
    """rec[key] as a list; [] when absent unless `required`."""
    if key not in rec:
        if required:
            raise TraceError(f"missing '{key}'")
        return []
    value = rec[key]
    if not isinstance(value, list):
        raise TraceError(f"'{key}' is not an array: {value!r}")
    return value


def fairness(flows):
    """-> (imm, ieq, u) over the period's flow records."""
    rates = [f["ratePps"] for f in flows]
    if not rates:
        return 1.0, 1.0, 0.0
    imm = min(rates) / max(rates) if max(rates) > 0 else 1.0
    sq = sum(r * r for r in rates)
    total = sum(rates)
    ieq = (total * total) / (len(rates) * sq) if sq > 0 else 1.0
    u = sum(f["ratePps"] * f["hops"] for f in flows)
    return imm, ieq, u


def period_row(rec):
    """One output row from a period record."""
    flows = []
    for i, flow in enumerate(_array(rec, "flows", required=True)):
        if not isinstance(flow, dict):
            raise TraceError(f"flow #{i} is not an object: {flow!r}")
        try:
            flows.append({"hops": _number(flow, "hops", integer=True,
                                          minimum=1),
                          "ratePps": _number(flow, "ratePps", minimum=0)})
        except TraceError as e:
            raise TraceError(f"flow #{i}: {e}") from None
    imm, ieq, u = fairness(flows)
    decision = rec.get("decision", {})
    if not isinstance(decision, dict):
        raise TraceError(f"'decision' is not an object: {decision!r}")
    violations = (
        _number(decision, "sourceBufferViolations", integer=True, default=0) +
        _number(decision, "bandwidthViolations", integer=True, default=0))
    return [
        _number(rec, "period", integer=True, minimum=0),
        f"{_number(rec, 'timeUs', integer=True, minimum=0) / 1e6:.3f}",
        len(flows),
        f"{imm:.4f}",
        f"{ieq:.4f}",
        f"{u:.1f}",
        violations,
        _number(decision, "commands", integer=True, default=0),
        len(_array(rec, "staleNodes")),
        len(_array(rec, "impairedFlows")),
        # Fault-free traces omit the partition fields entirely.
        _number(rec, "partitions", integer=True, default=1),
        len(_array(rec, "quarantinedFlows")),
    ]


def _record(raw):
    """One JSONL line as a record object, or None for a blank line."""
    try:
        line = raw.decode("utf-8").strip()
    except UnicodeDecodeError:
        raise TraceError("not UTF-8 text") from None
    if not line:
        return None
    try:
        rec = json.loads(line)
    except ValueError as e:  # JSONDecodeError, or an over-long integer
        raise TraceError(f"bad JSON: {e}") from None
    except RecursionError:
        raise TraceError("bad JSON: nested too deeply") from None
    if not isinstance(rec, dict):
        raise TraceError(f"record is not an object: {line[:40]}")
    if not isinstance(rec.get("record"), str):
        raise TraceError(f"'record' is not a string: {rec.get('record')!r}")
    return rec


def read_trace(path):
    """-> (period rows, event counts by record kind, (partitions,
    quarantined flows) of each partition record). Raises TraceError
    naming `path:line:` at the first malformed line."""
    rows = []
    event_counts = {}
    partitions = []
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, 1):
            try:
                rec = _record(raw)
                if rec is None:
                    continue
                kind = rec["record"]
                if kind == "period":
                    rows.append(period_row(rec))
                    continue
                event_counts[kind] = event_counts.get(kind, 0) + 1
                if kind == "partition":
                    partitions.append((
                        _number(rec, "partitions", integer=True, default=1),
                        len(_array(rec, "quarantinedFlows"))))
            except TraceError as e:
                raise TraceError(f"{path}:{lineno}: {e}") from None
    return rows, event_counts, partitions


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trace", help="JSONL trace from maxmin-sim --trace")
    parser.add_argument("--csv", action="store_true", help="emit CSV")
    parser.add_argument("--events", action="store_true",
                        help="append per-record-type event counts")
    args = parser.parse_args(argv)

    try:
        rows, event_counts, partition_recs = read_trace(args.trace)
    except TraceError as e:
        print(e, file=sys.stderr)
        return 2
    except OSError as e:
        print(f"{args.trace}: cannot read: {e.strerror}", file=sys.stderr)
        return 2

    header = ["period", "time_s", "flows", "I_mm", "I_eq",
              "U_pkt_hops_per_s", "violations", "commands", "stale_nodes",
              "impaired_flows", "partitions", "quarantined"]
    if args.csv:
        print(",".join(header))
        for row in rows:
            print(",".join(str(c) for c in row))
    else:
        widths = [max(len(str(h)), *(len(str(r[i])) for r in rows))
                  if rows else len(str(h))
                  for i, h in enumerate(header)]
        print("  ".join(str(h).rjust(w) for h, w in zip(header, widths)))
        for row in rows:
            print("  ".join(str(c).rjust(w) for c, w in zip(row, widths)))

    # Fault/repair digest: the self-healing control plane's event records
    # (relay repairs, dissemination retransmits/failures, partitions).
    fault_kinds = ["fault", "relay_repair", "retransmit", "delivery_failure",
                   "partition", "stale_substitution", "limit_restored"]
    seen_fault = [k for k in fault_kinds if event_counts.get(k)]
    if seen_fault:
        print()
        print("fault/repair events:")
        for kind in seen_fault:
            print(f"  {kind}: {event_counts[kind]}")
        if partition_recs:
            peak = max(p for p, _ in partition_recs)
            quarantined = sum(q for _, q in partition_recs)
            print(f"  peak_partitions: {peak}")
            print(f"  quarantined_flow_periods: {quarantined}")

    if args.events and event_counts:
        print()
        for kind in sorted(event_counts):
            print(f"{kind}: {event_counts[kind]}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
