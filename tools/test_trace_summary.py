#!/usr/bin/env python3
"""Tests for tools/trace_summary.py, the trace reader.

  MalformedInputTest  every malformed line exits 2 with `path:line:`
  Fig4TraceTest       a fixed-seed fig4 trace agrees with the run that
                      wrote it (needs --sim, the maxmin-sim binary)

Usage:
  tools/test_trace_summary.py [--sim build/tools/maxmin-sim] [unittest args]
"""

from __future__ import annotations

import csv
import io
import os
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

SUMMARY = Path(__file__).resolve().parent / "trace_summary.py"


def _take_sim(argv):
    """Remove `--sim PATH` from argv; -> the absolute PATH or None."""
    if "--sim" not in argv[:-1]:
        return None
    at = argv.index("--sim")
    sim = os.path.abspath(argv[at + 1])
    del argv[at:at + 2]
    return sim


SIM = _take_sim(sys.argv)

GOOD_FLOW = '{"id":0,"hops":2,"ratePps":1.5}'


def period(flow=GOOD_FLOW, head='"period":0,"timeUs":4000000'):
    return f'{{"record":"period",{head},"flows":[{flow}]}}'


def summarize(path, *args):
    return subprocess.run(
        [sys.executable, str(SUMMARY), str(path), *args],
        capture_output=True, text=True, timeout=60, check=False)


class MalformedInputTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.path = Path(self.dir.name) / "trace.jsonl"

    def tearDown(self):
        self.dir.cleanup()

    def assertRejectsLine2(self, bad, why):
        """A good period on line 1, then `bad`: exit 2 naming line 2."""
        data = bad if isinstance(bad, bytes) else bad.encode()
        self.path.write_bytes(period().encode() + b"\n" + data + b"\n")
        result = summarize(self.path)
        self.assertEqual(result.returncode, 2, result.stderr)
        self.assertIn(f"{self.path}:2: ", result.stderr)
        self.assertIn(why, result.stderr)
        self.assertNotIn("Traceback", result.stderr)

    def test_good_trace_is_accepted(self):
        self.path.write_text(period() + "\n\n" + period(
            head='"period":1,"timeUs":8000000') + "\n")
        result = summarize(self.path, "--csv")
        self.assertEqual(result.returncode, 0, result.stderr)
        self.assertEqual(len(result.stdout.splitlines()), 3)

    def test_record_not_an_object(self):
        for bad in ("3", "[1,2]", '"period"', "null"):
            with self.subTest(bad=bad):
                self.assertRejectsLine2(bad, "not an object")

    def test_record_kind_missing(self):
        self.assertRejectsLine2('{"period":1}', "'record' is not a string")

    def test_period_fields_missing(self):
        for key in ("period", "timeUs", "flows"):
            with self.subTest(key=key):
                fields = {"period": '"period":0', "timeUs": '"timeUs":4',
                          "flows": f'"flows":[{GOOD_FLOW}]'}
                del fields[key]
                self.assertRejectsLine2(
                    '{"record":"period",' + ",".join(fields.values()) + "}",
                    f"missing '{key}'")

    def test_period_fields_out_of_range(self):
        for head in ('"period":-1,"timeUs":0', '"period":0.5,"timeUs":0',
                     '"period":1e300,"timeUs":0', '"period":0,"timeUs":-4',
                     '"period":0,"timeUs":"4"',
                     '"period":0,"timeUs":' + "9" * 400):
            with self.subTest(head=head):
                self.assertRejectsLine2(period(head=head), "'")

    def test_flow_fields_not_finite_numbers(self):
        for flow, key in (('{"id":0,"hops":2,"ratePps":"1.5"}', "ratePps"),
                          ('{"id":0,"hops":2,"ratePps":NaN}', "ratePps"),
                          ('{"id":0,"hops":2,"ratePps":1e999}', "ratePps"),
                          ('{"id":0,"hops":2,"ratePps":-1}', "ratePps"),
                          ('{"id":0,"hops":2,"ratePps":true}', "ratePps"),
                          ('{"id":0,"hops":2}', "ratePps"),
                          ('{"id":0,"hops":"2","ratePps":1}', "hops"),
                          ('{"id":0,"hops":2.5,"ratePps":1}', "hops"),
                          ('{"id":0,"hops":0,"ratePps":1}', "hops"),
                          ('{"id":0,"ratePps":1}', "hops")):
            with self.subTest(flow=flow):
                self.assertRejectsLine2(period(flow=flow), f"'{key}'")
        self.assertRejectsLine2(period(flow="3"), "flow #0 is not an object")
        self.assertRejectsLine2(
            '{"record":"period","period":0,"timeUs":0,"flows":{}}',
            "'flows' is not an array")

    def test_optional_fields_of_the_wrong_type(self):
        for extra, why in (('"decision":[]', "'decision' is not an object"),
                           ('"decision":{"commands":"x"}', "'commands'"),
                           ('"staleNodes":5', "'staleNodes' is not an array"),
                           ('"partitions":"2"', "'partitions'")):
            with self.subTest(extra=extra):
                self.assertRejectsLine2(
                    period(head='"period":0,"timeUs":0,' + extra), why)
        self.assertRejectsLine2('{"record":"partition","quarantinedFlows":1}',
                                "'quarantinedFlows' is not an array")

    def test_bad_json(self):
        self.assertRejectsLine2('{"record":"period","broken', "bad JSON")
        self.assertRejectsLine2("[" * 100000, "bad JSON")
        self.assertRejectsLine2(period(head='"period":' + "9" * 5000 +
                                       ',"timeUs":0'), "bad JSON")
        self.assertRejectsLine2(b'{"record":"\xff"}', "not UTF-8")

    def test_unreadable_file(self):
        for path in (Path(self.dir.name) / "missing.jsonl",
                     Path(self.dir.name)):
            with self.subTest(path=path):
                result = summarize(path)
                self.assertEqual(result.returncode, 2, result.stderr)
                self.assertIn(f"{path}: cannot read", result.stderr)
                self.assertNotIn("Traceback", result.stderr)


@unittest.skipIf(SIM is None, "needs --sim <maxmin-sim>")
class Fig4TraceTest(unittest.TestCase):
    def test_periods_match_the_run(self):
        with tempfile.TemporaryDirectory() as tmp:
            trace = Path(tmp) / "fig4.jsonl"
            run = subprocess.run(
                [SIM, "--scenario", "fig4", "--protocol", "gmp", "--seed",
                 "1", "--duration", "40", "--warmup", "20", "--trace",
                 str(trace), "--trace-level", "period"],
                capture_output=True, text=True, timeout=300, check=False)
            self.assertEqual(run.returncode, 0, run.stderr)
            summary = summarize(trace, "--csv")
        self.assertEqual(summary.returncode, 0, summary.stderr)
        rows = list(csv.DictReader(io.StringIO(summary.stdout)))

        # 40 s at the 4 s GMP period; fig4 has 8 flows.
        self.assertEqual(len(rows), 10)
        for i, row in enumerate(rows):
            self.assertEqual(int(row["period"]), i)
            self.assertEqual(int(row["flows"]), 8)
            self.assertGreaterEqual(float(row["I_mm"]), 0.0)
            self.assertLessEqual(float(row["I_mm"]), 1.0)

        prefix = "GMP violations per period:"
        printed = [line[len(prefix):].split() for line in
                   run.stdout.splitlines() if line.startswith(prefix)]
        self.assertEqual(len(printed), 1, run.stdout)
        self.assertEqual([row["violations"] for row in rows], printed[0])


if __name__ == "__main__":
    unittest.main()
