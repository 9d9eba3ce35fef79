#!/usr/bin/env python3
"""maxmin_lint — project static analysis for the maxmin repo.

The GMP maxmin guarantee rests on determinism invariants the compiler
cannot see, and exp::SweepRunner's run-per-thread workers add
concurrency-readiness invariants TSan can only check at runtime. This
package encodes both as mechanical rules (catalog with bug history:
DESIGN.md §10):

  pattern rules (rules.py, matched over token-stripped lines):
    raw-rng            all randomness via named maxmin::Rng streams
    wall-clock         sim subsystems live on Simulator::now()
    hot-map            no std::map/set/multimap/multiset in hot headers
    event-fn           src/sim timer callbacks are bound {fn, ctx} pairs,
                       never std::function
    chrono-outside-obs obs::Profiler::wallNanos() is the one wall clock
    raw-fork           Rng::fork() only in the frozen bring-up order
    per-frame-distance no geometry queries on the frame pipeline
    nul-byte-in-source sources stay text; binary-classified files are
                       refused loudly by every rule (cpptok front-end)

  structural rules (token/graph level):
    layering           src/ include graph conforms to the documented DAG
                       and is acyclic (layering.py; committed dump in
                       tools/lint/include_graph.json)
    test-only-header   every src/ header is included by a program file,
                       not only by its own .cpp and tests/ (layering.py)
    unordered-iter     no unordered-container iteration feeding ordered
                       output or float accumulators (determinism.py)
    shared-state       every mutable static/singleton is audited in
                       tools/lint/shared_state.toml (shared_state.py)
    allow-out-of-scope an allow(rule) pragma sits in a file that rule's
                       scope excludes, so it suppresses nothing

Suppressions:
  // maxmin-lint: allow(<rule>) <reason>        one line (and the next)
  // maxmin-lint: allow-file(<rule>) <reason>   whole file

Usage:
  tools/lint/maxmin_lint.py                 lint the repo (exit 1 on findings)
  tools/lint/maxmin_lint.py path...         lint specific files
  tools/lint/maxmin_lint.py --fixtures DIR  run the fixture expectations
  tools/lint/maxmin_lint.py --list-rules    print the rule catalog
  tools/lint/maxmin_lint.py --json          findings as JSON (CI annotation)
  tools/lint/maxmin_lint.py --dump-graph    rewrite include_graph.json
  tools/lint/maxmin_lint.py --layering-only just the include-graph checks
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import cpptok  # noqa: E402
import determinism  # noqa: E402
import layering  # noqa: E402
import shared_state  # noqa: E402
from rules import (  # noqa: E402
    BAKED_ALLOW, RULES, RULE_BY_ID, Finding, check_patterns,
    check_pragma_scope, collect_pragmas, message_of,
)

# --------------------------------------------------------------------------
# Per-file linting
# --------------------------------------------------------------------------


def _paired_header_tokens(path: Path):
    """Token streams of the .hpp/.h sibling of a .cpp/.cc (member
    declarations live there; the unordered-iter symbol table needs them)."""
    if path.suffix not in (".cpp", ".cc"):
        return []
    streams = []
    for suffix in (".hpp", ".h"):
        sibling = path.with_suffix(suffix)
        if sibling.exists():
            text = sibling.read_text(encoding="utf-8", errors="replace")
            streams.append(cpptok.scan(text).tokens)
    return streams


def lint_file(path, rel, manifest=None, statics_out=None):
    try:
        raw = path.read_text(encoding="utf-8", errors="replace")
    except OSError as e:
        print(f"warning: cannot read {rel}: {e}", file=sys.stderr)
        return []
    raw_lines = raw.splitlines()
    file_allows, line_allows = collect_pragmas(
        raw_lines,
        lambda msg: print(f"warning: {rel}: {msg}", file=sys.stderr))

    def allowed(lineno, rule_id):
        if rule_id in file_allows:
            return True
        if rule_id in BAKED_ALLOW and rel in BAKED_ALLOW[rule_id]:
            return True
        return rule_id in line_allows.get(lineno, set())

    scanned = cpptok.scan(raw)
    findings = []

    # Binary classification is a front-end property: a control byte makes
    # grep drop the whole file from text tooling, so no other rule gets a
    # trustworthy view. Refuse loudly instead of linting garbage.
    if scanned.is_binary:
        msg = message_of("nul-byte-in-source")
        for lineno in scanned.control_lines:
            if not allowed(lineno, "nul-byte-in-source"):
                findings.append(
                    Finding(rel, lineno, "nul-byte-in-source", msg))
        if findings:
            print(f"warning: {rel}: binary-classified (control bytes); "
                  "all other rules refused for this file", file=sys.stderr)
        return findings

    stripped_lines = scanned.stripped_lines()
    check_patterns(rel, stripped_lines, findings, allowed)
    check_pragma_scope(rel, raw_lines, findings, allowed)
    if RULE_BY_ID["unordered-iter"].in_scope(rel):
        determinism.check_file(rel, scanned.tokens,
                               _paired_header_tokens(path), findings, allowed)
    if manifest is not None and RULE_BY_ID["shared-state"].in_scope(rel):
        seen = shared_state.check_file(rel, scanned.tokens, manifest,
                                       findings, allowed)
        if statics_out is not None:
            statics_out.extend(seen)
    return findings


SKIP_DIRS = {".git", ".github", "third_party"}
SKIP_REL = ("tests/lint_fixtures/",)


def repo_files(root):
    for path in sorted(root.rglob("*")):
        if path.suffix not in (".hpp", ".h", ".cpp", ".cc"):
            continue
        rel = path.relative_to(root).as_posix()
        parts = rel.split("/")
        if any(p in SKIP_DIRS or p.startswith("build") for p in parts[:-1]):
            continue
        if rel.startswith(SKIP_REL):
            continue
        yield path, rel


def lint_tree(root, explicit=None):
    findings = []
    if explicit:
        # Explicit file list: per-file rules only (the tree-wide layering
        # and manifest-staleness checks need the whole repo view).
        manifest = shared_state.load_manifest(root)
        for p in explicit:
            path = Path(p).resolve()
            rel = path.relative_to(root).as_posix()
            findings.extend(lint_file(path, rel, manifest))
        return findings
    manifest = shared_state.load_manifest(root)
    statics = []
    for path, rel in repo_files(root):
        findings.extend(lint_file(path, rel, manifest, statics))
    layer_findings, _ = layering.check_tree(root)
    findings.extend(layer_findings)
    shared_state.check_manifest(manifest, statics, findings)
    return findings


# --------------------------------------------------------------------------
# Fixture mode: trigger_<rule>* must fire exactly that rule, clean_* must
# be silent. Fixtures mirror the repo layout under the fixture root so the
# path-scoping logic is exercised too. Directories under
# <fixtures>/<family>/ hold synthetic trees for the tree-wide include
# checks (trigger_* trees must yield findings of the family's rule only,
# clean_* trees none).
# --------------------------------------------------------------------------

# family directory -> (rule, check of one synthetic tree)
TREE_FAMILIES = {
    "layering": ("layering", lambda case: layering.check_graph(
        *layering.scan_includes(case / "src"))),
    "test_only_header": ("test-only-header", layering.check_tree_headers),
}

RULE_IDS_SORTED = sorted((r.rule_id for r in RULES), key=len, reverse=True)


def _expected_rule(name):
    for r in RULE_IDS_SORTED:
        if name.replace("-", "_").startswith(r.replace("-", "_")):
            return r
    return None


def run_fixtures(fixture_root):
    failures = 0
    cases = 0
    manifest = shared_state.load_manifest(
        Path(__file__).resolve().parents[2])
    for path, rel in repo_files(fixture_root):
        if rel.split("/", 1)[0] in TREE_FAMILIES:
            continue  # members of the synthetic trees below
        name = path.stem
        if name.startswith("trigger_"):
            expect = name[len("trigger_"):]
        elif name.startswith("clean_"):
            expect = None
        else:
            continue
        cases += 1
        findings = lint_file(path, rel, manifest)
        if expect is None:
            if findings:
                failures += 1
                print(f"FAIL {rel}: expected clean, got:")
                for f in findings:
                    print(f"  {f}")
            else:
                print(f"PASS {rel} (clean)")
            continue
        rule_id = _expected_rule(expect)
        if rule_id is None:
            failures += 1
            print(f"FAIL {rel}: fixture names unknown rule '{expect}'")
            continue
        fired = {f.rule_id for f in findings}
        if rule_id not in fired:
            failures += 1
            print(f"FAIL {rel}: expected [{rule_id}] to fire, "
                  f"got {sorted(fired) or 'nothing'}")
        elif fired != {rule_id}:
            failures += 1
            print(f"FAIL {rel}: unexpected extra rules fired: "
                  f"{sorted(fired - {rule_id})}")
        else:
            print(f"PASS {rel} ([{rule_id}] fired)")

    for family, (rule_id, check) in TREE_FAMILIES.items():
        family_root = fixture_root / family
        if not family_root.is_dir():
            continue
        for case in sorted(family_root.iterdir()):
            if not case.is_dir() or not (case / "src").is_dir():
                continue
            cases += 1
            findings = check(case)
            rel = f"{family}/{case.name}"
            if case.name.startswith("clean_"):
                if findings:
                    failures += 1
                    print(f"FAIL {rel}: expected clean, got:")
                    for f in findings:
                        print(f"  {f}")
                else:
                    print(f"PASS {rel} (clean)")
            elif case.name.startswith("trigger_"):
                bad = [f for f in findings if f.rule_id != rule_id]
                if not findings:
                    failures += 1
                    print(f"FAIL {rel}: expected [{rule_id}] to fire, "
                          "got nothing")
                elif bad:
                    failures += 1
                    print(f"FAIL {rel}: findings of other rules: {bad}")
                else:
                    print(f"PASS {rel} ([{rule_id}] fired, "
                          f"{len(findings)} finding(s))")

    if cases == 0:
        print(f"FAIL: no fixtures found under {fixture_root}")
        return 1
    print(f"{cases - failures}/{cases} fixtures passed")
    return 1 if failures else 0


# --------------------------------------------------------------------------


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*",
                        help="files to lint (default: repo)")
    parser.add_argument("--root", type=Path,
                        default=Path(__file__).resolve().parents[2],
                        help="repo root (default: two levels up from this "
                             "script)")
    parser.add_argument("--fixtures", type=Path,
                        help="run fixture expectations under this directory")
    parser.add_argument("--list-rules", action="store_true")
    parser.add_argument("--json", action="store_true",
                        help="emit findings as JSON on stdout (for CI "
                             "annotation)")
    parser.add_argument("--dump-graph", action="store_true",
                        help="regenerate tools/lint/include_graph.json "
                             "from the current src/ include graph")
    parser.add_argument("--layering-only", action="store_true",
                        help="run only the include-graph layering checks")
    args = parser.parse_args(argv)

    if args.list_rules:
        for r in RULES:
            kind = "pattern" if r.patterns else "structural"
            print(f"{r.rule_id:20} [{kind:10}] {r.message}")
        return 0

    if args.fixtures:
        return run_fixtures(args.fixtures.resolve())

    root = args.root.resolve()

    if args.dump_graph:
        src_root = root / "src"
        includes, known = layering.scan_includes(src_root)
        summary = layering.build_summary(includes, known)
        dump = root / layering.GRAPH_DUMP
        dump.write_text(layering.render_summary(summary), encoding="utf-8")
        print(f"wrote {dump.relative_to(root).as_posix()} "
              f"({summary['file_count']} files, "
              f"{summary['file_edge_count']} edges)")
        return 0

    if args.layering_only:
        findings, _ = layering.check_tree(root)
    else:
        findings = lint_tree(root, args.paths)

    findings.sort(key=lambda f: (f.rel, f.line, f.rule_id))
    if args.json:
        print(json.dumps([f.as_json() for f in findings], indent=2))
    else:
        for f in findings:
            print(f)
    if findings:
        print(f"maxmin-lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    if not args.json:
        print("maxmin-lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
