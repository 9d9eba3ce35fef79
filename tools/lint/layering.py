"""layering — include-graph DAG conformance for src/.

The subsystems of src/ form a documented layering (DESIGN.md §4/§10):

    util < obs < sim < topology < phys < mac < net < gmp < fluid
         < {analysis, exp, baselines, hybrid, scenarios}

A file may include its own module and any strictly lower-ranked module;
the five top-rank modules may also include each other as long as the
*file-level* include graph stays acyclic (checked globally — a cycle
anywhere, including inside one module, is a finding). Violations:

    * upward include — a lower-ranked module reaching into a higher one
      (the dependency inversion that makes subsystems untestable alone)
    * unknown module — a new src/ directory not added to the rank table
      (forces the layering decision to be made, not defaulted)
    * unresolved include — a quoted include that matches no src/ file
      (would silently drop an edge from the graph)
    * include cycle — any cycle in the file-level graph

The same include scan finds test-only headers: a src/ header that no
file includes except its own .cpp and tests/ files (rule
test-only-header). Includes count from src/, tools/, bench/, examples/
and perfbench/. Such a module is code that no run uses; delete it with
its tests, or keep it with an allow-file() pragma that says why.

The checker also renders a machine-readable summary (module ranks, file
counts, collapsed module-edge counts) that is committed as
``tools/lint/include_graph.json``; the repo sweep fails when the
committed dump is stale so the artifact in the tree always matches the
code (regenerate with ``maxmin_lint.py --dump-graph``).

All include directives are read through the shared scanner (cpptok), so
commented-out includes and includes inside raw strings never add edges.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Set, Tuple

import cpptok
from rules import Finding, collect_pragmas, message_of

# Rank table. Equal ranks (the top set) may include each other; everyone
# may include strictly lower ranks and itself.
LAYERS: Dict[str, int] = {
    "util": 0,
    "obs": 1,
    "sim": 2,
    "topology": 3,
    "phys": 4,
    "mac": 5,
    "net": 6,
    "gmp": 7,
    "fluid": 8,
    "analysis": 9,
    "exp": 9,
    "baselines": 9,
    "hybrid": 9,
    "scenarios": 9,
}
TOP_RANK = max(LAYERS.values())

SOURCE_SUFFIXES = (".hpp", ".h", ".cpp", ".cc")

# rel (relative to src/) -> list of (line, include-target rel)
IncludeMap = Dict[str, List[Tuple[int, str]]]


def scan_includes(src_root: Path) -> Tuple[IncludeMap, Set[str]]:
    """Parse every quoted #include under src_root via the shared scanner."""
    includes: IncludeMap = {}
    known: Set[str] = set()
    for path in sorted(src_root.rglob("*")):
        if path.suffix not in SOURCE_SUFFIXES or not path.is_file():
            continue
        rel = path.relative_to(src_root).as_posix()
        known.add(rel)
        edges: List[Tuple[int, str]] = []
        text = path.read_text(encoding="utf-8", errors="replace")
        for tok in cpptok.scan(text).tokens:
            if tok.kind == "header" and tok.text.startswith('"'):
                edges.append((tok.line, tok.text.strip('"')))
        includes[rel] = edges
    return includes, known


def module_of(rel: str) -> str:
    return rel.split("/", 1)[0] if "/" in rel else ""


def check_graph(includes: IncludeMap, known: Set[str],
                prefix: str = "src/") -> List[Finding]:
    """Pure graph check, separated from the filesystem for unit testing."""
    findings: List[Finding] = []
    base = message_of("layering")

    def finding(rel, line, detail):
        findings.append(Finding(prefix + rel, line, "layering",
                                f"{base} — {detail}"))

    for rel in sorted(includes):
        mod = module_of(rel)
        if mod not in LAYERS:
            finding(rel, 1, f"module '{mod or '<src root>'}' has no rank in "
                    "the layer table (tools/lint/layering.py); place the "
                    "file or extend the documented DAG")
            continue
        for line, target in includes[rel]:
            if target not in known:
                finding(rel, line, f'unresolved include "{target}" — not a '
                        "src/ file, so its edge would silently vanish from "
                        "the layering graph")
                continue
            tmod = module_of(target)
            if tmod == mod or tmod not in LAYERS:
                continue  # intra-module always fine; unknown reported above
            r_from, r_to = LAYERS[mod], LAYERS[tmod]
            if r_to < r_from:
                continue
            if r_to == r_from == TOP_RANK:
                continue  # top-set peers; acyclicity enforced below
            finding(rel, line, f"upward include: {mod} (rank {r_from}) must "
                    f'not include "{target}" ({tmod}, rank {r_to})')

    findings.extend(_find_cycles(includes, known, prefix, base))
    return findings


def _find_cycles(includes: IncludeMap, known: Set[str], prefix: str,
                 base: str) -> List[Finding]:
    """Iterative DFS; reports each distinct file-level cycle once."""
    WHITE, GREY, BLACK = 0, 1, 2
    color = {rel: WHITE for rel in includes}
    findings: List[Finding] = []
    for root in sorted(includes):
        if color[root] != WHITE:
            continue
        # stack of (node, iterator over resolved include targets)
        path: List[str] = []
        stack = [(root, iter([t for _, t in includes.get(root, [])
                              if t in known]))]
        color[root] = GREY
        path.append(root)
        while stack:
            node, it = stack[-1]
            advanced = False
            for target in it:
                if color.get(target, BLACK) == GREY:
                    cycle = path[path.index(target):] + [target]
                    line = next((ln for ln, t in includes[node]
                                 if t == target), 1)
                    findings.append(Finding(
                        prefix + node, line, "layering",
                        f"{base} — include cycle: {' -> '.join(cycle)}"))
                elif color.get(target, BLACK) == WHITE:
                    color[target] = GREY
                    path.append(target)
                    stack.append((target,
                                  iter([t for _, t in includes.get(target, [])
                                        if t in known])))
                    advanced = True
                    break
            if not advanced:
                color[node] = BLACK
                path.pop()
                stack.pop()
    return findings


# Directories whose includes make a src/ header used by a program.
PROGRAM_DIRS = ("src", "tools", "bench", "examples", "perfbench")


def check_test_only_headers(headers: Dict[str, Set[str]],
                            program_includes: IncludeMap,
                            prefix: str = "src/") -> List[Finding]:
    """Pure check: `headers` maps each src/ header (relative to src/) to
    the rules its allow-file() pragmas name; `program_includes` maps each
    file under PROGRAM_DIRS (relative to the repo root) to its includes.
    A header's own .cpp does not count as a user."""
    users: Dict[str, Set[str]] = {}
    for rel, edges in program_includes.items():
        for _, target in edges:
            users.setdefault(target, set()).add(rel)
    findings = []
    for header in sorted(headers):
        if "test-only-header" in headers[header]:
            continue
        own = prefix + header.rsplit(".", 1)[0] + ".cpp"
        if users.get(header, set()) - {own}:
            continue
        findings.append(Finding(
            prefix + header, 1, "test-only-header",
            message_of("test-only-header")))
    return findings


def check_tree_headers(root: Path) -> List[Finding]:
    """check_test_only_headers over the tree at `root`."""
    program_includes: IncludeMap = {}
    for top in PROGRAM_DIRS:
        if (root / top).is_dir():
            includes, _ = scan_includes(root / top)
            for rel, edges in includes.items():
                program_includes[f"{top}/{rel}"] = edges
    headers: Dict[str, Set[str]] = {}
    src_root = root / "src"
    for path in sorted(src_root.rglob("*.hpp")):
        file_allows, _ = collect_pragmas(
            path.read_text(encoding="utf-8", errors="replace").splitlines(),
            lambda msg: None)
        headers[path.relative_to(src_root).as_posix()] = file_allows
    return check_test_only_headers(headers, program_includes)


def build_summary(includes: IncludeMap, known: Set[str]) -> dict:
    """Deterministic, machine-readable dump of the module-level graph."""
    mod_files: Dict[str, int] = {}
    mod_edges: Dict[str, Dict[str, int]] = {}
    for rel in includes:
        mod = module_of(rel)
        mod_files[mod] = mod_files.get(mod, 0) + 1
        for _, target in includes[rel]:
            if target not in known:
                continue
            tmod = module_of(target)
            mod_edges.setdefault(mod, {})
            mod_edges[mod][tmod] = mod_edges[mod].get(tmod, 0) + 1
    file_edge_count = sum(
        1 for rel in includes for _, t in includes[rel] if t in known)
    return {
        "schema": 1,
        "generated_by": "tools/lint/maxmin_lint.py --dump-graph",
        "layers": dict(sorted(LAYERS.items(), key=lambda kv: (kv[1], kv[0]))),
        "modules": {
            mod: {
                "rank": LAYERS.get(mod, -1),
                "files": mod_files[mod],
                "includes": dict(sorted(mod_edges.get(mod, {}).items())),
            }
            for mod in sorted(mod_files)
        },
        "file_count": len(includes),
        "file_edge_count": file_edge_count,
    }


def render_summary(summary: dict) -> str:
    return json.dumps(summary, indent=2, sort_keys=False) + "\n"


GRAPH_DUMP = "tools/lint/include_graph.json"


def check_tree(root: Path) -> Tuple[List[Finding], dict]:
    """Scan <root>/src, return (findings, summary). Adds a staleness
    finding when the committed graph dump no longer matches the code."""
    src_root = root / "src"
    if not src_root.is_dir():
        return [], {}
    includes, known = scan_includes(src_root)
    findings = check_graph(includes, known)
    findings.extend(check_tree_headers(root))
    summary = build_summary(includes, known)
    dump = root / GRAPH_DUMP
    if dump.exists():
        if dump.read_text(encoding="utf-8") != render_summary(summary):
            findings.append(Finding(
                GRAPH_DUMP, 1, "layering",
                "committed include-graph dump is stale; regenerate with "
                "`python3 tools/lint/maxmin_lint.py --dump-graph`"))
    return findings, summary
