"""Rule catalog and the pattern-family rules of maxmin_lint.

Every rule descends from a real bug or a structural invariant of this
codebase; the catalog with bug history lives in DESIGN.md §10. This module
holds the shared rule metadata (ids, messages, path scopes) plus the
pattern rules that match token-stripped lines. The three structural
families live in sibling modules:

    layering.py     — include-graph DAG conformance and cycle detection
    determinism.py  — unordered-container iteration feeding ordered output
    shared_state.py — mutable-static inventory against shared_state.toml

All rules read source through the shared scanner (cpptok.py): comments,
string/char literals and raw-string contents are blanked before any
pattern looks at a line, so a rule can never fire on (or be hidden by)
literal text, spliced comments, or raw-string bodies.
"""

from __future__ import annotations

import re

# --------------------------------------------------------------------------
# Path scopes
# --------------------------------------------------------------------------

SIM_SCOPE = ("src/sim/", "src/net/", "src/gmp/", "src/mac/", "src/phys/")
HOT_SCOPE = ("src/sim/", "src/net/", "src/mac/", "src/phys/")
HEADER_SUFFIXES = (".hpp", ".h")

# Files where a rule never applies (the one place the primitive belongs).
BAKED_ALLOW = {
    "raw-rng": ("src/util/rng.hpp",),
    # The definition itself, and the one sanctioned call site: per-node
    # stack bring-up, whose fork order is frozen by the seed contract.
    "raw-fork": ("src/util/rng.hpp", "src/net/network.cpp"),
}


def is_header(rel: str) -> bool:
    return rel.endswith(HEADER_SUFFIXES)


class Rule:
    def __init__(self, rule_id, message, patterns, in_scope):
        self.rule_id = rule_id
        self.message = message
        self.patterns = [re.compile(p) for p in patterns]
        self.in_scope = in_scope


class Finding:
    def __init__(self, rel, line, rule_id, message):
        self.rel = rel
        self.line = line
        self.rule_id = rule_id
        self.message = message

    def __str__(self):
        return f"{self.rel}:{self.line}: [{self.rule_id}] {self.message}"

    def as_json(self):
        return {
            "file": self.rel,
            "line": self.line,
            "rule": self.rule_id,
            "message": self.message,
        }


# --------------------------------------------------------------------------
# The thirteen rules. Pattern rules carry regexes (run against stripped
# lines); structural rules carry an empty pattern list and are implemented
# in check functions / sibling modules.
# --------------------------------------------------------------------------

RULES = [
    Rule(
        "raw-rng",
        "raw RNG primitive; draw from a named maxmin::Rng stream "
        "(src/util/rng.hpp) so runs stay reproducible from the seed",
        [
            r"\bstd::mt19937(?:_64)?\b",
            r"\bstd::random_device\b",
            r"\bstd::default_random_engine\b",
            r"\bstd::minstd_rand0?\b",
            r"(?<![\w:.>])s?rand\s*\(",
        ],
        lambda rel: True,
    ),
    Rule(
        "wall-clock",
        "wall-clock read inside a simulation subsystem; use "
        "Simulator::now() so a run is a pure function of its seed",
        [
            r"\bgettimeofday\s*\(",
            r"\bclock_gettime\s*\(",
            r"\bsystem_clock\b",
            r"\bsteady_clock\b",
            r"\bhigh_resolution_clock\b",
            r"(?:\bstd::|(?<![\w.:])::)time\s*\(",
            r"(?<![\w:.>])time\s*\(\s*(?:NULL|nullptr|0)\s*\)",
            r"\blocaltime(?:_r)?\s*\(",
            r"\bgmtime(?:_r)?\s*\(",
        ],
        lambda rel: rel.startswith(SIM_SCOPE),
    ),
    Rule(
        "hot-map",
        "ordered node-based container in a hot-path header; use "
        "unordered_map/unordered_set and sort at report time "
        "(net::NodeStack::closeMeasurementWindow is the model)",
        [
            r"\bstd::(?:multi)?map\s*<",
            r"\bstd::(?:multi)?set\s*<",
        ],
        lambda rel: rel.startswith(HOT_SCOPE) and is_header(rel),
    ),
    Rule(
        "event-fn",
        "std::function in the DES kernel; a timer's callback is a "
        "sim::Callback {function, context} pair bound once at "
        "construction (sim::bind), never a type-erased callable",
        [
            r"\bstd::function\s*<",
        ],
        lambda rel: rel.startswith("src/sim/"),
    ),
    Rule(
        "chrono-outside-obs",
        "raw std::chrono outside src/obs/; wall time is read through "
        "obs::Profiler::wallNanos() only (src/obs/profile.cpp)",
        [
            r"\bstd::chrono\b",
            r"^\s*#\s*include\s*<chrono>",
        ],
        # SIM_SCOPE is excluded only because the wall-clock rule already
        # owns those paths (one finding per sin, and fixtures require a
        # trigger to fire exactly one rule).
        lambda rel: (
            rel.startswith(("src/", "tools/", "bench/", "examples/"))
            and not rel.startswith("src/obs/")
            and not rel.startswith(SIM_SCOPE)
        ),
    ),
    Rule(
        "raw-fork",
        "Rng::fork() outside the frozen bring-up order; new randomness "
        "draws from a named stream (Rng{seed}.stream(\"...\")) so "
        "inserting a consumer cannot reseed every later fork() child",
        [
            r"\.\s*fork\s*\(\s*\)",
        ],
        lambda rel: rel.startswith("src/"),
    ),
    Rule(
        "nul-byte-in-source",
        "NUL/control byte in source; grep classifies the file as binary "
        "and text tooling silently skips it — use an escaped spelling "
        "(\\u0000) instead",
        [],  # byte-level: the scanner classifies, the driver refuses
        lambda rel: True,
    ),
    Rule(
        "per-frame-distance",
        "geometry query in the frame pipeline; per-frame membership is a "
        "walk of the CSR neighbor rows built at construction "
        "(DESIGN.md §12) — allow() construction-time sites",
        [
            r"\bdistanceBetween\s*\(",
            r"\binCsRange\s*\(",
        ],
        lambda rel: rel.startswith(("src/phys/", "src/mac/")),
    ),
    Rule(
        "layering",
        "include edge violates the documented subsystem DAG "
        "(util < obs < sim < topology < phys < mac < net < gmp < "
        "{analysis, exp, baselines, fluid, scenarios}); see layering.py",
        [],  # structural: layering.check_tree()
        lambda rel: rel.startswith("src/"),
    ),
    Rule(
        "test-only-header",
        "src/ header that only its own .cpp and tests/ include, so no "
        "run uses it; delete the module with its tests, or keep it with "
        "allow-file(test-only-header) and the reason",
        [],  # structural: layering.check_tree_headers()
        lambda rel: rel.startswith("src/") and is_header(rel),
    ),
    Rule(
        "unordered-iter",
        "iteration over an unordered container whose body writes ordered "
        "output (stream/trace/CSV) or a floating-point accumulator; "
        "iterate a sorted snapshot or justify with allow(unordered-iter)",
        [],  # structural: determinism.check_file()
        lambda rel: rel.startswith(("src/", "tools/", "bench/", "examples/")),
    ),
    Rule(
        "shared-state",
        "mutable static/singleton not in the audited inventory "
        "(tools/lint/shared_state.toml); shared mutable state must be "
        "deliberately manifested because sweep workers share it",
        [],  # structural: shared_state.check_file() / check_manifest()
        lambda rel: rel.startswith("src/"),
    ),
    Rule(
        "allow-out-of-scope",
        "allow()/allow-file() pragma naming a rule whose scope excludes "
        "this file; it suppresses nothing, so delete it",
        [],  # structural: check_pragma_scope()
        lambda rel: True,
    ),
]

RULE_IDS = {r.rule_id for r in RULES}
RULE_BY_ID = {r.rule_id: r for r in RULES}


def message_of(rule_id: str) -> str:
    return RULE_BY_ID[rule_id].message


# --------------------------------------------------------------------------
# Suppressions
# --------------------------------------------------------------------------

PRAGMA = re.compile(r"maxmin-lint:\s*(allow|allow-file)\(([a-z0-9-]+)\)")


def collect_pragmas(raw_lines, warn):
    """-> (file_allows: set[rule], line_allows: dict[lineno, set[rule]]).

    Pragmas are read from the *raw* text — they live in comments, which
    the scanner blanks.
    """
    file_allows, line_allows = set(), {}
    for lineno, line in enumerate(raw_lines, 1):
        for kind, rule_id in PRAGMA.findall(line):
            if rule_id not in RULE_IDS:
                warn(f"unknown rule '{rule_id}' in pragma at line {lineno}")
                continue
            if kind == "allow-file":
                file_allows.add(rule_id)
            else:
                # An allow() covers its own line and the next one, so the
                # pragma can sit in a comment above a long declaration.
                line_allows.setdefault(lineno, set()).add(rule_id)
                line_allows.setdefault(lineno + 1, set()).add(rule_id)
    return file_allows, line_allows


def check_pragma_scope(rel, raw_lines, findings, allowed):
    """Flag pragmas that name a rule which never applies to `rel`.

    Such a pragma suppresses nothing, yet reads as if the line below it
    broke the rule.
    """
    rule_id = "allow-out-of-scope"
    for lineno, line in enumerate(raw_lines, 1):
        for _, named in PRAGMA.findall(line):
            rule = RULE_BY_ID.get(named)
            if rule is None or rule.in_scope(rel):
                continue
            if not allowed(lineno, rule_id):
                findings.append(Finding(
                    rel, lineno, rule_id,
                    f"allow({named}): {named} does not apply to this file; "
                    "the pragma suppresses nothing, so delete it"))


# --------------------------------------------------------------------------
# Pattern matching
# --------------------------------------------------------------------------

def check_patterns(rel, stripped_lines, findings, allowed):
    """Run every pattern rule whose scope covers `rel`."""
    for rule in RULES:
        if not rule.patterns or not rule.in_scope(rel):
            continue
        for lineno, line in enumerate(stripped_lines, 1):
            for pat in rule.patterns:
                if pat.search(line) and not allowed(lineno, rule.rule_id):
                    findings.append(
                        Finding(rel, lineno, rule.rule_id, rule.message))
                    break
