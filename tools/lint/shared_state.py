"""shared_state — mutable-static inventory against an audited manifest.

``exp::SweepRunner`` runs whole simulations on worker threads, one run
per thread, inside one process; every namespace-scope or function-local
mutable ``static`` (and every singleton behind one) is shared by those
workers, so it is a candidate data race, and every one that feeds results
is a determinism hazard. This rule makes the set of
such objects *finite and deliberate*: the token scanner enumerates every
mutable static in ``src/``, and each must appear in the checked-in
manifest ``tools/lint/shared_state.toml`` with an owner note and a
concurrency plan. A new static fails ``repo_lint`` until someone writes
it down; a deleted static fails until the manifest entry is removed, so
the manifest can never rot into fiction.

What counts as mutable static state (token-level classification):

    static LogLevel level = LogLevel::kOff;      -> variable "level"
    static std::atomic<bool> flag{false};        -> variable "flag"
    static Registry instance;                    -> variable "instance"
    static std::vector<int> intersect(...)       -> function, skipped
    static constexpr int kBits = 7;              -> immutable, skipped
    static const char* const kName = "x";        -> immutable, skipped
    static_assert(...) / static_cast<...>        -> distinct tokens, skipped

``static const T*`` (mutable pointer to const) is treated as immutable by
this classifier; the repo spells genuinely-mutable pointers without const
and the conservative direction here is noise-free. ``thread_local`` is
classified the same as ``static`` — a per-thread copy outlives the run
that wrote it, so the next run on that thread sees it, which breaks the
"outcome independent of worker count" bar.
"""

from __future__ import annotations

import tomllib
from pathlib import Path
from typing import Dict, List, NamedTuple, Set, Tuple

from cpptok import Token
from rules import Finding, message_of

MANIFEST_REL = "tools/lint/shared_state.toml"


class StaticDecl(NamedTuple):
    rel: str
    name: str
    line: int


# --------------------------------------------------------------------------
# Detection
# --------------------------------------------------------------------------

_IMMUTABLE_QUALIFIERS = {"constexpr", "constinit", "consteval", "const"}
_STORAGE_KEYWORDS = {"static", "thread_local"}


def find_statics(rel: str, tokens: List[Token]) -> List[StaticDecl]:
    """Enumerate mutable static/thread_local *variables* in a token stream."""
    decls: List[StaticDecl] = []
    i, n = 0, len(tokens)
    while i < n:
        tok = tokens[i]
        if tok.kind != "id" or tok.text not in _STORAGE_KEYWORDS:
            i += 1
            continue
        # `static thread_local` / `thread_local static`: swallow the pair.
        j = i + 1
        while j < n and tokens[j].kind == "id" and \
                tokens[j].text in _STORAGE_KEYWORDS:
            j += 1
        # Scan the declaration: classify at the first ; = { ( at zero
        # bracket depth. '(' => function declaration/definition, skip.
        # Track <> depth so template arguments don't terminate the scan;
        # '<' only opens a template after an identifier or '>'.
        angle = 0
        immutable = False
        last_id = None
        prev_kind = None
        k = j
        while k < n:
            t = tokens[k]
            if t.kind == "id":
                if t.text in _IMMUTABLE_QUALIFIERS and angle == 0:
                    immutable = True
                last_id = t if angle == 0 else last_id
                prev_kind = "id"
                k += 1
                continue
            if t.kind == "punct":
                if t.text == "<" and prev_kind in ("id", ">"):
                    angle += 1
                elif t.text == ">" and angle > 0:
                    angle -= 1
                    prev_kind = ">"
                    k += 1
                    continue
                elif t.text == ">>" and angle > 0:
                    # map<int, vector<int>> lexes the double close as one
                    # shift token.
                    angle = max(0, angle - 2)
                    prev_kind = ">"
                    k += 1
                    continue
                elif t.text == "<<" and angle == 0:
                    pass  # stream op can't appear in a declarator prefix
                elif angle == 0 and t.text in (";", "=", "{", "("):
                    break
            prev_kind = t.kind if t.kind != "punct" else t.text
            k += 1
        if k < n and tokens[k].text != "(" and not immutable \
                and last_id is not None:
            decls.append(StaticDecl(rel, last_id.text, tokens[i].line))
        i = k if k > i else i + 1
    return decls


# --------------------------------------------------------------------------
# Manifest
# --------------------------------------------------------------------------

class Manifest(NamedTuple):
    entries: Set[Tuple[str, str]]  # (file, name)
    path: Path


def load_manifest(root: Path) -> Manifest:
    path = root / MANIFEST_REL
    entries: Set[Tuple[str, str]] = set()
    if path.exists():
        data = tomllib.loads(path.read_text(encoding="utf-8"))
        for entry in data.get("static", []):
            entries.add((entry["file"], entry["name"]))
    return Manifest(entries, path)


def check_file(rel: str, tokens: List[Token], manifest: Manifest,
               findings: List[Finding], allowed) -> List[StaticDecl]:
    """Per-file half: every detected static must be manifested."""
    found = find_statics(rel, tokens)
    base = message_of("shared-state")
    for decl in found:
        if (decl.rel, decl.name) in manifest.entries:
            continue
        if allowed(decl.line, "shared-state"):
            continue
        findings.append(Finding(
            decl.rel, decl.line, "shared-state",
            f"{base} — static '{decl.name}' is not in {MANIFEST_REL}; "
            "add an entry with an owner note and concurrency plan (or "
            "convert it to non-shared state)"))
    return found


def check_manifest(manifest: Manifest, seen: List[StaticDecl],
                   findings: List[Finding]) -> None:
    """Tree-wide half: every manifest entry must still exist in code."""
    live = {(d.rel, d.name) for d in seen}
    base = message_of("shared-state")
    for file, name in sorted(manifest.entries - live):
        findings.append(Finding(
            MANIFEST_REL, 1, "shared-state",
            f"{base} — stale manifest entry: no mutable static '{name}' "
            f"found in {file}; remove the entry so the inventory stays "
            "exact"))
