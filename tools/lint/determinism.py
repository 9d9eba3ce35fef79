"""determinism — unordered-container iteration feeding ordered output.

The bug class: ``std::unordered_map`` iteration order is an artifact of
hashing and insertion history, not of the data. A loop over one that
writes a trace record, a CSV row, a stream, or a floating-point
accumulator bakes that artifact into results that must be a pure
function of the seed — it silently pins results to one standard library
and one insertion history, so a refactor that reorders insertions turns
it into a replay divergence. An earlier zero-findings sweep fixed this
class by hand at every report site; this rule keeps it fixed.

Token-level analysis, per file (plus its paired header, so loops in a
.cpp over members declared in the .hpp resolve):

  1. collect identifiers declared with an unordered container type, and
     accessor functions returning references to one;
  2. find range-for / ``.begin()`` iterator loops whose sequence is such
     an identifier (directly, as a member chain tail, or via accessor);
  3. flag the loop if its body contains an order-sensitive write:
       * stream insertion (``x << ...`` where x looks stream-ish, or
         ``<< "literal"`` chains),
       * an output call (printf family, ``write*``/``print*``/``emit*``/
         ``trace*``, MAXMIN_TRACE*),
       * a compound assignment onto a float/double-typed accumulator
         (float addition does not commute — summation order is visible
         in the last ulp and grows under parallel reduction),
       * ``push_back``/``emplace_back`` into a sequence that is *not*
         passed to ``sort`` afterwards (collect-then-sort is the
         sanctioned "sorted snapshot" idiom and stays silent).

Order-independent writes stay silent by construction: inserting into a
``std::map`` keyed by the loop key, bumping integer counters, or
erasing from the container itself do not match any predicate — so the
rule's findings are actionable, not pragma-fodder.
"""

from __future__ import annotations

import re
from typing import List, NamedTuple, Optional, Set, Tuple

from cpptok import Token
from rules import Finding, message_of

UNORDERED_TYPES = {
    "unordered_map", "unordered_set", "unordered_multimap",
    "unordered_multiset",
}
FLOAT_TYPES = {"double", "float"}

_STREAMISH = re.compile(
    r"(os|out|stream|sink|cout|cerr|clog|csv|file|log)$", re.IGNORECASE)
_OUTPUT_CALL = re.compile(r"^(write|print|emit|trace|fprintf|printf|fputs|"
                          r"fwrite|MAXMIN_TRACE)\w*$")
_COMPOUND_ASSIGN = {"+=", "-=", "*=", "/="}
_PUSH = {"push_back", "emplace_back"}

# How far past a loop body to look for the sort() that blesses a
# collect-then-sort snapshot. Generous: report functions sort immediately.
_SORT_WINDOW = 600


class Symbols(NamedTuple):
    unordered_vars: Set[str]
    unordered_accessors: Set[str]
    float_vars: Set[str]


def _skip_angles(tokens: List[Token], i: int) -> int:
    """tokens[i] is '<'; return index just past the matching close."""
    depth = 0
    prev: Optional[str] = None
    n = len(tokens)
    while i < n:
        t = tokens[i]
        if t.kind == "punct":
            if t.text == "<" and (prev in ("id", ">") or depth == 0):
                depth += 1
            elif t.text == ">":
                depth -= 1
                if depth <= 0:
                    return i + 1
                prev = ">"
                i += 1
                continue
            elif t.text == ">>":
                depth -= 2
                if depth <= 0:
                    return i + 1
                prev = ">"
                i += 1
                continue
            prev = t.text
        else:
            prev = "id" if t.kind == "id" else t.kind
        i += 1
    return i


def collect_symbols(token_streams: List[List[Token]]) -> Symbols:
    unordered_vars: Set[str] = set()
    accessors: Set[str] = set()
    float_vars: Set[str] = set()
    for tokens in token_streams:
        n = len(tokens)
        for i, tok in enumerate(tokens):
            if tok.kind != "id":
                continue
            if tok.text in UNORDERED_TYPES:
                j = i + 1
                if j < n and tokens[j].text == "<":
                    j = _skip_angles(tokens, j)
                while j < n and tokens[j].kind == "punct" and \
                        tokens[j].text in ("&", "*"):
                    j += 1
                if j < n and tokens[j].kind == "id":
                    name, term = tokens[j].text, \
                        tokens[j + 1].text if j + 1 < n else ";"
                    if term == "(":
                        accessors.add(name)
                    elif term in (";", "=", "{", ",", ")"):
                        unordered_vars.add(name)
            elif tok.text in FLOAT_TYPES:
                j = i + 1
                while j < n and tokens[j].kind == "punct" and \
                        tokens[j].text in ("&", "*"):
                    j += 1
                if j < n and tokens[j].kind == "id" and j + 1 < n and \
                        tokens[j + 1].text in (";", "=", "{", ",", ")"):
                    float_vars.add(tokens[j].text)
    return Symbols(unordered_vars, accessors, float_vars)


def _match_paren(tokens: List[Token], i: int, open_: str, close: str) -> int:
    """tokens[i] is `open_`; return index of matching `close` (or len)."""
    depth = 0
    n = len(tokens)
    while i < n:
        t = tokens[i].text
        if tokens[i].kind == "punct":
            if t == open_:
                depth += 1
            elif t == close:
                depth -= 1
                if depth == 0:
                    return i
        i += 1
    return n


def _sequence_target(header: List[Token], syms: Symbols) -> Optional[str]:
    """The container a range-for iterates, if it is known-unordered.

    `header` is the token slice between ':' and the closing ')'."""
    ids = [t for t in header if t.kind == "id"]
    if not ids:
        return None
    last = ids[-1].text
    # trailing call: obj.accessor()
    if header and header[-1].text == ")" and last in syms.unordered_accessors:
        return last + "()"
    if last in syms.unordered_vars:
        return last
    return None


def _iterator_target(header: List[Token], syms: Symbols) -> Optional[str]:
    """`X.begin()` / `X->begin()` inside a classic for header."""
    for k in range(len(header) - 2):
        if header[k].kind == "id" and \
                header[k + 1].text in (".", "->") and \
                header[k + 2].kind == "id" and \
                header[k + 2].text in ("begin", "cbegin"):
            if header[k].text in syms.unordered_vars:
                return header[k].text
    return None


def _body_span(tokens: List[Token], after: int) -> Tuple[int, int]:
    """Token span [start, end) of the loop body starting at `after`."""
    n = len(tokens)
    if after < n and tokens[after].text == "{":
        return after, _match_paren(tokens, after, "{", "}") + 1
    # single statement: to the ';' at zero brace/paren depth
    i = after
    depth = 0
    while i < n:
        t = tokens[i]
        if t.kind == "punct":
            if t.text in ("{", "("):
                depth += 1
            elif t.text in ("}", ")"):
                depth -= 1
            elif t.text == ";" and depth == 0:
                return after, i + 1
        i += 1
    return after, n


def _order_sensitive_write(tokens: List[Token], start: int, end: int,
                           syms: Symbols) -> Optional[Tuple[str, int]]:
    """(reason, line) of the first order-sensitive write in the body."""
    for k in range(start, end):
        t = tokens[k]
        if t.kind == "punct" and t.text == "<<":
            prev = tokens[k - 1] if k > start else None
            nxt = tokens[k + 1] if k + 1 < end else None
            if prev is not None and prev.kind == "id" and \
                    _STREAMISH.search(prev.text):
                return f"stream write '{prev.text} <<'", t.line
            if nxt is not None and nxt.kind in ("str", "chr"):
                return "stream write of a literal", t.line
        elif t.kind == "punct" and t.text in _COMPOUND_ASSIGN:
            prev = tokens[k - 1] if k > start else None
            if prev is not None and prev.kind == "id" and \
                    prev.text in syms.float_vars:
                return (f"float accumulation '{prev.text} {t.text}'",
                        t.line)
        elif t.kind == "id" and _OUTPUT_CALL.match(t.text) and \
                k + 1 < end and tokens[k + 1].text == "(":
            return f"output call '{t.text}(...)'", t.line
        elif t.kind == "id" and t.text in _PUSH and k >= 2 and \
                tokens[k - 1].text in (".", "->") and \
                tokens[k - 2].kind == "id":
            target = tokens[k - 2].text
            if not _sorted_later(tokens, end, target):
                return (f"'{target}.{t.text}(...)' without a sort of "
                        f"'{target}' afterwards", t.line)
    return None


def _sorted_later(tokens: List[Token], from_idx: int, var: str) -> bool:
    """True if `var` is passed to a sort(...) call shortly after the loop
    (the collect-then-sort snapshot idiom)."""
    n = min(len(tokens), from_idx + _SORT_WINDOW)
    k = from_idx
    while k < n:
        if tokens[k].kind == "id" and tokens[k].text in \
                ("sort", "stable_sort") and k + 1 < n and \
                tokens[k + 1].text == "(":
            close = _match_paren(tokens, k + 1, "(", ")")
            if any(t.kind == "id" and t.text == var
                   for t in tokens[k + 1:min(close + 1, len(tokens))]):
                return True
            k = close
        k += 1
    return False


def check_file(rel: str, tokens: List[Token], paired: List[List[Token]],
               findings: List[Finding], allowed) -> None:
    syms = collect_symbols([tokens] + paired)
    if not syms.unordered_vars and not syms.unordered_accessors:
        return
    base = message_of("unordered-iter")
    n = len(tokens)
    i = 0
    while i < n:
        t = tokens[i]
        if not (t.kind == "id" and t.text == "for" and i + 1 < n and
                tokens[i + 1].text == "("):
            i += 1
            continue
        close = _match_paren(tokens, i + 1, "(", ")")
        header = tokens[i + 2:close]
        colon = next((k for k, h in enumerate(header)
                      if h.kind == "punct" and h.text == ":"), None)
        target = None
        if colon is not None:
            target = _sequence_target(header[colon + 1:], syms)
        else:
            target = _iterator_target(header, syms)
        if target is None:
            i = close + 1
            continue
        start, end = _body_span(tokens, close + 1)
        hit = _order_sensitive_write(tokens, start, end, syms)
        if hit is not None and not allowed(t.line, "unordered-iter"):
            reason, line = hit
            findings.append(Finding(
                rel, t.line, "unordered-iter",
                f"{base} — loop over unordered '{target}' (line {t.line}) "
                f"contains {reason} (line {line})"))
        i = close + 1
    return
