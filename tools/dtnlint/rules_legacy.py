"""The six legacy determinism-lint rules, re-hosted on the shared lexer
and structural parser.

Behaviour is a superset-accurate re-implementation of the original
line-regex rules with the regex failure modes removed: nothing here can
fire inside a comment, a string/char literal, or a preprocessor line (the
lexer never surfaces them), and the scope-based unordered-fold rule uses
real brace structure instead of brace-counting heuristics. `dtnlint
--self-test` checks exactly this set (Rule.legacy == True) against
tests/lint/fixture_*.cpp.
"""

from __future__ import annotations

from cpp import Scope, TranslationUnit
from engine import Rule, RuleContext, register

# ---------------------------------------------------------------------------
# token-pattern helpers


def _calls(tu: TranslationUnit, name: str):
    """Yields indices i where tokens[i] is identifier `name` directly
    followed by '('."""
    toks = tu.tokens
    for i, t in enumerate(toks):
        if t.kind == "ident" and t.text == name:
            if i + 1 < len(toks) and toks[i + 1].text == "(":
                yield i


def _prev_text(tu: TranslationUnit, i: int) -> str:
    return tu.tokens[i - 1].text if i > 0 else ""


def _is_std_qualified(tu: TranslationUnit, i: int) -> bool:
    """True when tokens[i] is preceded by `std::` (possibly `::std::`)."""
    return i >= 2 and tu.tokens[i - 1].text == "::" and tu.tokens[i - 2].text == "std"


def _is_member_or_qualified(tu: TranslationUnit, i: int) -> bool:
    """True when tokens[i] is reached through `.`, `->`, or a non-std
    `x::` qualifier — i.e. not the global libc symbol."""
    prev = _prev_text(tu, i)
    if prev in (".", "->"):
        return True
    if prev == "::":
        return not (i >= 2 and tu.tokens[i - 2].text == "std")
    return False


# ---------------------------------------------------------------------------


@register
class LibcRandRule(Rule):
    rule_id = "libc-rand"
    legacy = True
    message = (
        "libc rand()/srand() uses hidden global state; use dtn::Rng with an "
        "explicit seed"
    )

    def check(self, tu, ctx):
        for name in ("rand", "srand"):
            for i in _calls(tu, name):
                if _is_member_or_qualified(tu, i):
                    continue  # obj.rand(), my::rand() — not the libc RNG
                yield tu.tokens[i].line, None


@register
class RandomDeviceRule(Rule):
    rule_id = "random-device"
    legacy = True
    message = (
        "std::random_device draws hardware entropy, different on every run; "
        "derive seeds with dtn::derive_seed instead"
    )

    def check(self, tu, ctx):
        for i, t in enumerate(tu.tokens):
            if t.text == "random_device" and _is_std_qualified(tu, i):
                yield t.line, None


@register
class WallClockSeedRule(Rule):
    rule_id = "wall-clock-seed"
    legacy = True
    message = (
        "time(nullptr) makes the run depend on the wall clock; thread the "
        "seed through the config instead"
    )

    def check(self, tu, ctx):
        toks = tu.tokens
        for i in _calls(tu, "time"):
            if _is_member_or_qualified(tu, i) and not _is_std_qualified(tu, i):
                continue
            if i + 3 < len(toks) and toks[i + 2].text in ("nullptr", "NULL", "0") \
                    and toks[i + 3].text == ")":
                yield toks[i].line, None


@register
class ChronoNowRule(Rule):
    rule_id = "chrono-now"
    legacy = True
    message = (
        "clock reads are nondeterministic; keep them out of simulation and "
        "statistics code (allowlist genuine timing/progress call sites)"
    )

    def check(self, tu, ctx):
        toks = tu.tokens
        for i, t in enumerate(toks):
            if t.kind != "ident" or not t.text.endswith("_clock"):
                continue
            if (
                i + 3 < len(toks)
                and toks[i + 1].text == "::"
                and toks[i + 2].text == "now"
                and toks[i + 3].text == "("
            ):
                yield toks[i + 2].line, None


@register
class FsMtimeRule(Rule):
    rule_id = "fs-mtime"
    legacy = True
    message = (
        "file mtimes differ across checkouts and copies; results must never "
        "depend on them (allowlist observation-only cache-freshness probes "
        "whose worst case is an extra re-parse of identical bytes)"
    )

    def check(self, tu, ctx):
        for i in _calls(tu, "last_write_time"):
            yield tu.tokens[i].line, None


# ---------------------------------------------------------------------------
# unordered-fold: range-for over an unordered container inside a function
# that writes CSV or folds statistics.

_FOLD_IDENTS = {
    "add_cell", "add_number", "add_integer", "add_row", "RunningStats",
    "percentile", "gini", "sample_copy_count", "count_bytes",
}
_UNORDERED_TYPE_WORDS = {
    "unordered_map", "unordered_set", "unordered_multimap",
    "unordered_multiset",
}


def _function_has_fold_marker(fn: Scope) -> bool:
    for stmt in fn.stmts():
        for tok in stmt.tokens:
            if tok.kind != "ident":
                continue
            if tok.text in _FOLD_IDENTS or "csv" in tok.text.lower():
                return True
    # loop headers and nested scope headers too (e.g. `for (... : csv_rows)`)
    for scope in fn.scopes():
        for tok in scope.header:
            if tok.kind == "ident" and (
                tok.text in _FOLD_IDENTS or "csv" in tok.text.lower()
            ):
                return True
    return False


def unordered_range_fors(tu: TranslationUnit):
    """Yields loop scopes that range-for over an unordered container:
    either the range expression mentions an unordered type inline, or any
    identifier in it is declared (anywhere in this file) with a type that
    contains one — covering members, locals, and elements of containers
    of unordered containers."""
    unordered = tu.unordered_names()
    for scope in tu.root.scopes():
        if scope.kind != "loop":
            continue
        parts = scope.range_for_parts()
        if parts is None:
            continue
        _, expr = parts
        hit = False
        for tok in expr:
            if tok.kind == "ident" and (
                tok.text in unordered or tok.text in _UNORDERED_TYPE_WORDS
            ):
                hit = True
                break
        if hit:
            yield scope


@register
class UnorderedFoldRule(Rule):
    rule_id = "unordered-fold"
    legacy = True
    message = (
        "iteration order of unordered containers is implementation-defined; "
        "sort the keys (or iterate a deterministic index) before folding "
        "stats or writing CSV"
    )

    def check(self, tu, ctx):
        for scope in unordered_range_fors(tu):
            fn = scope.outermost_function()
            if fn is None or not _function_has_fold_marker(fn):
                continue
            yield scope.line, None
