"""The flow-aware dtnlint rules introduced with the analysis engine.

Each rule walks the statement/scope tree from cpp.py rather than matching
lines, so it understands branch-local facts (a handle released in the
then-branch is not dead in the else-branch), kill assignments (`h = next`
after `pool.release(h)` ends the handle's taint), and early returns.

Analysis model, shared across rules:
  * forward, single pass, no loop back-edges: facts do not flow from the
    bottom of a loop body to its top (a release at the end of an
    iteration followed by a use at the top of the next one is missed —
    accepted, because every such site in this tree reassigns the handle
    before the iteration ends, and the runtime SlabPool live-bit check
    still catches the dynamic case);
  * if/elif/else chains evaluate each branch against the pre-branch
    state and join by union (taints) / agreement (bracket state);
  * braceless conditional bodies are part of the conditional statement
    and are treated as executing unconditionally (conservative).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from cpp import Scope, Stmt, TranslationUnit, parse_decl
from engine import Rule, RuleContext, is_fixture, register
from rules_legacy import container_decls_in_loops, unordered_range_fors


# ---------------------------------------------------------------------------
# shared walking helpers

def branch_groups(items):
    """Yields ('branch', [if, elif..., else?]) for conditional chains and
    ('item', x) for everything else, preserving order."""
    i = 0
    n = len(items)
    while i < n:
        item = items[i]
        if isinstance(item, Scope) and item.kind == "if":
            group = [item]
            j = i + 1
            while j < n and isinstance(items[j], Scope) \
                    and items[j].kind in ("elif", "else"):
                group.append(items[j])
                is_else = items[j].kind == "else"
                j += 1
                if is_else:
                    break
            yield "branch", group
            i = j
        else:
            yield "item", item
            i += 1


def _find_calls(stmt_tokens, method_names):
    """Yields (receiver_ident, method, arg_tokens, line) for member calls
    `recv.method(args...)` / `recv->method(args...)` in a statement."""
    toks = stmt_tokens
    for i, tok in enumerate(toks):
        if tok.kind != "ident" or tok.text not in method_names:
            continue
        if i == 0 or toks[i - 1].text not in (".", "->"):
            continue
        if i + 1 >= len(toks) or toks[i + 1].text != "(":
            continue
        recv = toks[i - 2].text if i >= 2 and toks[i - 2].kind == "ident" else ""
        # collect argument tokens up to the matching close paren
        depth = 0
        args = []
        for j in range(i + 1, len(toks)):
            if toks[j].text == "(":
                depth += 1
                if depth == 1:
                    continue
            elif toks[j].text == ")":
                depth -= 1
                if depth == 0:
                    break
            if depth >= 1:
                args.append(toks[j])
        yield recv, tok.text, args, tok.line


# ---------------------------------------------------------------------------
# pool-lifetime: use of a handle after SlabPool::release / values obtained
# from an Arena after reset(). Guards the PR 6 SlabPool contract (DESIGN.md
# §10): the runtime live-bit DTN_CHECK catches a dynamic double release,
# this rule catches the latent path before it ever executes.

def _is_pool(tu: TranslationUnit, name: str) -> bool:
    t = tu.decl_type(name)
    return t.startswith("SlabPool<") or t.startswith("dtn::SlabPool<") \
        or "pool" in name.lower()


def _is_arena(tu: TranslationUnit, name: str) -> bool:
    t = tu.decl_type(name)
    return t in ("Arena", "dtn::Arena") or "arena" in name.lower()


@dataclass
class _PoolEnv:
    # tainted name -> (release line, what was released) for handles,
    # references into released slots, and arena-backed pointers
    dead: dict = field(default_factory=dict)
    # alias name -> (pool receiver, handle name) from `T& r = pool.get(h)`
    aliases: dict = field(default_factory=dict)
    # pointer name -> arena receiver from `p = arena.allocate(...)`
    arena_ptrs: dict = field(default_factory=dict)

    def copy(self):
        return _PoolEnv(dict(self.dead), dict(self.aliases),
                        dict(self.arena_ptrs))

    def union(self, other):
        self.dead.update(other.dead)
        self.aliases.update(other.aliases)
        self.arena_ptrs.update(other.arena_ptrs)


# Statements that unconditionally leave the current path. `continue` and
# `break` end the loop-iteration path: facts tainted on that path never
# reach the statements after the conditional (the chain-walk loops in
# ncl_scheme.cpp release a handle and `continue` — the code after the
# branch is a different path and must not inherit the taint).
_TERMINATORS = {"return", "continue", "break", "throw", "goto"}


def _terminates(stmt: Stmt) -> bool:
    return bool(stmt.tokens) and stmt.tokens[0].text in _TERMINATORS


@register
class PoolLifetimeRule(Rule):
    rule_id = "pool-lifetime"
    message = ""  # always per-finding

    def applies_to(self, rel_path):
        return rel_path.startswith(("src/sim/", "src/cache/", "src/common/")) \
            or is_fixture(rel_path)

    def check(self, tu, ctx):
        for fn in tu.functions():
            findings = []
            self._walk(tu, fn.items, _PoolEnv(), findings)
            yield from findings

    def _walk(self, tu, items, env, findings) -> bool:
        """Processes a statement sequence against `env` (mutated in
        place). Returns True when the sequence unconditionally leaves the
        enclosing path (return/continue/break on every branch)."""
        for kind, thing in branch_groups(items):
            if kind == "branch":
                joined = _PoolEnv()
                any_live = False
                for branch in thing:
                    benv = env.copy()
                    if not self._walk(tu, branch.items, benv, findings):
                        joined.union(benv)
                        any_live = True
                has_else = thing[-1].kind == "else"
                if not has_else:
                    joined.union(env)  # fall-through path
                    any_live = True
                if not any_live:
                    return True  # every branch terminated, else included
                env.dead, env.aliases, env.arena_ptrs = (
                    joined.dead, joined.aliases, joined.arena_ptrs)
            elif isinstance(thing, Scope):
                if thing.kind == "lambda":
                    # a lambda body runs at call time, not here; analyzing
                    # it against this point's state would be wrong both ways
                    continue
                body_env = env.copy()
                body_terminated = self._walk(tu, thing.items, body_env,
                                             findings)
                if thing.kind == "loop":
                    if not body_terminated:
                        env.union(body_env)  # the loop may have run
                else:
                    env.union(body_env)
                    if body_terminated:
                        return True  # plain block always executes
            else:
                self._stmt(tu, thing, env, findings)
                if _terminates(thing):
                    return True
        return False

    def _stmt(self, tu, stmt: Stmt, env: _PoolEnv, findings):
        toks = stmt.tokens
        texts = stmt.texts()

        # kills come first: a declaration (or `name = ...` rebind) makes
        # the name a fresh object before any same-statement read of it
        killed = None
        if len(toks) >= 2 and toks[0].kind == "ident" and texts[1] == "=":
            killed = texts[0]
        decl = parse_decl(toks)
        if decl is not None:
            killed = decl.name
        if killed is not None:
            env.dead.pop(killed, None)
            env.aliases.pop(killed, None)
            env.arena_ptrs.pop(killed, None)

        read_tokens = toks[2:] if killed and texts[1] == "=" else toks
        for tok in read_tokens:
            if tok.kind != "ident" or tok.text not in env.dead:
                continue
            if killed is not None and tok.text == killed:
                continue  # the declarator itself, not a read
            line, what = env.dead[tok.text]
            findings.append(
                (tok.line,
                 f"`{tok.text}` is used after {what} (released at line "
                 f"{line}); a recycled slot can alias a different live "
                 f"bundle — reorder the use before the release or "
                 f"rebind the handle first"))
            del env.dead[tok.text]  # one report per taint

        # alias registration: `T& r = pool.get(h)`. Two conditions keep
        # copies out: the declarator must be a reference/pointer (a
        # by-value `T t = pool.get(h)` copies the slot and survives its
        # release), and the get-chain must be the *root* of the
        # initializer (`f(pool.get(h).x)` produces a value).
        if decl is not None and decl.init and (decl.is_ref or decl.is_ptr):
            for recv, method, args, _line in _find_calls(decl.init, {"get"}):
                if decl.init[0].kind == "ident" \
                        and decl.init[0].text == recv \
                        and _is_pool(tu, recv) and len(args) == 1 \
                        and args[0].kind == "ident":
                    env.aliases[decl.name] = (recv, args[0].text)
            for recv, method, _args, _line in _find_calls(
                    decl.init, {"allocate"}):
                if _is_arena(tu, recv):
                    env.arena_ptrs[decl.name] = recv

        # releases
        for recv, method, args, line in _find_calls(toks, {"release"}):
            if not _is_pool(tu, recv):
                continue
            if len(args) == 1 and args[0].kind == "ident":
                handle = args[0].text
                env.dead[handle] = (line, f"`{recv}.release({handle})`")
                for alias, (arecv, ahandle) in env.aliases.items():
                    if arecv == recv and ahandle == handle:
                        env.dead[alias] = (
                            line, f"`{recv}.release({handle})` (this name "
                            f"references the released slot)")
        for recv, method, args, line in _find_calls(toks, {"reset"}):
            if not _is_arena(tu, recv) or args:
                continue
            for ptr, arecv in env.arena_ptrs.items():
                if arecv == recv:
                    env.dead[ptr] = (line, f"`{recv}.reset()` (this pointer "
                                     f"came from `{recv}.allocate`)")


# ---------------------------------------------------------------------------
# rng-order: an RNG draw (or derive_seed consumption) inside iteration over
# an unordered container makes the draw *sequence* depend on hash-table
# layout — the exact failure PR 1's byte-identical guarantee forbids. The
# legacy unordered-fold rule only sees folds into CSV/stats; this one sees
# the RNG stream itself.

_RNG_METHODS = {
    "uniform", "uniform_int", "exponential", "bernoulli", "pareto",
    "normal", "weighted_index", "shuffle", "split",
}


def _is_rng(tu: TranslationUnit, name: str) -> bool:
    t = tu.decl_type(name)
    return t in ("Rng", "dtn::Rng") or "rng" in name.lower()


@register
class RngOrderRule(Rule):
    rule_id = "rng-order"
    message = (
        "RNG draw inside iteration over an unordered container: the draw "
        "order — and therefore every downstream result — depends on hash-"
        "table layout; iterate a sorted key list or hoist the draws"
    )

    def check(self, tu, ctx):
        for loop in unordered_range_fors(tu):
            for stmt in loop.stmts():
                if self._stmt_draws(tu, stmt):
                    yield stmt.line, None
            for scope in loop.scopes():
                for recv, _m, _a, line in _find_calls(
                        scope.header, _RNG_METHODS):
                    if _is_rng(tu, recv):
                        yield line, None

    def _stmt_draws(self, tu, stmt: Stmt) -> bool:
        toks = stmt.tokens
        for i, tok in enumerate(toks):
            if tok.kind == "ident" and tok.text == "derive_seed" \
                    and i + 1 < len(toks) and toks[i + 1].text == "(":
                return True
        for recv, _method, _args, _line in _find_calls(toks, _RNG_METHODS):
            if _is_rng(tu, recv):
                return True
            # `services.rng().uniform(...)`: receiver is a call result;
            # look for an rng-ish identifier earlier in the chain
            if recv == "" or recv == ")":
                if any(t.kind == "ident" and "rng" in t.text.lower()
                       for t in toks):
                    return True
        return False


# ---------------------------------------------------------------------------
# unchecked-probability: a value produced by a registered probability
# function (Eqs. 2/4: path weights and reply probabilities live in [0,1])
# that is stored into longer-lived state or returned without a reachable
# DTN_CHECK_PROB / clamp on it. Comparisons and local arithmetic are fine —
# the hazard is an unchecked raw value escaping to where the producer's
# internal contract can no longer vouch for it.

_PROB_FUNCTIONS = {
    "hypoexp_cdf", "hypoexp_cdf_closed_form", "hypoexp_cdf_uniformization",
    "reply_probability", "weight_at", "path_weight",
}


@register
class UncheckedProbabilityRule(Rule):
    rule_id = "unchecked-probability"
    message = ""

    def check(self, tu, ctx):
        for fn in tu.functions():
            # tracked name -> (line, producer function)
            env: dict[str, tuple[int, str]] = {}
            for stmt in fn.stmts():
                self._stmt(stmt, env)
                yield from self._escapes(stmt, env)

    @staticmethod
    def _init_producer(tokens):
        for i, tok in enumerate(tokens):
            if tok.kind == "ident" and tok.text in _PROB_FUNCTIONS \
                    and i + 1 < len(tokens) and tokens[i + 1].text == "(":
                return tok.text
        return None

    def _stmt(self, stmt: Stmt, env) -> None:
        toks = stmt.tokens
        texts = stmt.texts()

        # checks: DTN_CHECK_PROB(name) or a clamp mentioning name
        for i, tok in enumerate(toks):
            if tok.text in ("DTN_CHECK_PROB", "clamp") and i + 1 < len(toks) \
                    and toks[i + 1].text == "(":
                for t in toks[i + 1 :]:
                    if t.kind == "ident" and t.text in env:
                        env.pop(t.text)

        # track: `double p = <expr containing prob fn>(...)` or `p = ...`
        decl = parse_decl(toks)
        if decl is not None:
            producer = self._init_producer(decl.init)
            if producer is not None:
                env[decl.name] = (decl.line, producer)
            else:
                env.pop(decl.name, None)
        elif len(toks) >= 3 and toks[0].kind == "ident" and texts[1] == "=":
            producer = self._init_producer(toks[2:])
            if producer is not None:
                env[texts[0]] = (toks[0].line, producer)
            else:
                env.pop(texts[0], None)

    def _escapes(self, stmt: Stmt, env):
        toks = stmt.tokens
        texts = stmt.texts()
        # `return name;`
        if len(toks) >= 2 and texts[0] == "return" and texts[1] in env \
                and (len(toks) == 2 or texts[2] == ";"):
            line, producer = env.pop(texts[1])
            yield (stmt.line,
                   f"`{texts[1]}` holds the raw result of {producer}() "
                   f"(line {line}) and is returned without DTN_CHECK_PROB "
                   f"or a clamp; assert the Eq. 2/4 [0,1] contract before "
                   f"the value escapes this function")
        # `lhs.member = name;` / `lhs[i] = name;` — store into
        # longer-lived state
        if "=" in texts:
            eq = texts.index("=")
            rhs = [t for t in toks[eq + 1 :] if t.text != ";"]
            lhs = texts[:eq]
            if len(rhs) == 1 and rhs[0].kind == "ident" \
                    and rhs[0].text in env \
                    and any(x in lhs for x in (".", "->", "[")):
                line, producer = env.pop(rhs[0].text)
                yield (stmt.line,
                       f"`{rhs[0].text}` holds the raw result of "
                       f"{producer}() (line {line}) and is stored without "
                       f"DTN_CHECK_PROB or a clamp; assert the Eq. 2/4 "
                       f"[0,1] contract before the value escapes into "
                       f"longer-lived state")


# ---------------------------------------------------------------------------
# workspace-bracketing: begin/end pairs must match on every path through a
# function, including early returns — the PR 6 ContactWorkspace contract
# (its runtime DTN_CHECK aborts on reuse; this rule finds the path before
# it runs). The pair table is the extension point for future bracketed
# workspaces.

_BRACKET_PAIRS = [("begin_contact", "end_contact")]


@register
class WorkspaceBracketingRule(Rule):
    rule_id = "workspace-bracketing"
    message = ""

    def check(self, tu, ctx):
        for fn in tu.functions():
            for begin, end in _BRACKET_PAIRS:
                if not self._mentions(fn, begin):
                    continue
                findings = []
                state, returned = self._walk(fn.items, 0, begin, end,
                                             findings)
                if state > 0 and not returned:
                    findings.append(
                        (fn.line,
                         f"function `{fn.name}` can fall off the end with "
                         f"{begin}() still open: add the matching {end}()"))
                yield from findings

    @staticmethod
    def _mentions(fn: Scope, name: str) -> bool:
        return any(
            any(t.kind == "ident" and t.text == name for t in stmt.tokens)
            for stmt in fn.stmts()
        )

    def _walk(self, items, state, begin, end, findings):
        returned = False
        for kind, thing in branch_groups(items):
            if returned:
                break  # unreachable statements
            if kind == "branch":
                exits = []
                all_return = thing[-1].kind == "else"
                for branch in thing:
                    b_state, b_ret = self._walk(branch.items, state, begin,
                                                end, findings)
                    if not b_ret:
                        exits.append(b_state)
                        all_return = False
                if thing[-1].kind != "else":
                    exits.append(state)  # fall-through
                if exits and any(e != exits[0] for e in exits):
                    findings.append(
                        (thing[0].line,
                         f"{begin}()/{end}() bracketing differs across the "
                         f"branches of this conditional: one path leaves "
                         f"the workspace open"))
                state = exits[0] if exits else state
                returned = all_return
            elif isinstance(thing, Scope):
                if thing.kind == "lambda":
                    continue
                if thing.kind == "loop":
                    b_state, _ = self._walk(thing.items, state, begin, end,
                                            findings)
                    if b_state != state:
                        findings.append(
                            (thing.line,
                             f"each loop iteration must leave the "
                             f"{begin}()/{end}() bracket where it found "
                             f"it; this body changes it"))
                else:
                    state, returned = self._walk(thing.items, state, begin,
                                                 end, findings)
            else:
                state, returned = self._bracket_stmt(thing, state, begin,
                                                     end, findings)
        return state, returned

    def _bracket_stmt(self, stmt: Stmt, state, begin, end, findings):
        texts = stmt.texts()
        if "return" in texts and state > 0:
            findings.append(
                (stmt.line,
                 f"return with {begin}() still open: this early exit "
                 f"skips {end}(), and the next contact aborts on the "
                 f"workspace-reuse DTN_CHECK"))
        for i, t in enumerate(texts):
            if t == begin and i + 1 < len(texts) and texts[i + 1] == "(":
                if state > 0:
                    findings.append(
                        (stmt.line,
                         f"{begin}() while the previous bracket is still "
                         f"open (missing {end}() on this path)"))
                state += 1
            elif t == end and i + 1 < len(texts) and texts[i + 1] == "(":
                if state == 0:
                    findings.append(
                        (stmt.line, f"{end}() without a matching {begin}()"))
                else:
                    state -= 1
        returned = bool(texts) and texts[0] == "return"
        return state, returned


# ---------------------------------------------------------------------------
# daemon-snapshot-guard: the dtnd daemon (src/daemon/) publishes state to
# reader threads through exactly two channels — a snapshot pointer swapped
# under a short mutex, and atomic stream clocks. The naming convention makes
# the contract checkable: every cross-thread member is `shared_*_`, and any
# touch of one must either sit under a lock guard on the current path or go
# through an atomic member call (`.load(...)` / `.store(...)` etc.). A bare
# read compiles fine and usually works — until a reader tears a pointer the
# writer is mid-swap on. TSan catches the interleaving that happens to run;
# this rule catches the path before it runs.

_GUARD_TYPES = {"lock_guard", "scoped_lock", "unique_lock", "shared_lock"}
_ATOMIC_METHODS = {
    "load", "store", "exchange", "fetch_add", "fetch_sub", "fetch_or",
    "fetch_and", "compare_exchange_weak", "compare_exchange_strong",
}


def _is_shared_member(name: str) -> bool:
    # `shared_snapshot_`, `shared_ingest_clock_`, ... — the trailing
    # underscore keeps `shared_ptr`/`shared_lock` (type names) out.
    return name.startswith("shared_") and name.endswith("_")


@register
class DaemonSnapshotGuardRule(Rule):
    rule_id = "daemon-snapshot-guard"
    message = ""  # always per-finding

    def applies_to(self, rel_path):
        return rel_path.startswith("src/daemon/") or is_fixture(rel_path)

    def check(self, tu, ctx):
        for fn in tu.functions():
            findings = []
            self._walk(fn.items, False, findings)
            yield from findings

    def _walk(self, items, guarded, findings):
        """Walks one statement sequence. `guarded` is path state: a lock
        guard declared here protects the rest of THIS block and anything
        nested in it, and dies with the block — a guard taken inside a
        branch does not cover code after the conditional."""
        for item in items:
            if isinstance(item, Scope):
                if item.kind == "lambda":
                    # The body runs at call time; whatever guard is live at
                    # the definition site is long gone by then.
                    self._walk(item.items, False, findings)
                    continue
                if not guarded:
                    self._check_tokens(item.header, findings)
                self._walk(item.items, guarded, findings)
            else:
                if self._declares_guard(item):
                    guarded = True
                    continue
                if not guarded:
                    self._check_tokens(item.tokens, findings)

    @staticmethod
    def _declares_guard(stmt: Stmt) -> bool:
        return any(t.kind == "ident" and t.text in _GUARD_TYPES
                   for t in stmt.tokens)

    def _check_tokens(self, tokens, findings):
        for i, tok in enumerate(tokens):
            if tok.kind != "ident" or not _is_shared_member(tok.text):
                continue
            if self._is_atomic_call(tokens, i):
                continue
            findings.append(
                (tok.line,
                 f"`{tok.text}` is daemon shared state touched outside a "
                 f"lock guard and not through an atomic member call; a "
                 f"reader can observe a torn update — copy it under "
                 f"std::lock_guard (Daemon::snapshot()/publish()) or use "
                 f".load()/.store() with explicit memory order"))

    @staticmethod
    def _is_atomic_call(tokens, i) -> bool:
        return (i + 3 < len(tokens)
                and tokens[i + 1].text in (".", "->")
                and tokens[i + 2].kind == "ident"
                and tokens[i + 2].text in _ATOMIC_METHODS
                and tokens[i + 3].text == "(")


# ---------------------------------------------------------------------------
# hot-loop-alloc: allocating-container construction inside loop bodies on
# the engine fast paths. Generalizes the legacy vector-in-loop rule (which
# stays in the legacy set) to every allocating std container and to
# src/sim/, with real scope accuracy: only declarations of owning objects
# in loop bodies fire — references, pointers, and containers hoisted out
# of the loop do not. The src/graph/ scope covers every many-roots build
# (all-pairs tables, the Eq. 3 NCL metric): its per-root Dijkstra loop
# must reuse one PathWorkspace across roots, not construct per-root
# frontier containers.

_ALLOC_CONTAINERS = {
    "vector", "deque", "list", "map", "set", "multimap", "multiset",
    "unordered_map", "unordered_set", "unordered_multimap",
    "unordered_multiset", "basic_string",
}


@register
class HotLoopAllocRule(Rule):
    rule_id = "hot-loop-alloc"
    message = (
        "allocating container constructed inside a loop body on an engine "
        "fast path; hoist it into a PathWorkspace / ContactWorkspace "
        "scratch that is reused across iterations (PR 5/6 contract, and "
        "every many-roots build reuses one workspace across roots: the "
        "hot loops run allocation-free)"
    )

    def applies_to(self, rel_path):
        return rel_path.startswith(("src/graph/", "src/sim/")) \
            or is_fixture(rel_path)

    def check(self, tu, ctx):
        for line, _word in container_decls_in_loops(tu, _ALLOC_CONTAINERS):
            yield line, None
        # raw `new` in a loop body is the same hazard without a container
        for scope in tu.root.scopes():
            if scope.kind != "loop":
                continue
            for item in scope.items:
                if isinstance(item, Stmt) and any(
                        t.kind == "ident" and t.text == "new"
                        for t in item.tokens):
                    yield item.line, (
                        "raw `new` inside a loop body on an engine fast "
                        "path; use a SlabPool (src/common/arena.h)")
