"""Interprocedural must-call protocol checks on the call graph.

Two protocols, both the static twins of dynamic detectors:

**Stale translations** (TransSan's static half, ``flow-stale-translation``):
any path that mutates page-table state — ``unmap`` / ``protect`` /
``link_subtree`` / ``unlink_subtree`` / ``window_write_protect`` or a
direct ``wp_slots`` write — must reach a TLB/rTLB/premap invalidation
(``invalidate*`` / ``flush_asid`` / ``flush_all``) before control
returns to the syscall boundary.  Each function gets a gen/kill effect:
*gen* means "a mutation can still be pending on some path out of this
function", *kill* means "some path through this function invalidates".
Composition is sequential (a later kill clears an earlier gen); at a
branch, gen joins pessimistically (either arm may leave a mutation
pending) while kill joins optimistically — the rule hunts mutations
with *no possible* subsequent invalidation, which is exactly the shape
of a dropped-invalidate bug, without flagging every ``if cpu is not
None`` guard.  Early ``return`` paths carry their pending state to the
function's exit effect; exception exits are exempt (a fault delivery
aborts the translation anyway).

**Persist ordering** (PersistSan's static half,
``flow-persist-outside-txn``): a journal *apply* may only run once the
record describing it has been committed.  Each function summarizes
whether it (maybe) commits and which applies can execute before any
commit, and a call composes the callee's pre-commit applies into the
caller unless the caller has already committed by the call site.
Findings are reported at protocol *roots* — entry points and functions
no one in the package calls — with the full chain down to the apply.
The journal *apply* methods themselves are the primitive, not a
violation of it.

Both protocols run through one statement walker, generic over the
effect domain's ``(identity, compose, join, call_effect)``, to a
fixpoint over the SCC-condensed call graph: an acyclic SCC is evaluated
once, a cycle until no member's effect changes.

Inline escapes: ``# o1: allow(flow-stale-translation)`` on a mutation
site asserts no prior translation can exist (e.g. linking a subtree
into a hole); ``# o1: allow(flow-persist-outside-txn)`` on an apply
site asserts the record is known-committed (e.g. crash-recovery redo).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Generic, List, Optional, Sequence, Set, Tuple, TypeVar

from repro.lint.astcheck import _SCOPE_TYPES
from repro.lint.callgraph import CallGraph, CallSite, FunctionNode
from repro.lint.engine import is_cyclic, strongly_connected
from repro.lint.findings import AllowMap, Finding, Hop

RULE_STALE_TRANSLATION = "flow-stale-translation"
RULE_FLOW_PERSIST = "flow-persist-outside-txn"

#: Journal *apply* methods: each mutates durable metadata and must be
#: ordered after a commit (PersistSan checks this dynamically).
PERSIST_APPLY_ATTRS = frozenset(
    {"_apply_alloc", "_apply_shrink", "_apply_free", "_apply_migrate"}
)

#: The call that makes a journal record durable.
PERSIST_COMMIT_ATTR = "_journal_commit"

#: Page-table mutators that can leave a stale translation behind.
TLB_GEN_ATTRS = frozenset(
    {"unmap", "protect", "unlink_subtree", "link_subtree", "window_write_protect"}
)

#: Classes whose methods the gen set applies to when the call resolves;
#: unresolved calls fall back to the attribute name alone.
TLB_GEN_OWNERS = frozenset({"PageTable"})

#: Invalidation primitives (TLB, range-TLB, CPU fan-out, premap cache).
TLB_KILL_ATTRS = frozenset(
    {
        "invalidate",
        "invalidate_range",
        "invalidate_page",
        "invalidate_space_range",
        "invalidate_overlap",
        "flush_asid",
        "flush_all",
    }
)

_MAX_CHAIN = 12
_MAX_FIXPOINT_PASSES = 8

E = TypeVar("E")


# ---------------------------------------------------------------------------
# The generic statement walker
# ---------------------------------------------------------------------------
class _Walk:
    """What a domain's ``call_effect`` may consult about the function."""

    def __init__(
        self,
        graph: CallGraph,
        func: FunctionNode,
        sites: Dict[int, CallSite],
    ) -> None:
        self.graph = graph
        self.func = func
        self.sites = sites
        self.allowed: AllowMap = graph.allows["o1"][func.path]

    def hop(self, call: ast.Call, note: str) -> Hop:
        return Hop(self.func.fid, self.func.path, call.lineno, note)


class Domain(Generic[E]):
    """An effect lattice the walker evaluates function bodies in."""

    identity: E
    #: Early ``return`` carries the pending effect to the function's exit
    #: and ``raise`` exits are exempt; otherwise both are plain statements.
    exits = False

    def __init__(self, effects: Dict[str, E]) -> None:
        #: fid -> effect, filled bottom-up over the SCCs.
        self.effects = effects

    def compose(self, first: E, second: E) -> E:
        raise NotImplementedError

    def join(self, first: E, second: E) -> E:
        raise NotImplementedError

    def call_effect(self, walk: _Walk, call: ast.Call) -> E:
        raise NotImplementedError

    def finish(self, func: FunctionNode, effect: E) -> E:
        return effect

    def evaluate(self, walk: _Walk) -> E:
        """The effect of one function body against the current table."""
        exit_effect = self.identity

        def sequence(body: Sequence[ast.stmt]) -> E:
            acc = self.identity
            for stmt in body:
                acc = statement(stmt, acc)
            return acc

        def calls_in(roots: List[ast.AST]) -> E:
            calls: List[ast.Call] = []
            stack = list(roots)
            while stack:
                node = stack.pop()
                if isinstance(node, _SCOPE_TYPES):
                    continue
                stack.extend(ast.iter_child_nodes(node))
                if isinstance(node, ast.Call):
                    calls.append(node)
            calls.sort(key=lambda c: (c.lineno, c.col_offset))
            acc = self.identity
            for call in calls:
                acc = self.compose(acc, self.call_effect(walk, call))
            return acc

        def loop(acc: E, head: ast.expr, body: E, orelse: List[ast.stmt]) -> E:
            acc = self.compose(acc, calls_in([head]))
            acc = self.compose(acc, self.join(self.identity, body))
            return self.compose(acc, sequence(orelse))

        def statement(stmt: ast.stmt, acc: E) -> E:
            nonlocal exit_effect
            if isinstance(stmt, _SCOPE_TYPES):
                return acc
            if isinstance(stmt, ast.Raise) and self.exits:
                # Exceptional exits are exempt: the fault path re-walks.
                return acc
            if isinstance(stmt, ast.If):
                acc = self.compose(acc, calls_in([stmt.test]))
                branches = self.join(sequence(stmt.body), sequence(stmt.orelse))
                return self.compose(acc, branches)
            if isinstance(stmt, (ast.For, ast.AsyncFor)):
                return loop(acc, stmt.iter, sequence(stmt.body), stmt.orelse)
            if isinstance(stmt, ast.While):
                return loop(acc, stmt.test, sequence(stmt.body), stmt.orelse)
            if isinstance(stmt, ast.Try):
                acc = self.compose(acc, sequence(stmt.body))
                handlers = self.identity
                for handler in stmt.handlers:
                    handlers = self.join(handlers, sequence(handler.body))
                acc = self.compose(acc, handlers)
                acc = self.compose(acc, sequence(stmt.orelse))
                return self.compose(acc, sequence(stmt.finalbody))
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                for item in stmt.items:
                    acc = self.compose(acc, calls_in([item.context_expr]))
                return self.compose(acc, sequence(stmt.body))
            acc = self.compose(acc, calls_in(list(ast.iter_child_nodes(stmt))))
            if isinstance(stmt, ast.Return) and self.exits:
                exit_effect = self.join(exit_effect, acc)
            return acc

        body = sequence(walk.func.node.body)
        return self.finish(walk.func, self.join(exit_effect, body))


# ---------------------------------------------------------------------------
# Stale-translation effect
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class TlbEffect:
    """gen/kill summary of one function (or statement sequence)."""

    gen: bool = False
    kill: bool = False
    chain: Tuple[Hop, ...] = ()


class TlbDomain(Domain[TlbEffect]):
    """*gen*: a mutation can still be pending on some path out;
    *kill*: some path invalidates.  Composition is sequential (a later
    kill clears an earlier gen); at a branch, gen joins pessimistically
    and kill optimistically."""

    identity = TlbEffect()
    exits = True

    def compose(self, first: TlbEffect, second: TlbEffect) -> TlbEffect:
        gen = (first.gen and not second.kill) or second.gen
        if second.gen:
            chain = second.chain
        elif first.gen and not second.kill:
            chain = first.chain
        else:
            chain = ()
        return TlbEffect(gen=gen, kill=first.kill or second.kill, chain=chain)

    def join(self, first: TlbEffect, second: TlbEffect) -> TlbEffect:
        chain = first.chain if first.gen else second.chain
        return TlbEffect(
            gen=first.gen or second.gen, kill=first.kill or second.kill, chain=chain
        )

    def call_effect(self, walk: _Walk, call: ast.Call) -> TlbEffect:
        func = call.func
        attr = func.attr if isinstance(func, ast.Attribute) else None
        if attr in TLB_KILL_ATTRS:
            return TlbEffect(kill=True)
        if (
            isinstance(func, ast.Attribute)
            and func.attr in ("add", "discard")
            and isinstance(func.value, ast.Attribute)
            and func.value.attr == "wp_slots"
        ):
            return self._gen(walk, call, "direct wp_slots write")
        site = walk.sites.get(id(call))
        targets = site.targets if site is not None else ()
        if attr in TLB_GEN_ATTRS and (
            not targets or any(_owner_name(walk.graph, t) in TLB_GEN_OWNERS for t in targets)
        ):
            return self._gen(
                walk, call, f"page-table mutation {site.raw if site else attr}"
            )
        if not targets:
            return self.identity
        effect = self.identity
        for target in targets:
            effect = self.join(effect, self.effects.get(target, self.identity))
        if effect.gen and site is not None:
            chain = (walk.hop(call, f"calls {site.raw}"), *effect.chain)
            effect = TlbEffect(gen=True, kill=effect.kill, chain=chain[:_MAX_CHAIN])
        return effect

    def _gen(self, walk: _Walk, call: ast.Call, detail: str) -> TlbEffect:
        if walk.allowed.allow((call.lineno, call.lineno - 1), RULE_STALE_TRANSLATION):
            return self.identity
        return TlbEffect(gen=True, chain=(walk.hop(call, detail),))


def _owner_name(graph: CallGraph, fid: str) -> Optional[str]:
    node = graph.functions.get(fid)
    if node is None or node.owner is None:
        return None
    return node.owner.rsplit(".", 1)[-1]


# ---------------------------------------------------------------------------
# Persist-ordering effect
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class PersistEffect:
    """Whether a function may commit, and which applies can pre-empt it."""

    commits: bool = False
    pre_applies: Tuple[Tuple[Hop, ...], ...] = ()


class PersistDomain(Domain[PersistEffect]):
    identity = PersistEffect()

    def compose(self, first: PersistEffect, second: PersistEffect) -> PersistEffect:
        pre = first.pre_applies
        if not first.commits:
            pre = pre + second.pre_applies
        return PersistEffect(commits=first.commits or second.commits, pre_applies=pre)

    def join(self, first: PersistEffect, second: PersistEffect) -> PersistEffect:
        # Lenient commit join: if either arm commits, later applies are
        # considered covered.  Pre-commit applies union pessimistically.
        return PersistEffect(
            commits=first.commits or second.commits,
            pre_applies=first.pre_applies + second.pre_applies,
        )

    def call_effect(self, walk: _Walk, call: ast.Call) -> PersistEffect:
        attr = call.func.attr if isinstance(call.func, ast.Attribute) else None
        if attr == PERSIST_COMMIT_ATTR:
            return PersistEffect(commits=True)
        if attr in PERSIST_APPLY_ATTRS:
            if walk.allowed.allow((call.lineno, call.lineno - 1), RULE_FLOW_PERSIST):
                return self.identity
            return PersistEffect(
                pre_applies=((walk.hop(call, f"journaled mutation {attr}()"),),)
            )
        site = walk.sites.get(id(call))
        if site is None or not site.targets:
            return self.identity
        commits = False
        pre: List[Tuple[Hop, ...]] = []
        for target in site.targets:
            effect = self.effects.get(target, self.identity)
            commits = commits or effect.commits
            for chain in effect.pre_applies:
                hop = walk.hop(call, f"calls {site.raw}")
                pre.append((hop, *chain)[:_MAX_CHAIN])
        return PersistEffect(commits=commits, pre_applies=tuple(pre))

    def finish(self, func: FunctionNode, effect: PersistEffect) -> PersistEffect:
        if func.name in PERSIST_APPLY_ATTRS:
            return PersistEffect(commits=effect.commits)
        return effect


# ---------------------------------------------------------------------------
# Fixpoint driver and findings
# ---------------------------------------------------------------------------
@dataclass
class ProtocolResult:
    """Per-function effects for both protocols."""

    tlb: Dict[str, TlbEffect] = field(default_factory=dict)
    persist: Dict[str, PersistEffect] = field(default_factory=dict)
    callers: Dict[str, Set[str]] = field(default_factory=dict)


def compute_protocols(graph: CallGraph) -> ProtocolResult:
    """Evaluate both protocols to a fixpoint over the call graph."""
    result = ProtocolResult()
    edges: Dict[str, List[str]] = {}
    for fid in graph.functions:
        edges[fid] = [t for t in graph.callees(fid) if t in graph.functions]
        for target in edges[fid]:
            result.callers.setdefault(target, set()).add(fid)
    tlb, persist = TlbDomain(result.tlb), PersistDomain(result.persist)
    for component in strongly_connected(list(graph.functions), edges):
        walks = [
            _Walk(graph, graph.functions[fid], {id(s.node): s for s in graph.calls.get(fid, ())})
            for fid in component
        ]
        passes = _MAX_FIXPOINT_PASSES if is_cyclic(component, edges) else 1
        _fixpoint(tlb, walks, passes)
        _fixpoint(persist, walks, passes)
    return result


def _fixpoint(domain: Domain[E], walks: List[_Walk], passes: int) -> None:
    for _ in range(passes):
        changed = False
        for walk in walks:
            effect = domain.evaluate(walk)
            if domain.effects.get(walk.func.fid) != effect:
                changed = True
            domain.effects[walk.func.fid] = effect
        if not changed:
            break


def protocol_findings(
    graph: CallGraph, protocols: ProtocolResult, entries: Sequence[str]
) -> List[Finding]:
    """Stale translations at the entries; pre-commit applies at roots."""
    findings: List[Finding] = []
    allows = graph.allows["o1"]
    for entry in entries:
        effect = protocols.tlb.get(entry)
        func = graph.functions[entry]
        if effect is None or not effect.gen:
            continue
        if allows[func.path].allow((func.lineno,), RULE_STALE_TRANSLATION):
            continue
        findings.append(
            Finding(
                path=func.path,
                line=effect.chain[0].line if effect.chain else func.lineno,
                module=func.module,
                qualname=func.qualname,
                rule=RULE_STALE_TRANSLATION,
                message=(
                    "page-table mutation can reach the syscall return with "
                    "no TLB/rTLB/premap invalidation on any later path"
                ),
                chain=effect.chain,
            )
        )
    # Roots: functions no one in the package calls, plus the entries.
    roots = {fid for fid in graph.functions if not protocols.callers.get(fid)}
    seen: Set[Tuple[str, str, int]] = set()
    for root in sorted(roots | set(entries)):
        persist = protocols.persist.get(root)
        func = graph.functions[root]
        if persist is None or not persist.pre_applies:
            continue
        if allows[func.path].allow((func.lineno,), RULE_FLOW_PERSIST):
            continue
        for chain in persist.pre_applies:
            key = (root, chain[-1].path, chain[-1].line)
            if key in seen:
                continue
            seen.add(key)
            findings.append(
                Finding(
                    path=func.path,
                    line=chain[0].line,
                    module=func.module,
                    qualname=func.qualname,
                    rule=RULE_FLOW_PERSIST,
                    message=(
                        "journaled mutation can apply with no "
                        "_journal_commit() anywhere on the path from this "
                        "protocol root"
                    ),
                    chain=chain,
                )
            )
    return findings
