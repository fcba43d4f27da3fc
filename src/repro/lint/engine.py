"""One propagation engine: bottom-up summaries over the SCC-condensed graph.

Both interprocedural properties — simulated cost (:mod:`repro.lint.summaries`)
and heap allocation (:mod:`repro.lint.alloc`) — are the same computation
over a different lattice.  Every function gets a *computed* value by
combining what its own body does with what its calls contribute,
bottom-up in reverse-topological SCC order:

* a call contributes the callee's *declared* value when the callee is
  declared — declarations are trust cut points, each verified at its
  own node — and the callee's computed summary otherwise;
* a call inside ``depth`` unbounded loops contributes that value scaled
  by the lattice (``value.scale(depth)``);
* any cycle of undeclared functions is the lattice's top (recursion the
  analysis cannot bound);
* unresolved calls contribute bottom — deliberate optimism; the
  hot-entry coverage gate is what forces hot-path code into the
  resolved world.

A lattice instance supplies bottom and top, the declared-cut value of a
function (and its label), the function's own-body contributions, the
loop depth of each call site, and the call-site allow rule that excuses
a site (``flow-bounded`` for cost, ``cold-call`` for allocation).  An
excuse comment is *used* only if it changed anything: the callee was
above bottom, or the call closed a cycle.

The two checks every lattice shares live here too: the declared-bound
check (a declared function whose summary exceeds its declaration) and
the hot-entry coverage walk (an undeclared function above bottom
reachable from a hot entry, reported with its entry -> function path).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import IntEnum
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.lint.callgraph import CallGraph, CallSite
from repro.lint.findings import Finding, Hop

_MAX_CHAIN = 12


class LatticeValue(IntEnum):
    """Base of a lattice's value enum: integer order is growth order."""

    @property
    def label(self) -> str:
        raise NotImplementedError

    def scale(self, depth: int) -> "LatticeValue":
        """The value of ``depth`` nested unbounded loops around ``self``."""
        raise NotImplementedError


@dataclass(frozen=True)
class Witness:
    """Why a function's summary is what it is."""

    kind: str  # "loop" | "shape" | "call" | "recursion"
    line: int
    detail: str
    callee: Optional[str] = None


@dataclass
class Summary:
    """Computed value of one function (ignoring its own declaration)."""

    fid: str
    value: LatticeValue
    witness: Optional[Witness] = None


class Lattice:
    """What one analysis supplies to the engine."""

    #: Allow-comment namespace of ``excuse_rule`` and the checks' allows.
    namespace: str
    #: Call-site allow rule that drops the site from the caller's summary.
    excuse_rule: str
    #: Parenthetical of a recursion witness.
    cycle_note: str
    bottom: LatticeValue
    top: LatticeValue

    def cut(self, fid: str) -> Optional[LatticeValue]:
        """Declared value of ``fid`` (a trust cut point), or None."""
        raise NotImplementedError

    def cut_label(self, fid: str) -> str:
        """How the declaration of ``fid`` is spelled in diagnostics."""
        raise NotImplementedError

    def own(self, fid: str) -> List[Tuple[LatticeValue, Witness]]:
        """Contributions of the body itself, already scaled."""
        raise NotImplementedError

    def depth(self, fid: str, site: CallSite) -> Optional[int]:
        """Unbounded loops around ``site``; None if it is not per-call work."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# SCC condensation (iterative Tarjan)
# ---------------------------------------------------------------------------
def strongly_connected(
    nodes: Sequence[str], edges: Dict[str, List[str]]
) -> List[List[str]]:
    """SCCs of ``nodes`` in reverse-topological order (callees first)."""
    index: Dict[str, int] = {}
    lowlink: Dict[str, int] = {}
    on_stack: Set[str] = set()
    stack: List[str] = []
    sccs: List[List[str]] = []
    counter = 0

    for root in nodes:
        if root in index:
            continue
        work: List[Tuple[str, int]] = [(root, 0)]
        while work:
            node, child_index = work[-1]
            if child_index == 0:
                index[node] = lowlink[node] = counter
                counter += 1
                stack.append(node)
                on_stack.add(node)
            advanced = False
            targets = edges.get(node, [])
            while child_index < len(targets):
                target = targets[child_index]
                child_index += 1
                if target not in index:
                    work[-1] = (node, child_index)
                    work.append((target, 0))
                    advanced = True
                    break
                if target in on_stack:
                    lowlink[node] = min(lowlink[node], index[target])
            if advanced:
                continue
            work.pop()
            if lowlink[node] == index[node]:
                component: List[str] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                sccs.append(component)
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
    return sccs


def is_cyclic(component: List[str], edges: Dict[str, List[str]]) -> bool:
    """True for a multi-member SCC or a function that calls itself."""
    return len(component) > 1 or component[0] in edges.get(component[0], ())


# ---------------------------------------------------------------------------
# The summary table
# ---------------------------------------------------------------------------
class SummaryTable:
    """Computed summaries of one lattice over the whole call graph."""

    def __init__(self, graph: CallGraph, lattice: Lattice) -> None:
        self.graph = graph
        self.lattice = lattice
        self.allows = graph.allows[lattice.namespace]
        self.summaries: Dict[str, Summary] = {}
        #: Per-call resolved edges (excused sites dropped, declared
        #: callees kept): fid -> [(target, line)].
        self.live_edges: Dict[str, List[Tuple[str, int]]] = {}
        self._excused: List[Tuple[str, CallSite, int]] = []
        self._excused_ids: Set[int] = set()
        self._scc_of: Dict[str, int] = {}
        self._compute()

    def _compute(self) -> None:
        graph, lattice = self.graph, self.lattice
        edges: Dict[str, List[str]] = {}
        for fid, func in graph.functions.items():
            live: List[Tuple[str, int]] = []
            for site in graph.calls.get(fid, ()):
                if lattice.depth(fid, site) is None:
                    continue
                excuse = self.allows[func.path].match(
                    (site.line, site.line - 1), lattice.excuse_rule
                )
                if excuse is not None:
                    self._excused.append((fid, site, excuse))
                    self._excused_ids.add(id(site.node))
                    continue
                live.extend(
                    (t, site.line) for t in site.targets if t in graph.functions
                )
            self.live_edges[fid] = live
            edges[fid] = [t for t, _ in live if lattice.cut(t) is None]
        components = strongly_connected(list(graph.functions), edges)
        for number, component in enumerate(components):
            for member in component:
                self._scc_of[member] = number
        for component in components:
            if is_cyclic(component, edges):
                for member in component:
                    self.summaries[member] = self._recursive(member, set(component))
            else:
                self.summaries[component[0]] = self._combine(component[0])
        for caller, site, line in self._excused:
            if self._excuse_was_needed(caller, site):
                self.allows[graph.functions[caller].path].mark_used(line)

    def effective(self, fid: str) -> LatticeValue:
        """What a call to ``fid`` contributes: declared cut or summary."""
        cut = self.lattice.cut(fid)
        if cut is not None:
            return cut
        summary = self.summaries.get(fid)
        return summary.value if summary is not None else self.lattice.bottom

    def _recursive(self, fid: str, component: Set[str]) -> Summary:
        for site in self.graph.calls.get(fid, ()):
            if any(target in component for target in site.targets):
                witness = Witness(
                    kind="recursion",
                    line=site.line,
                    detail=f"recursive call {site.raw} ({self.lattice.cycle_note})",
                )
                return Summary(fid, self.lattice.top, witness)
        return Summary(fid, self.lattice.top)

    def _combine(self, fid: str) -> Summary:
        lattice = self.lattice
        candidates = list(lattice.own(fid))
        for site in self.graph.calls.get(fid, ()):
            depth = lattice.depth(fid, site)
            if depth is None or id(site.node) in self._excused_ids:
                continue
            for target in site.targets:
                raw = self.effective(target)
                value = raw.scale(depth)
                if not value > lattice.bottom:
                    continue
                label = raw.label
                if lattice.cut(target) is not None:
                    label = f"declared {lattice.cut_label(target)}"
                detail = f"calls {site.raw} [{label}]"
                if depth:
                    detail += " inside an unbounded loop"
                witness = Witness("call", site.line, detail, callee=target)
                candidates.append((value, witness))
        if not candidates:
            return Summary(fid, lattice.bottom)
        # Worst value, then the earliest line; ties keep body order.
        value, witness = max(candidates, key=lambda c: (c[0], -c[1].line))
        return Summary(fid, value, witness)

    def _excuse_was_needed(self, caller: str, site: CallSite) -> bool:
        """An excuse is *used* iff it changed anything."""
        caller_scc = self._scc_of.get(caller)
        return any(
            self.effective(t) > self.lattice.bottom
            or self._scc_of.get(t) == caller_scc
            for t in site.targets
        )

    # -- diagnostics ---------------------------------------------------
    def witness_chain(self, fid: str) -> List[Hop]:
        """Follow worst-value witnesses down from ``fid``."""
        hops: List[Hop] = []
        current: Optional[str] = fid
        while current is not None and len(hops) < _MAX_CHAIN:
            node = self.graph.functions[current]
            summary = self.summaries[current]
            witness = summary.witness
            if witness is None:
                note = f"[{summary.value.label}]"
                hops.append(Hop(current, node.path, node.lineno, note))
                break
            hops.append(Hop(current, node.path, witness.line, witness.detail))
            callee = witness.callee
            if (
                witness.kind != "call"
                or callee is None
                or callee not in self.graph.functions
                or self.lattice.cut(callee) is not None
            ):
                break
            current = callee
        return hops


# ---------------------------------------------------------------------------
# The two checks every lattice shares
# ---------------------------------------------------------------------------
def declared_findings(
    table: SummaryTable, rule: str, noun: str = ""
) -> List[Finding]:
    """Declared functions whose computed summary exceeds the declaration."""
    graph, lattice = table.graph, table.lattice
    findings: List[Finding] = []
    for fid in sorted(graph.functions):
        cut = lattice.cut(fid)
        summary = table.summaries[fid]
        if cut is None or not summary.value > cut:
            continue
        func = graph.functions[fid]
        if table.allows[func.path].allow((func.lineno,), rule):
            continue
        chain = tuple(table.witness_chain(fid))
        findings.append(
            Finding(
                path=func.path,
                line=chain[0].line if chain else func.lineno,
                module=func.module,
                qualname=func.qualname,
                rule=rule,
                message=(
                    f"declared {lattice.cut_label(fid)} but the call graph "
                    f"reaches {summary.value.label}{noun}"
                ),
                chain=chain,
            )
        )
    return findings


def coverage_findings(
    table: SummaryTable,
    entries: Sequence[str],
    edges: Callable[[str], Iterable[Tuple[str, int]]],
    rule: str,
    message: str,
) -> Tuple[List[Finding], int]:
    """Undeclared functions above bottom reachable from a hot entry.

    Breadth-first from ``entries`` over ``edges(fid) -> (target, line)``;
    each finding carries the entry -> function hop chain plus the
    function's own witness.  ``message`` is formatted with ``entry`` and
    ``label``.  Also returns how many functions the walk reached.
    """
    graph, lattice = table.graph, table.lattice
    parent: Dict[str, Tuple[Optional[str], int]] = {}
    order: List[str] = []
    for entry in entries:
        if entry in parent:
            continue
        parent[entry] = (None, graph.functions[entry].lineno)
        queue = deque([entry])
        while queue:
            current = queue.popleft()
            order.append(current)
            for target, line in edges(current):
                if target in parent or target not in graph.functions:
                    continue
                parent[target] = (current, line)
                queue.append(target)
    findings: List[Finding] = []
    for fid in order:
        summary = table.summaries[fid]
        if lattice.cut(fid) is not None or not summary.value > lattice.bottom:
            continue
        func = graph.functions[fid]
        if table.allows[func.path].allow((func.lineno,), rule):
            continue
        hops: List[Hop] = []
        cursor: Optional[str] = fid
        while cursor is not None:
            origin, line = parent[cursor]
            note = "" if origin is None else "called from here"
            hops.append(Hop(cursor, graph.functions[cursor].path, line, note))
            cursor = origin
        hops.reverse()
        witness = summary.witness
        if witness is not None:
            hops.append(Hop(fid, func.path, witness.line, witness.detail))
        findings.append(
            Finding(
                path=func.path,
                line=func.lineno,
                module=func.module,
                qualname=func.qualname,
                rule=rule,
                message=message.format(
                    entry=hops[0].fid, label=summary.value.label
                ),
                chain=tuple(hops[:_MAX_CHAIN]),
            )
        )
    return findings, len(order)
