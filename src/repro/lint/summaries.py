"""The cost lattice: transitive simulated-cost summaries.

Every function gets a *computed* cost class from the lattice

    CONSTANT < LOG < LINEAR < LINEARITHMIC < UNBOUNDED

propagated by the shared engine (:mod:`repro.lint.engine`):

* a loop the AST cannot bound to a constant contributes LINEAR (or
  UNBOUNDED when nested inside another unbounded loop);
* a call inside an unbounded loop is scaled: CONSTANT work per
  iteration makes the loop LINEAR, LOG makes it LINEARITHMIC, anything
  more is UNBOUNDED;
* ``@o1`` / ``@complexity`` declarations are the cut points.

``# o1: allow(flow-bounded)`` on a loop or call site line marks it
bounded (constant iterations / constant-amortized callee), and the
intra-rule loop allows (``o1-size-loop`` etc.) double as bounded
markers so one justified comment serves both passes.

Two checks run on the summaries: ``flow-cost-exceeds-declared`` (a
declared function's computed summary is worse than its decorator says,
reported with the witness call chain) and ``flow-undeclared`` (a
function reachable from a hot-path entry point is neither declared nor
constant-shaped, reported with the path from the entry).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.lint.astcheck import (
    RULE_CHARGE_IN_LOOP,
    RULE_NESTED_SIZE_LOOP,
    RULE_SIZE_LOOP,
    _is_constant_bounded,
    _LOOP_TYPES,
    _LoopNode,
    _SCOPE_TYPES,
)
from repro.lint.callgraph import CallGraph, CallSite, FunctionNode
from repro.lint.decorators import ComplexityClass
from repro.lint.engine import Lattice, LatticeValue, SummaryTable, Witness

RULE_COST_EXCEEDS = "flow-cost-exceeds-declared"
RULE_UNDECLARED = "flow-undeclared"
#: Suppression-only rule: names a loop or call site proven bounded by
#: reasoning the AST cannot do.  Never reported, only allowed.
RULE_BOUNDED = "flow-bounded"

#: Rules whose inline allow marks a loop bounded for the flow pass too:
#: one inline ``o1-size-loop`` (or sibling) allow comment is a single
#: justification serving both passes.
_BOUND_RULES = (
    RULE_BOUNDED,
    RULE_SIZE_LOOP,
    RULE_CHARGE_IN_LOOP,
    RULE_NESTED_SIZE_LOOP,
)


class Cost(LatticeValue):
    """Summary lattice; comparison is growth order."""

    CONSTANT = 0
    LOG = 1
    LINEAR = 2
    LINEARITHMIC = 3
    UNBOUNDED = 4

    @property
    def label(self) -> str:
        return _COST_LABEL[self]

    def scale(self, depth: int) -> "Cost":
        if depth == 0:
            return self
        if depth == 1 and self is Cost.CONSTANT:
            return Cost.LINEAR
        if depth == 1 and self is Cost.LOG:
            return Cost.LINEARITHMIC
        return Cost.UNBOUNDED


_COST_LABEL = {
    Cost.CONSTANT: "O(1)",
    Cost.LOG: "O(log n)",
    Cost.LINEAR: "O(n)",
    Cost.LINEARITHMIC: "O(n log n)",
    Cost.UNBOUNDED: "unbounded",
}

_DECLARED_COST = {
    ComplexityClass.CONSTANT: Cost.CONSTANT,
    ComplexityClass.LOG: Cost.LOG,
    ComplexityClass.LINEAR: Cost.LINEAR,
    ComplexityClass.LINEARITHMIC: Cost.LINEARITHMIC,
}


# ---------------------------------------------------------------------------
# Per-function shape: unbounded-loop depth for every loop and call site
# ---------------------------------------------------------------------------
@dataclass
class _Shape:
    loops: List[Tuple[LatticeValue, Witness]]
    call_depth: Dict[int, int]  # id(ast.Call) -> enclosing unbounded loops


def _loop_detail(loop: _LoopNode) -> str:
    if isinstance(loop, ast.While):
        try:
            test = ast.unparse(loop.test)
        except Exception:  # pragma: no cover
            test = "..."
        return f"while {test[:48]}"
    if isinstance(loop, (ast.For, ast.AsyncFor)):
        try:
            iterable = ast.unparse(loop.iter)
        except Exception:  # pragma: no cover
            iterable = "..."
        return f"loop over {iterable[:48]}"
    return "comprehension the AST cannot bound"


def _shape_of(graph: CallGraph, func: FunctionNode) -> _Shape:
    allowed = graph.allows["o1"][func.path]
    shape = _Shape(loops=[], call_depth={})

    def bounded(loop: _LoopNode) -> bool:
        if _is_constant_bounded(loop):
            return True
        lines = (loop.lineno, loop.lineno - 1, func.lineno)
        for rule in _BOUND_RULES:
            if allowed.allow(lines, rule):
                return True
        return False

    def visit(node: ast.AST, depth: int) -> None:
        if isinstance(node, _SCOPE_TYPES):
            return
        if isinstance(node, ast.Call):
            shape.call_depth[id(node)] = depth
        if isinstance(node, _LOOP_TYPES):
            inner = depth
            if not bounded(node):
                cost = Cost.LINEAR if depth == 0 else Cost.UNBOUNDED
                nested = " — nested in an unbounded loop" if depth else ""
                detail = f"{_loop_detail(node)} [{cost.label}{nested}]"
                shape.loops.append((cost, Witness("loop", node.lineno, detail)))
                inner = depth + 1
            for child in ast.iter_child_nodes(node):
                visit(child, inner)
            return
        for child in ast.iter_child_nodes(node):
            visit(child, depth)

    for stmt in func.node.body:
        visit(stmt, 0)
    return shape


class CostLattice(Lattice):
    """Simulated cost, cut at ``@o1`` / ``@complexity`` declarations."""

    namespace = "o1"
    excuse_rule = RULE_BOUNDED
    cycle_note = "cycle of undeclared functions"
    bottom = Cost.CONSTANT
    top = Cost.UNBOUNDED

    def __init__(self, graph: CallGraph) -> None:
        self.graph = graph
        self.shapes = {
            fid: _shape_of(graph, func) for fid, func in graph.functions.items()
        }

    def cut(self, fid: str) -> Optional[Cost]:
        node = self.graph.functions.get(fid)
        if node is None or node.declared is None:
            return None
        return _DECLARED_COST[node.declared]

    def cut_label(self, fid: str) -> str:
        return str(self.graph.functions[fid].declared)

    def own(self, fid: str) -> List[Tuple[LatticeValue, Witness]]:
        return self.shapes[fid].loops

    def depth(self, fid: str, site: CallSite) -> Optional[int]:
        return self.shapes[fid].call_depth.get(id(site.node), 0)


def cost_table(graph: CallGraph) -> SummaryTable:
    """Cost summaries for every function of ``graph``."""
    return SummaryTable(graph, CostLattice(graph))
