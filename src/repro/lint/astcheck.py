"""AST cost-shape linter: declared complexity vs. the shape of the code.

The linter reads every module of the parsed package (the call graph's
single parse, :mod:`repro.lint.callgraph`), finds functions decorated
``@o1`` / ``@complexity("...")`` (matched syntactically, so the checked
code is never imported), and flags constructs that contradict the
declared class:

========================  ==================================================
``o1-size-loop``          a loop that can scale with operand size in a
                          declared-O(1) function (or a loop over a
                          page/frame/extent collection in a declared-O(log n)
                          function)
``o1-charge-in-loop``     a cost charge (``clock.advance`` / ``bump`` /
                          ``_charge``) inside such a loop — the signature of
                          per-page cost creep
``o1-recursion``          self-recursion in a declared-O(1)/O(log n) function
``o1-nested-size-loop``   nested size-dependent loops in a declared-linear
                          function
========================  ==================================================

Loops the AST can prove constant-bounded (``range(4)``, iteration over a
literal tuple) never flag.  Everything else is a heuristic with two escape
hatches: an inline ``# o1: allow(rule) -- reason`` comment on the flagged
line, the line above it, or the ``def`` line, and the checked-in baseline
file (:mod:`repro.lint.findings`) for known-O(n)-by-design legacy paths.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence, Tuple, Union

from repro.lint.decorators import ComplexityClass
from repro.lint.findings import AllowMap, Finding, allow_maps_for

RULE_SIZE_LOOP = "o1-size-loop"
RULE_CHARGE_IN_LOOP = "o1-charge-in-loop"
RULE_RECURSION = "o1-recursion"
RULE_NESTED_SIZE_LOOP = "o1-nested-size-loop"

ALL_RULES = (
    RULE_SIZE_LOOP,
    RULE_CHARGE_IN_LOOP,
    RULE_RECURSION,
    RULE_NESTED_SIZE_LOOP,
)

#: Identifier fragments that suggest an iterable scales with operand size.
_SIZE_NAME_RE = re.compile(
    r"size|count|pages?|npages|frames?|ptes?|extents?|blocks?|bytes"
    r"|length|entries|items|windows|segments|runs?|slots|vmas|pieces",
    re.IGNORECASE,
)

#: Stricter subset: collections of per-page objects.  O(log n) functions
#: may loop over orders/levels/retries, but never over these.
_PAGE_COLLECTION_RE = re.compile(
    r"pages?|npages|frames?|ptes?|extents?|blocks?|entries|windows"
    r"|segments|vmas|pieces",
    re.IGNORECASE,
)

#: Method names that charge simulated cost; one of these inside a
#: size-dependent loop is per-operand cost by construction.
_CHARGE_ATTRS = frozenset({"advance", "bump", "_charge", "charge", "observe"})

_LoopNode = Union[
    ast.For,
    ast.AsyncFor,
    ast.While,
    ast.ListComp,
    ast.SetComp,
    ast.DictComp,
    ast.GeneratorExp,
]

_LOOP_TYPES = (
    ast.For,
    ast.AsyncFor,
    ast.While,
    ast.ListComp,
    ast.SetComp,
    ast.DictComp,
    ast.GeneratorExp,
)

_SCOPE_TYPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


@dataclass
class LintResult:
    """Outcome of the intra pass: findings plus coverage counts."""

    violations: List[Finding]
    inline_suppressed: int
    functions_checked: int


# ---------------------------------------------------------------------------
# Declaration matching (syntactic — mirrors repro.lint.decorators)
# ---------------------------------------------------------------------------
def _decorator_name(node: ast.expr) -> Optional[str]:
    target = node.func if isinstance(node, ast.Call) else node
    if isinstance(target, ast.Attribute):
        return target.attr
    if isinstance(target, ast.Name):
        return target.id
    return None


def declared_class_of(
    func: Union[ast.FunctionDef, ast.AsyncFunctionDef],
) -> Optional[ComplexityClass]:
    """The complexity class declared by the function's decorators, if any."""
    for decorator in func.decorator_list:
        name = _decorator_name(decorator)
        if name == "o1":
            return ComplexityClass.CONSTANT
        if name == "complexity" and isinstance(decorator, ast.Call):
            if decorator.args and isinstance(decorator.args[0], ast.Constant):
                value = decorator.args[0].value
                if isinstance(value, str):
                    try:
                        return ComplexityClass.parse(value)
                    except ValueError:
                        return None
    return None


# ---------------------------------------------------------------------------
# Loop shape heuristics
# ---------------------------------------------------------------------------
def _is_constant_expr(node: ast.expr) -> bool:
    if isinstance(node, ast.Constant):
        return isinstance(node.value, (int, float))
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return _is_constant_expr(node.operand)
    if isinstance(node, ast.BinOp):
        return _is_constant_expr(node.left) and _is_constant_expr(node.right)
    return False


def _loop_iterables(loop: _LoopNode) -> List[ast.expr]:
    if isinstance(loop, (ast.For, ast.AsyncFor)):
        return [loop.iter]
    if isinstance(loop, ast.While):
        return [loop.test]
    return [generator.iter for generator in loop.generators]


def _is_constant_bounded(loop: _LoopNode) -> bool:
    """True when the loop provably runs a compile-time-constant number of
    times: ``range(<literals>)``, or iteration over a literal collection."""
    if isinstance(loop, ast.While):
        return False
    for iterable in _loop_iterables(loop):
        if isinstance(iterable, ast.Call):
            name = _decorator_name(iterable)
            if name in {"range", "reversed", "enumerate"} and all(
                _is_constant_expr(arg)
                or (isinstance(arg, (ast.Tuple, ast.List)) and not arg.elts)
                for arg in iterable.args
            ):
                continue
            return False
        if isinstance(iterable, (ast.Tuple, ast.List, ast.Set)):
            if all(not isinstance(elt, ast.Starred) for elt in iterable.elts):
                continue
            return False
        return False
    return True


def _names_in(node: ast.AST) -> List[str]:
    names: List[str] = []
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            names.append(child.id)
        elif isinstance(child, ast.Attribute):
            names.append(child.attr)
    return names


def _matches(loop: _LoopNode, pattern: "re.Pattern[str]") -> bool:
    for iterable in _loop_iterables(loop):
        for name in _names_in(iterable):
            if pattern.search(name):
                return True
    return False


def _contains_charge(loop: _LoopNode) -> bool:
    for child in ast.walk(loop):  # nested defs are rare inside loops; accept
        if isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute):
            if child.func.attr in _CHARGE_ATTRS:
                return True
    return False


# ---------------------------------------------------------------------------
# Per-function analysis
# ---------------------------------------------------------------------------
class _FunctionChecker:
    """Applies the class-specific rules to one declared function."""

    def __init__(
        self,
        func: Union[ast.FunctionDef, ast.AsyncFunctionDef],
        declared: ComplexityClass,
        module: str,
        qualname: str,
        path: str,
        allowed: AllowMap,
    ) -> None:
        self._func = func
        self._declared = declared
        self._module = module
        self._qualname = qualname
        self._path = path
        self._allowed = allowed
        self.violations: List[Finding] = []
        self.suppressed = 0

    def run(self) -> None:
        self._check_loops(self._func.body, depth=0, flagged_ancestor=False)
        if self._declared in (ComplexityClass.CONSTANT, ComplexityClass.LOG):
            self._check_recursion()

    # -- loops ---------------------------------------------------------
    def _check_loops(
        self, body: Sequence[ast.stmt], depth: int, flagged_ancestor: bool
    ) -> None:
        for stmt in body:
            self._visit(stmt, depth, flagged_ancestor)

    def _visit(self, node: ast.AST, depth: int, flagged_ancestor: bool) -> None:
        if isinstance(node, _SCOPE_TYPES):
            return  # nested defs are separate declarations (or none)
        if isinstance(node, _LOOP_TYPES):
            flagged = False
            if not flagged_ancestor and not _is_constant_bounded(node):
                flagged = self._judge_loop(node, depth)
            for child in ast.iter_child_nodes(node):
                self._visit(child, depth + 1, flagged_ancestor or flagged)
            return
        for child in ast.iter_child_nodes(node):
            self._visit(child, depth, flagged_ancestor)

    def _judge_loop(self, loop: _LoopNode, depth: int) -> bool:
        declared = self._declared
        if declared is ComplexityClass.CONSTANT:
            if _contains_charge(loop):
                return self._flag(
                    loop,
                    RULE_CHARGE_IN_LOOP,
                    "cost charged inside a loop the AST cannot bound",
                )
            return self._flag(
                loop, RULE_SIZE_LOOP, "loop the AST cannot bound to a constant"
            )
        if declared is ComplexityClass.LOG:
            if _matches(loop, _PAGE_COLLECTION_RE):
                rule = (
                    RULE_CHARGE_IN_LOOP
                    if _contains_charge(loop)
                    else RULE_SIZE_LOOP
                )
                return self._flag(
                    loop, rule, "loop over a page/frame/extent collection"
                )
            return False
        # LINEAR / LINEARITHMIC: one size loop is the contract; flag nests.
        if depth >= 1 and _matches(loop, _SIZE_NAME_RE):
            return self._flag(
                loop,
                RULE_NESTED_SIZE_LOOP,
                "size-dependent loop nested inside another loop",
            )
        return False

    def _flag(self, node: ast.AST, rule: str, message: str) -> bool:
        line = getattr(node, "lineno", self._func.lineno)
        if self._allowed.allow((line, line - 1, self._func.lineno), rule):
            self.suppressed += 1
            return False
        self.violations.append(
            Finding(
                path=self._path,
                line=line,
                module=self._module,
                qualname=self._qualname,
                rule=rule,
                message=f"{message} (declared {self._declared})",
            )
        )
        return True

    # -- recursion -----------------------------------------------------
    def _check_recursion(self) -> None:
        name = self._func.name
        stack: List[ast.AST] = list(ast.iter_child_nodes(self._func))
        while stack:
            node = stack.pop()
            if isinstance(node, _SCOPE_TYPES):
                continue  # nested defs are separate declarations
            stack.extend(ast.iter_child_nodes(node))
            if not isinstance(node, ast.Call):
                continue
            callee = node.func
            is_self_call = (
                isinstance(callee, ast.Name) and callee.id == name
            ) or (
                isinstance(callee, ast.Attribute)
                and callee.attr == name
                and isinstance(callee.value, ast.Name)
                and callee.value.id in ("self", "cls")
            )
            if is_self_call:
                self._flag(node, RULE_RECURSION, f"recursive call to {name}()")


# ---------------------------------------------------------------------------
# Module walking
# ---------------------------------------------------------------------------
def lint_module(
    tree: ast.Module, module: str, path: str, allowed: AllowMap
) -> LintResult:
    """Lint one parsed module, marking the allows it uses in ``allowed``."""
    violations: List[Finding] = []
    suppressed = 0
    functions = 0

    def walk(node: ast.AST, scope: Tuple[str, ...]) -> None:
        nonlocal suppressed, functions
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                declared = declared_class_of(child)
                if declared is not None:
                    functions += 1
                    checker = _FunctionChecker(
                        func=child,
                        declared=declared,
                        module=module,
                        qualname=".".join(scope + (child.name,)),
                        path=path,
                        allowed=allowed,
                    )
                    checker.run()
                    violations.extend(checker.violations)
                    suppressed += checker.suppressed
                walk(child, scope + (child.name,))
            elif isinstance(child, ast.ClassDef):
                walk(child, scope + (child.name,))
            else:
                walk(child, scope)

    walk(tree, ())
    return LintResult(
        violations=violations,
        inline_suppressed=suppressed,
        functions_checked=functions,
    )


def lint_source(source: str, module: str, path: str = "<string>") -> LintResult:
    """Parse and lint one module's source text."""
    tree = ast.parse(source, filename=path)
    return lint_module(tree, module, path, allow_maps_for(source)["o1"])


def module_name_for(path: Path, root: Path, package: str) -> str:
    """Dotted module name for ``path`` under package root ``root``."""
    relative = path.relative_to(root).with_suffix("")
    parts = list(relative.parts)
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join([package, *parts]) if parts else package
