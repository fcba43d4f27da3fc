"""`repro.lint.flow` — the whole-package static lint run.

:func:`run_lint` is everything ``repro-o1 lint`` checks statically.  It
parses the package once (:mod:`repro.lint.callgraph`) and runs every
static pass over that one parse, each producing one report
:class:`~repro.lint.findings.Section`:

``lint``
    the intraprocedural cost-shape rules (:mod:`repro.lint.astcheck`).
``flow``
    the interprocedural cost pass (:mod:`repro.lint.summaries` on the
    shared engine, :mod:`repro.lint.engine`) and the must-call protocols
    (:mod:`repro.lint.protocols`):

    ``flow-cost-exceeds-declared``
        a declared function's transitive summary is worse than its
        decorator, with the witness call chain down to the loop.
    ``flow-undeclared``
        a function reachable from a ``Syscalls.*`` / ``Kernel.*``
        hot-path entry point is neither declared nor constant-shaped.
    ``flow-stale-translation``
        a syscall-boundary entry can return with a page-table mutation
        no invalidation ever covers.
    ``flow-persist-outside-txn``
        a journal apply can execute with no commit anywhere on the path
        from its protocol root.
    ``flow-control-missing``
        a planted control (:mod:`repro.lint.controls`) was *not* flagged
        — the pass itself is broken.
``alloc``
    AllocSan (:mod:`repro.lint.alloc`), the same engine over the
    allocation lattice.

Findings ratchet through one baseline file (``o1_baseline.json``,
ships empty; hot-closure and missing-control findings can never be
baselined).  Every inline allow comment that no pass consumed is a
stale suppression, per namespace: ``# o1:`` ones in the ``flow``
section, ``# alloc:`` ones in the ``alloc`` section.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, List, Tuple

from repro.lint.alloc import (
    ALLOC_RULES,
    RULE_ALLOC_CONTROL_MISSING,
    RULE_ALLOC_HOT,
    alloc_section,
)
from repro.lint.astcheck import ALL_RULES, lint_module
from repro.lint.callgraph import CallGraph, build_callgraph
from repro.lint.engine import coverage_findings, declared_findings
from repro.lint.findings import (
    DEFAULT_BASELINE,
    Section,
    apply_baseline,
    load_baseline,
    split_controls,
    stale_suppressions,
)
from repro.lint.protocols import (
    RULE_FLOW_PERSIST,
    RULE_STALE_TRANSLATION,
    compute_protocols,
    protocol_findings,
)
from repro.lint.summaries import RULE_COST_EXCEEDS, RULE_UNDECLARED, cost_table

RULE_CONTROL_MISSING = "flow-control-missing"

#: Reportable flow rules (``flow-bounded`` is suppression-only).
FLOW_RULES = (
    RULE_COST_EXCEEDS,
    RULE_UNDECLARED,
    RULE_STALE_TRANSLATION,
    RULE_FLOW_PERSIST,
    RULE_CONTROL_MISSING,
)

#: Every rule a baseline entry may name, and those it never may.
BASELINE_RULES = (*ALL_RULES, *FLOW_RULES, *ALLOC_RULES)
UNBASELINABLE_RULES = (RULE_ALLOC_HOT, RULE_ALLOC_CONTROL_MISSING, RULE_CONTROL_MISSING)

#: Planted controls the pass must flag on every run (function, rule).
CONTROLS: Tuple[Tuple[str, str], ...] = (
    ("repro.lint.controls.control_undeclared_callee_loop", RULE_COST_EXCEEDS),
    ("repro.lint.controls.control_persist_commit_elsewhere", RULE_FLOW_PERSIST),
)

#: ``Kernel`` methods treated as hot-path entry points alongside every
#: public ``Syscalls`` method.
_KERNEL_ENTRY_NAMES = frozenset(
    {"spawn", "fork", "access", "access_range", "crash"}
)


def entry_points(graph: CallGraph) -> List[str]:
    """Hot-path entries: public ``Syscalls`` methods plus the ``Kernel``
    operations user programs hit on every access/fork/crash."""
    entries: List[str] = []
    for klass in graph.classes.values():
        if klass.name == "Syscalls":
            entries.extend(
                fid
                for name, fid in sorted(klass.methods.items())
                if not name.startswith("_")
            )
        elif klass.name == "Kernel":
            entries.extend(
                fid
                for name, fid in sorted(klass.methods.items())
                if name in _KERNEL_ENTRY_NAMES
            )
    return entries


def lint_section(graph: CallGraph) -> Section:
    """The intraprocedural rules over every parsed module."""
    section = Section(
        name="lint",
        rules=ALL_RULES,
        findings=[],
        stats={
            "files_checked": graph.files_parsed,
            "functions_checked": 0,
            "inline_suppressed": 0,
        },
    )
    for info in graph.modules.values():
        allowed = graph.allows["o1"][info.path]
        result = lint_module(info.tree, info.module, info.path, allowed)
        section.findings.extend(result.violations)
        section.stats["functions_checked"] += result.functions_checked
        section.stats["inline_suppressed"] += result.inline_suppressed
    return section


def flow_section(graph: CallGraph) -> Section:
    """Cost summaries, hot-path declaration coverage and the protocols."""
    table = cost_table(graph)
    entries = entry_points(graph)

    def every_edge(fid: str) -> Iterator[Tuple[str, int]]:
        for site in graph.calls.get(fid, ()):
            for target in site.targets:
                yield target, site.line

    coverage, _ = coverage_findings(
        table,
        entries,
        every_edge,
        RULE_UNDECLARED,
        "reachable from hot-path entry {entry} with {label} shape but no "
        "@o1/@complexity declaration",
    )
    findings, verified = split_controls(
        declared_findings(table, RULE_COST_EXCEEDS, noun=" work")
        + coverage
        + protocol_findings(graph, compute_protocols(graph), entries),
        CONTROLS,
        RULE_CONTROL_MISSING,
        "the flow pass",
    )
    return Section(
        name="flow",
        rules=FLOW_RULES,
        findings=findings,
        stats={
            "files": graph.files_parsed,
            "functions": len(graph.functions),
            "call_sites_total": graph.sites_total,
            "call_sites_resolved": graph.sites_resolved,
        },
        entries=entries,
        controls=CONTROLS,
        controls_verified=verified,
    )


@dataclass
class LintRun:
    """Every static section of one ``repro-o1 lint`` run."""

    graph: CallGraph
    sections: List[Section]

    def section(self, name: str) -> Section:
        return next(s for s in self.sections if s.name == name)

    @property
    def failed(self) -> bool:
        """New findings, stale baseline entries or stale suppressions."""
        return any(
            s.outcome is None
            or s.outcome.new
            or s.outcome.stale
            or s.stale_suppressions
            for s in self.sections
        )


def run_lint(
    root: Path, package: str = "repro", baseline: Path = DEFAULT_BASELINE
) -> LintRun:
    """Parse the package at ``root`` once and run every static pass."""
    graph = build_callgraph(root, package)
    sections = [lint_section(graph), flow_section(graph), alloc_section(graph)]
    # Every pass has consumed its allows by now; what is left is stale.
    sections[1].stale_suppressions = stale_suppressions(graph.allows["o1"], "o1")
    sections[2].stale_suppressions = stale_suppressions(
        graph.allows["alloc"], "alloc"
    )
    entries = load_baseline(baseline, BASELINE_RULES, UNBASELINABLE_RULES)
    for section in sections:
        section.findings.sort(key=lambda f: (f.path, f.line, f.rule, f.function))
        section.outcome = apply_baseline(
            section.findings, [e for e in entries if e.rule in section.rules]
        )
    return LintRun(graph=graph, sections=sections)
