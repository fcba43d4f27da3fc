"""Rendering for Order(1) conformance results.

Two consumers: humans (``render_text`` — what ``repro-o1 lint`` prints)
and machines (``build_report`` / ``write_json`` — the
``lint_report.json`` artifact CI archives next to benchmark results, so
fitted exponents can be tracked across commits).  Every static section
renders through the same finding serializer and section builder.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from repro.lint.findings import Finding, Section
from repro.lint.ops import OperationFit

if TYPE_CHECKING:
    from repro.lint.allocfit import AllocFitResult
    from repro.lint.flow import LintRun

#: v2 added the ``flow`` section, v3 the ``alloc`` section; v4 renders
#: all three static sections alike, always (one finding shape, one
#: baseline routed by rule, flat per-section stats).
REPORT_VERSION = 4

#: First text line of each section, formatted with its stats.
_HEADLINES = {
    "lint": "o1 lint: {functions_checked} declared functions across "
    "{files_checked} files, {inline_suppressed} inline-suppressed",
    "flow": "o1 flow: {functions} functions across {files} files, "
    "{call_sites_resolved}/{call_sites_total} call sites resolved, "
    "{entries} hot-path entries",
    "alloc": "o1 alloc: {hot_reachable} functions in the hot closure of "
    "{entries} entries, {declared_allocfree} @allocfree + "
    "{declared_allocbound} @allocbound declared",
}


def _finding_dict(finding: Finding) -> Dict[str, object]:
    return {
        "function": finding.function,
        "rule": finding.rule,
        "path": finding.path,
        "line": finding.line,
        "message": finding.message,
        "chain": [
            {"function": hop.fid, "path": hop.path, "line": hop.line, "note": hop.note}
            for hop in finding.chain
        ],
    }


def _section_dict(section: Section) -> Dict[str, object]:
    assert section.outcome is not None
    return {
        **section.stats,
        "entries": list(section.entries),
        "findings": [_finding_dict(f) for f in section.outcome.new],
        "baseline_suppressed": [
            _finding_dict(f) for f in section.outcome.suppressed
        ],
        "stale_baseline_entries": [
            {"function": e.function, "rule": e.rule, "reason": e.reason}
            for e in section.outcome.stale
        ],
        "controls_verified": [
            {"function": f.function, "rule": f.rule}
            for f in section.controls_verified
        ],
        "stale_suppressions": [
            {"path": s.path, "line": s.line, "rules": list(s.rules)}
            for s in section.stale_suppressions
        ],
    }


def build_report(
    run: "LintRun",
    fits: Optional[Sequence[OperationFit]] = None,
    *,
    sizes: Optional[Sequence[int]] = None,
    allocfit_results: Optional[Sequence["AllocFitResult"]] = None,
) -> Dict[str, object]:
    """Assemble the machine-readable conformance report."""
    report: Dict[str, object] = {
        "version": REPORT_VERSION,
        "tool": "repro-o1 lint",
    }
    for section in run.sections:
        report[section.name] = _section_dict(section)
    if fits is not None:
        report["fit"] = {
            "sizes": list(sizes) if sizes is not None else None,
            "operations": [
                {
                    "name": f.operation.name,
                    "declared": str(f.operation.declared),
                    "fitted": str(f.fit.fitted),
                    "exponent": round(f.fit.exponent, 4),
                    "span": round(f.fit.span, 4)
                    if f.fit.span != float("inf")
                    else None,
                    "known_mismatch": f.operation.known_mismatch,
                    "ok": f.ok,
                    "note": f.operation.note,
                    "sizes": f.sizes,
                    "costs_ns": f.costs,
                }
                for f in fits
            ],
        }
    if allocfit_results is not None:
        report["allocfit"] = [
            {
                "name": r.name,
                "calls": r.calls,
                "net_bytes": r.net_bytes,
                "per_call_bytes": round(r.per_call_bytes, 4),
                "gc_delta": list(r.gc_delta),
                "expect_growth": r.expect_growth,
                "grew": r.grew,
                "uncertified": list(r.uncertified),
                "ok": r.ok,
                "note": r.note,
            }
            for r in allocfit_results
        ]
    return report


def write_json(path: Path, report: Dict[str, object]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")


def _section_lines(section: Section) -> List[str]:
    outcome = section.outcome
    assert outcome is not None
    stale = len(outcome.stale)
    headline = _HEADLINES[section.name].format(
        **section.stats, entries=len(section.entries)
    )
    tally = (
        f"  {len(outcome.new)} finding(s), "
        f"{len(outcome.suppressed)} baseline-suppressed, "
        f"{stale} stale baseline entr{'y' if stale == 1 else 'ies'}"
    )
    if section.controls:
        tally += (
            f", {len(section.controls_verified)}/{len(section.controls)} "
            "controls verified"
        )
    tally += f", {len(section.stale_suppressions)} stale suppression(s)"
    lines = [headline, tally]
    lines.extend(f"  FINDING {finding.format()}" for finding in outcome.new)
    lines.extend(
        f"  STALE baseline entry {entry.function} [{entry.rule}] — "
        "finding no longer occurs; remove it"
        for entry in outcome.stale
    )
    lines.extend(f"  STALE {s.format()}" for s in section.stale_suppressions)
    return lines


def render_text(
    run: "LintRun",
    fits: Optional[Sequence[OperationFit]] = None,
    *,
    allocfit_results: Optional[Sequence["AllocFitResult"]] = None,
) -> str:
    """Human-readable conformance summary."""
    lines: List[str] = []
    for section in run.sections:
        if lines:
            lines.append("")
        lines.extend(_section_lines(section))
    if allocfit_results is not None:
        lines.append("")
        lines.append(f"o1 allocfit: {len(allocfit_results)} op(s) cross-checked")
        lines.extend(f"  {result.format()}" for result in allocfit_results)
    if fits is not None:
        lines.append("")
        lines.append(f"o1 fit: {len(fits)} operation(s)")
        for f in fits:
            span = (
                f"{f.fit.span:.2f}x" if f.fit.span != float("inf") else "inf"
            )
            status = "ok" if f.ok else "FAIL"
            verdict = (
                f"declared {f.operation.declared} fitted {f.fit.fitted} "
                f"(slope {f.fit.exponent:+.2f}, span {span})"
            )
            if f.operation.known_mismatch:
                verdict += " [control]"
            lines.append(f"  {status:4s} {f.operation.name:32s} {verdict}")
    return "\n".join(lines)
