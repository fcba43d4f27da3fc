"""Findings, suppressions and the checked-in baseline, shared by every pass.

Every static pass reports the same :class:`Finding` shape, addressable by
its ``(function, rule)`` pair, and every unused inline allow comment is
one :class:`StaleSuppression`, whatever its namespace (``# o1:`` or
``# alloc:``).  The helpers below are the plumbing the passes share:
the per-file allow-comment maps, splitting planted controls from real
findings and collecting stale suppressions per namespace.

The baseline file (``src/repro/lint/o1_baseline.json``) records findings
that are understood and accepted — paths that are O(n) by design and
can't carry an inline allow (for instance because the whole function is
the finding, not one loop).  Each entry pins a ``(function, rule)`` pair
and must carry a human-readable ``reason``:

.. code-block:: json

    {
      "version": 1,
      "entries": [
        {
          "function": "repro.core.fom.manager.FirstOrderManager.grow_region",
          "rule": "o1-size-loop",
          "reason": "VMA-overlap scan is O(#vmas); ROADMAP open item."
        }
      ]
    }

Matching is exact on the dotted function name and the rule id.  Baseline
entries that no longer match any finding are reported as *stale* so the
file shrinks as paths get fixed — a baseline only ratchets down.  One
file serves every pass; some rules (the hot-closure gate, missing
controls) can never be baselined at all.
"""

from __future__ import annotations

import io
import json
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

DEFAULT_BASELINE = Path(__file__).with_name("o1_baseline.json")

#: Suppression namespaces and their comment spellings.  Same grammar,
#: separate vocabularies (``o1`` serves the cost passes, ``alloc``
#: AllocSan), so one pass's suppressions never mask the other's.
ALLOW_PATTERNS: Dict[str, "re.Pattern[str]"] = {
    "o1": re.compile(r"#\s*o1:\s*allow\(([^)]*)\)"),
    "alloc": re.compile(r"#\s*alloc:\s*allow\(([^)]*)\)"),
}


@dataclass(frozen=True)
class Hop:
    """One step of a call-chain diagnostic."""

    fid: str
    path: str
    line: int
    note: str

    def format(self) -> str:
        return f"{self.path}:{self.line}: {self.fid} {self.note}".rstrip()


@dataclass(frozen=True)
class Finding:
    """One lint finding, addressable by (function, rule)."""

    path: str
    line: int
    module: str
    qualname: str
    rule: str
    message: str
    chain: Tuple[Hop, ...] = ()

    @property
    def function(self) -> str:
        """Dotted name used by baseline entries."""
        return f"{self.module}.{self.qualname}"

    def format(self) -> str:
        head = f"{self.path}:{self.line}: [{self.rule}] {self.function}: {self.message}"
        if not self.chain:
            return head
        steps = "\n".join(f"      {hop.format()}" for hop in self.chain)
        return f"{head}\n{steps}"


@dataclass(frozen=True)
class StaleSuppression:
    """An inline allow comment that suppressed nothing."""

    path: str
    line: int
    rules: Tuple[str, ...]
    namespace: str = "o1"

    def format(self) -> str:
        listed = ", ".join(self.rules)
        return (
            f"{self.path}:{self.line}: stale suppression "
            f"# {self.namespace}: allow({listed})"
        )


class AllowMap:
    """Inline-suppression map for one file and namespace, with usage.

    ``allow()`` is the query the lint passes use: it returns True when
    one of the candidate lines carries an allow comment naming the rule
    (or ``*``), and records the matched line so unused comments can be
    reported as stale afterwards.  ``match()`` is the same lookup
    without the usage side effect, for callers that only commit to the
    suppression later (e.g. a ``flow-bounded`` call-site allow is *used*
    only if the callee was actually non-constant).

    ``rules_by_line`` comes from a plain line scan, so it also matches
    allow text inside docstrings; ``comment_lines`` holds only real
    comment tokens, and staleness is judged on those.
    """

    def __init__(
        self,
        rules_by_line: Dict[int, Set[str]],
        comment_lines: Dict[int, Set[str]],
    ) -> None:
        self.rules_by_line = rules_by_line
        self.comment_lines = comment_lines
        self.used: Set[int] = set()

    def match(self, lines: Iterable[int], rule: str) -> Optional[int]:
        """First candidate line allowing ``rule``, or None; no marking."""
        for lineno in lines:
            rules = self.rules_by_line.get(lineno)
            if rules is not None and (rule in rules or "*" in rules):
                return lineno
        return None

    def allow(self, lines: Iterable[int], rule: str) -> bool:
        """True (and mark the comment used) if any line allows ``rule``."""
        lineno = self.match(lines, rule)
        if lineno is None:
            return False
        self.used.add(lineno)
        return True

    def mark_used(self, lineno: int) -> None:
        self.used.add(lineno)


def _scan(
    texts: Iterable[Tuple[int, str]],
) -> Dict[str, Dict[int, Set[str]]]:
    """namespace -> line -> rules, over ``(line, text)`` pairs."""
    found: Dict[str, Dict[int, Set[str]]] = {ns: {} for ns in ALLOW_PATTERNS}
    for lineno, text in texts:
        if "allow(" not in text:
            continue
        for namespace, pattern in ALLOW_PATTERNS.items():
            match = pattern.search(text)
            if match is not None:
                rules = {p.strip() for p in match.group(1).split(",") if p.strip()}
                found[namespace][lineno] = rules or {"*"}
    return found


def allow_maps_for(source: str) -> Dict[str, AllowMap]:
    """One :class:`AllowMap` per namespace; ``source`` is tokenized once.

    Falls back to the line scan for comment lines if the file does not
    tokenize.
    """
    by_line = _scan(enumerate(source.splitlines(), start=1))
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        comments = _scan(
            (token.start[0], token.string)
            for token in tokens
            if token.type == tokenize.COMMENT
        )
    except (tokenize.TokenError, IndentationError, SyntaxError):
        comments = by_line
    return {
        namespace: AllowMap(by_line[namespace], comments[namespace])
        for namespace in ALLOW_PATTERNS
    }


def split_controls(
    findings: Iterable[Finding],
    controls: Sequence[Tuple[str, str]],
    missing_rule: str,
    checker: str,
) -> Tuple[List[Finding], List[Finding]]:
    """Separate planted-control findings from real ones.

    Returns ``(real, verified)``.  A control that did not fire becomes a
    ``missing_rule`` finding: the checker is broken, not the tree.
    """
    control_keys = set(controls)
    real: List[Finding] = []
    verified: List[Finding] = []
    for finding in findings:
        if (finding.function, finding.rule) in control_keys:
            verified.append(finding)
        else:
            real.append(finding)
    fired = {(f.function, f.rule) for f in verified}
    for function, rule in controls:
        if (function, rule) in fired:
            continue
        module, _, qualname = function.rpartition(".")
        real.append(
            Finding(
                # No source line to point at: "<flow>" / "<alloc>".
                path=f"<{missing_rule.partition('-')[0]}>",
                line=0,
                module=module,
                qualname=qualname,
                rule=missing_rule,
                message=(
                    f"planted control was not flagged for {rule}; {checker} "
                    "is not detecting what it is built to detect"
                ),
            )
        )
    return real, verified


def stale_suppressions(
    allow_maps: Dict[str, AllowMap], namespace: str
) -> List[StaleSuppression]:
    """Every allow comment of ``namespace`` that no pass consumed."""
    stale: List[StaleSuppression] = []
    for path in sorted(allow_maps):
        allow_map = allow_maps[path]
        for line in sorted(allow_map.comment_lines):
            if line in allow_map.used:
                continue
            stale.append(
                StaleSuppression(
                    path=path,
                    line=line,
                    rules=tuple(sorted(allow_map.comment_lines[line])),
                    namespace=namespace,
                )
            )
    return stale


@dataclass
class Section:
    """One pass's verdict on the tree: a section of the lint report."""

    name: str
    #: Every rule this pass reports; baseline entries are routed by it.
    rules: Tuple[str, ...]
    findings: List[Finding]
    stats: Dict[str, int]
    entries: List[str] = field(default_factory=list)
    controls: Sequence[Tuple[str, str]] = ()
    controls_verified: List[Finding] = field(default_factory=list)
    stale_suppressions: List[StaleSuppression] = field(default_factory=list)
    #: Set once the baseline has been applied to ``findings``.
    outcome: Optional["BaselineOutcome"] = None


# ---------------------------------------------------------------------------
# Baseline
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class BaselineEntry:
    """One accepted finding: a (function, rule) pair with a reason."""

    function: str
    rule: str
    reason: str

    @property
    def key(self) -> Tuple[str, str]:
        return (self.function, self.rule)


@dataclass
class BaselineOutcome:
    """Findings partitioned against the baseline."""

    new: List[Finding]
    suppressed: List[Finding]
    stale: List[BaselineEntry]


def load_baseline(
    path: Path,
    known_rules: Sequence[str],
    refused: Sequence[str] = (),
) -> List[BaselineEntry]:
    """Parse a baseline file; a missing file is an empty baseline.

    ``known_rules`` is the vocabulary the file may use; an entry naming
    a rule in ``refused`` is an error even though the rule is known.
    """
    if not path.exists():
        return []
    data = json.loads(path.read_text(encoding="utf-8"))
    version = data.get("version")
    if version != 1:
        raise ValueError(f"{path}: unsupported baseline version {version!r}")
    entries: List[BaselineEntry] = []
    for raw in data.get("entries", []):
        entry = BaselineEntry(
            function=str(raw["function"]),
            rule=str(raw["rule"]),
            reason=str(raw.get("reason", "")),
        )
        if entry.rule not in known_rules:
            raise ValueError(f"{path}: unknown rule {entry.rule!r}")
        if entry.rule in refused:
            raise ValueError(
                f"{path}: {entry.rule} findings cannot be baselined — "
                "that gate ships empty and stays empty"
            )
        if not entry.reason.strip():
            raise ValueError(
                f"{path}: baseline entry for {entry.function} needs a reason"
            )
        entries.append(entry)
    return entries


def apply_baseline(
    findings: Sequence[Finding], entries: Sequence[BaselineEntry]
) -> BaselineOutcome:
    """Split findings into new / baseline-suppressed, and spot stale entries."""
    by_key = {entry.key for entry in entries}
    new: List[Finding] = []
    suppressed: List[Finding] = []
    used: Set[Tuple[str, str]] = set()
    for finding in findings:
        key = (finding.function, finding.rule)
        if key in by_key:
            suppressed.append(finding)
            used.add(key)
        else:
            new.append(finding)
    stale = [entry for entry in entries if entry.key not in used]
    return BaselineOutcome(new=new, suppressed=suppressed, stale=stale)
