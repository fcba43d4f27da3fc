"""Interprocedural O(1) conformance: repro.lint.flow and friends.

Covers the call-graph builder, the transitive cost summaries, the
must-call protocol checks (persist ordering ported case by case from the
retired intraprocedural rule), the planted controls, stale-suppression
detection, the flow section of ``lint_report.json``, the baseline
round-trip — and the two intraprocedural false negatives this pass
exists to close, pinned as regression tests.
"""

import json
import re
import shutil
import textwrap
from pathlib import Path

import pytest

from repro.lint.callgraph import build_callgraph
from repro.lint.findings import load_baseline
from repro.lint.flow import BASELINE_RULES, CONTROLS, run_lint
from repro.lint.protocols import (
    RULE_FLOW_PERSIST,
    RULE_STALE_TRANSLATION,
    compute_protocols,
)
from repro.lint.report import REPORT_VERSION, build_report, render_text
from repro.lint.summaries import (
    RULE_COST_EXCEEDS,
    RULE_UNDECLARED,
    Cost,
    cost_table,
)

REPRO_ROOT = Path(__file__).resolve().parent.parent / "src" / "repro"


def make_pkg(tmp_path: Path, files: dict) -> Path:
    """Materialise a throwaway package for the analyses to chew on."""
    pkg = tmp_path / "pkg"
    pkg.mkdir(exist_ok=True)
    (pkg / "__init__.py").write_text("")
    for name, source in files.items():
        path = pkg / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    return pkg


def flow(pkg: Path):
    return run_lint(pkg, package="pkg").section("flow")


# ---------------------------------------------------------------------------
# Call graph
# ---------------------------------------------------------------------------
class TestCallGraph:
    def test_module_function_resolution(self, tmp_path):
        pkg = make_pkg(tmp_path, {"mod.py": """
            def caller(x):
                return helper(x)

            def helper(x):
                return x
        """})
        graph = build_callgraph(pkg, package="pkg")
        assert "pkg.mod.helper" in list(graph.callees("pkg.mod.caller"))

    def test_self_method_resolution(self, tmp_path):
        pkg = make_pkg(tmp_path, {"mod.py": """
            class Thing:
                def outer(self):
                    return self.inner()

                def inner(self):
                    return 1
        """})
        graph = build_callgraph(pkg, package="pkg")
        assert "pkg.mod.Thing.inner" in list(
            graph.callees("pkg.mod.Thing.outer")
        )

    def test_annotated_attribute_dispatch(self, tmp_path):
        pkg = make_pkg(tmp_path, {"mod.py": """
            class Dep:
                def run(self):
                    return 1

            class Owner:
                def __init__(self, dep: Dep) -> None:
                    self._dep = dep

                def go(self):
                    return self._dep.run()
        """})
        graph = build_callgraph(pkg, package="pkg")
        assert "pkg.mod.Dep.run" in list(graph.callees("pkg.mod.Owner.go"))

    def test_cross_module_resolution(self, tmp_path):
        pkg = make_pkg(tmp_path, {
            "a.py": """
                from pkg.b import worker

                def caller(x):
                    return worker(x)
            """,
            "b.py": """
                def worker(x):
                    return x
            """,
        })
        graph = build_callgraph(pkg, package="pkg")
        assert "pkg.b.worker" in list(graph.callees("pkg.a.caller"))

    def test_defaulting_ifexp_in_init_resolves(self, tmp_path):
        """``self._dep = dep if dep is not None else Dep()`` — both arms
        agree on the type, so the attribute is typed."""
        pkg = make_pkg(tmp_path, {"mod.py": """
            class Dep:
                def run(self):
                    return 1

            class Owner:
                def __init__(self, dep=None):
                    self._dep = dep if dep is not None else Dep()

                def go(self):
                    return self._dep.run()
        """})
        graph = build_callgraph(pkg, package="pkg")
        assert "pkg.mod.Dep.run" in list(graph.callees("pkg.mod.Owner.go"))

    def test_annotated_ifexp_arm_resolves(self, tmp_path):
        pkg = make_pkg(tmp_path, {"mod.py": """
            class Dep:
                def run(self):
                    return 1

            class Owner:
                def __init__(self, dep: Dep, alt: Dep) -> None:
                    self._dep = alt if alt is not None else dep

                def go(self):
                    return self._dep.run()
        """})
        graph = build_callgraph(pkg, package="pkg")
        assert "pkg.mod.Dep.run" in list(graph.callees("pkg.mod.Owner.go"))

    def test_module_level_singleton_resolves(self, tmp_path):
        pkg = make_pkg(tmp_path, {"mod.py": """
            class Dep:
                def run(self):
                    return 1

            SINGLETON = Dep()

            def go():
                return SINGLETON.run()
        """})
        graph = build_callgraph(pkg, package="pkg")
        assert graph.module_globals["pkg.mod"]["SINGLETON"] == "pkg.mod.Dep"
        assert "pkg.mod.Dep.run" in list(graph.callees("pkg.mod.go"))

    def test_dot_export_mentions_edges(self, tmp_path):
        pkg = make_pkg(tmp_path, {"mod.py": """
            def caller(x):
                return helper(x)

            def helper(x):
                return x
        """})
        graph = build_callgraph(pkg, package="pkg")
        dot = graph.to_dot()
        assert dot.startswith("digraph")
        assert "pkg.mod.caller" in dot
        assert "->" in dot


# ---------------------------------------------------------------------------
# Cost summaries
# ---------------------------------------------------------------------------
class TestSummaries:
    def test_linear_helper_propagates_to_o1_caller(self, tmp_path):
        pkg = make_pkg(tmp_path, {"mod.py": """
            from repro.lint import o1

            @o1
            def entry(pages):
                return helper(pages)

            def helper(pages):
                total = 0
                for page in pages:
                    total += page
                return total
        """})
        graph = build_callgraph(pkg, package="pkg")
        table = cost_table(graph)
        assert table.summaries["pkg.mod.helper"].value is Cost.LINEAR
        assert table.summaries["pkg.mod.entry"].value is Cost.LINEAR
        chain = table.witness_chain("pkg.mod.entry")
        assert chain, "exceeding summary must carry a witness chain"

    def test_constant_callee_in_loop_scales_to_linear(self, tmp_path):
        pkg = make_pkg(tmp_path, {"mod.py": """
            from repro.lint import o1

            @o1
            def tick():
                return 1

            def walk(pages):
                for page in pages:
                    tick()
        """})
        graph = build_callgraph(pkg, package="pkg")
        table = cost_table(graph)
        assert table.summaries["pkg.mod.walk"].value is Cost.LINEAR

    def test_log_callee_in_loop_scales_to_linearithmic(self, tmp_path):
        pkg = make_pkg(tmp_path, {"mod.py": """
            from repro.lint import complexity

            @complexity("log n")
            def probe(x):
                return x

            def walk(pages):
                for page in pages:
                    probe(page)
        """})
        graph = build_callgraph(pkg, package="pkg")
        table = cost_table(graph)
        assert table.summaries["pkg.mod.walk"].value is Cost.LINEARITHMIC

    def test_mutual_recursion_is_unbounded(self, tmp_path):
        pkg = make_pkg(tmp_path, {"mod.py": """
            def ping(x):
                return pong(x)

            def pong(x):
                return ping(x)
        """})
        graph = build_callgraph(pkg, package="pkg")
        table = cost_table(graph)
        assert table.summaries["pkg.mod.ping"].value is Cost.UNBOUNDED
        assert table.summaries["pkg.mod.pong"].value is Cost.UNBOUNDED


# ---------------------------------------------------------------------------
# Regression: the intraprocedural false negatives this pass closes
# ---------------------------------------------------------------------------
class TestIntraFalseNegatives:
    def test_loop_in_undeclared_callee(self, tmp_path):
        """Intra sees a single call in the @o1 body and stays silent; the
        flow pass walks into the helper and finds the loop."""
        pkg = make_pkg(tmp_path, {"mod.py": """
            from repro.lint import o1

            @o1
            def entry(pages):
                return helper(pages)

            def helper(pages):
                total = 0
                for page in pages:
                    total += page
                return total
        """})
        run = run_lint(pkg, package="pkg")
        assert run.section("lint").findings == []
        result = run.section("flow")
        findings = [f for f in result.findings if f.rule == RULE_COST_EXCEEDS]
        assert [f.function for f in findings] == ["pkg.mod.entry"]
        assert any("helper" in hop.fid for hop in findings[0].chain)

    def test_commit_in_helper_persist(self, tmp_path):
        """The helper alone looks like "the caller commits" — and no
        caller on the path ever commits."""
        pkg = make_pkg(tmp_path, {"mod.py": """
            def root_op(fs):
                _helper_apply(fs)

            def _helper_apply(fs):
                fs._apply_alloc(None)
        """})
        result = flow(pkg)
        findings = [f for f in result.findings if f.rule == RULE_FLOW_PERSIST]
        assert any(f.function == "pkg.mod.root_op" for f in findings)

    def test_commit_on_path_stays_clean(self, tmp_path):
        pkg = make_pkg(tmp_path, {"mod.py": """
            def root_op(fs):
                fs._journal_commit()
                _helper_apply(fs)

            def _helper_apply(fs):
                fs._apply_alloc(None)
        """})
        result = flow(pkg)
        assert [f for f in result.findings if f.rule == RULE_FLOW_PERSIST] == []


# ---------------------------------------------------------------------------
# Must-call protocol: journal commit before apply
# ---------------------------------------------------------------------------
def persist_findings(tmp_path, source: str):
    pkg = make_pkg(tmp_path, {"mod.py": source})
    result = flow(pkg)
    return result, [f for f in result.findings if f.rule == RULE_FLOW_PERSIST]


class TestPersistOutsideTxn:
    def test_apply_without_commit_flags(self, tmp_path):
        _, findings = persist_findings(tmp_path, """
            class Fs:
                def sneaky(self, record):
                    self._apply_alloc(record)
        """)
        assert [f.function for f in findings] == ["pkg.mod.Fs.sneaky"]
        assert "_journal_commit" in findings[0].message
        assert "_apply_alloc" in findings[0].chain[-1].note

    def test_commit_before_apply_passes(self, tmp_path):
        _, findings = persist_findings(tmp_path, """
            class Fs:
                def txn(self, record):
                    self._journal_begin(record)
                    self._journal_commit(record)
                    self._apply_shrink(record)
        """)
        assert findings == []

    def test_commit_after_apply_still_flags(self, tmp_path):
        _, findings = persist_findings(tmp_path, """
            class Fs:
                def backwards(self, record):
                    self._apply_free(record)
                    self._journal_commit(record)
        """)
        assert [f.function for f in findings] == ["pkg.mod.Fs.backwards"]

    def test_rule_fires_in_undeclared_functions(self, tmp_path):
        # No @o1/@complexity declaration is needed: every function is
        # inside the persist contract.
        _, findings = persist_findings(tmp_path, """
            def helper(fs, record):
                fs._apply_alloc(record)
        """)
        assert [f.function for f in findings] == ["pkg.mod.helper"]

    def test_apply_implementations_are_exempt(self, tmp_path):
        # An apply built on another apply is the primitive itself.
        _, findings = persist_findings(tmp_path, """
            class Fs:
                def _apply_alloc(self, record):
                    self._apply_shrink(record)
        """)
        assert findings == []

    def test_allow_comment_suppresses(self, tmp_path):
        result, findings = persist_findings(tmp_path, """
            class Fs:
                def crash_redo(self, record):
                    # o1: allow(flow-persist-outside-txn) -- committed redo
                    self._apply_free(record)
        """)
        assert findings == []
        assert result.stale_suppressions == []

    def test_nested_def_is_its_own_scope(self, tmp_path):
        # The inner function applies without committing; the outer
        # commit must not excuse it.
        _, findings = persist_findings(tmp_path, """
            class Fs:
                def outer(self, record):
                    self._journal_commit(record)
                    def inner():
                        self._apply_alloc(record)
                    return inner
        """)
        assert [f.function for f in findings] == ["pkg.mod.Fs.outer.inner"]


# ---------------------------------------------------------------------------
# Must-call protocol: page-table mutation vs TLB invalidation
# ---------------------------------------------------------------------------
_SYSCALL_FIXTURE = """
    class PageTable:
        def unmap(self, va):
            return va

    class Tlb:
        def flush_all(self):
            return 0

    class Syscalls:
        def __init__(self, pt: PageTable, tlb: Tlb) -> None:
            self._pt = pt
            self._tlb = tlb

        def munmap(self, va):
            self._pt.unmap(va)
            {epilogue}
"""


class TestStaleTranslationProtocol:
    def test_mutation_without_invalidation_flagged(self, tmp_path):
        pkg = make_pkg(tmp_path, {
            "mod.py": _SYSCALL_FIXTURE.format(epilogue="return va"),
        })
        result = flow(pkg)
        findings = [
            f for f in result.findings if f.rule == RULE_STALE_TRANSLATION
        ]
        assert [f.function for f in findings] == ["pkg.mod.Syscalls.munmap"]
        assert findings[0].chain, "protocol finding must show the mutation"

    def test_mutation_with_invalidation_clean(self, tmp_path):
        pkg = make_pkg(tmp_path, {
            "mod.py": _SYSCALL_FIXTURE.format(
                epilogue="self._tlb.flush_all()\n            return va"
            ),
        })
        result = flow(pkg)
        assert [
            f for f in result.findings if f.rule == RULE_STALE_TRANSLATION
        ] == []

    def test_early_return_carries_the_pending_mutation(self, tmp_path):
        """A path that returns before the invalidation still leaks."""
        pkg = make_pkg(tmp_path, {"mod.py": """
            class PageTable:
                def unmap(self, va):
                    return va

            class Tlb:
                def flush_all(self):
                    return 0

            class Syscalls:
                def __init__(self, pt: PageTable, tlb: Tlb) -> None:
                    self._pt = pt
                    self._tlb = tlb

                def munmap(self, va, fast):
                    if fast:
                        self._pt.unmap(va)
                        return va
                    self._tlb.flush_all()
                    return va
        """})
        result = flow(pkg)
        assert [
            f.function for f in result.findings
            if f.rule == RULE_STALE_TRANSLATION
        ] == ["pkg.mod.Syscalls.munmap"]

    def test_protocol_effects_computed_per_function(self, tmp_path):
        pkg = make_pkg(tmp_path, {
            "mod.py": _SYSCALL_FIXTURE.format(epilogue="return va"),
        })
        graph = build_callgraph(pkg, package="pkg")
        protocols = compute_protocols(graph)
        effect = protocols.tlb["pkg.mod.Syscalls.munmap"]
        assert effect.gen and not effect.kill


# ---------------------------------------------------------------------------
# The real tree: clean gate, verified controls, mutant detection
# ---------------------------------------------------------------------------
class TestRealTree:
    @pytest.fixture(scope="class")
    def real_flow(self, real_lint_run):
        return real_lint_run, real_lint_run.section("flow")

    def test_tree_is_clean_with_empty_baseline(self, real_flow):
        run, result = real_flow
        assert run.section("lint").findings == []
        assert result.findings == []

    def test_no_stale_suppressions(self, real_flow):
        _, result = real_flow
        assert result.stale_suppressions == []

    def test_planted_controls_fire_with_chains(self, real_flow):
        _, result = real_flow
        fired = {(f.function, f.rule) for f in result.controls_verified}
        assert fired == set(CONTROLS)
        for finding in result.controls_verified:
            assert finding.chain, (
                f"control {finding.function} must carry its call chain"
            )

    def test_resolution_ratio_floor(self, real_flow):
        """Pin the call-site resolution ratio so regressions in the
        resolver (attribute typing, module globals, IfExp arms) show up
        as a number going down, not as silently thinner coverage.

        Re-pinned from 0.39 when repro.qos landed: its ~450 new sites
        skew toward builtins and container methods (deliberately
        unresolvable), measuring 0.3874 with the resolver unchanged.
        """
        _, result = real_flow
        resolved = result.stats["call_sites_resolved"]
        total = result.stats["call_sites_total"]
        ratio = resolved / total
        assert ratio >= 0.385, (
            f"resolution ratio fell to {ratio:.4f} ({resolved}/{total})"
        )

    def test_cpu_tlb_attributes_are_typed(self, real_flow):
        """The hot-path certificate depends on these exact attribute
        types: Cpu._translate's tlb calls must resolve."""
        run, _ = real_flow
        graph = run.graph
        cpu = next(
            cid for cid in graph.classes if cid == "repro.hw.cpu.Cpu"
        )
        attrs = graph.classes[cpu].attr_types
        assert attrs.get("_tlb") == "repro.hw.tlb.Tlb"
        assert attrs.get("_rtlb") == "repro.hw.rtlb.RangeTlb"

    def test_entries_cover_syscalls_and_kernel(self, real_flow):
        _, result = real_flow
        names = set(result.entries)
        assert "repro.kernel.kernel.Kernel.fork" in names
        assert "repro.kernel.syscalls.Syscalls.mmap" in names

    def test_munmap_without_invalidation_caught(self, tmp_path):
        """Mutant: drop the TLB shootdown from AddressSpace._munmap and
        the stale-translation protocol must go red statically."""
        mutant_root = tmp_path / "repro"
        shutil.copytree(REPRO_ROOT, mutant_root)
        target = mutant_root / "vm" / "addrspace.py"
        source = target.read_text()
        mutated = re.sub(
            r"\n        if self\.cpu is not None:\n"
            r"            self\.cpu\.invalidate_space_range\("
            r"addr, length, asid=self\._asid\)\n",
            "\n",
            source,
        )
        assert mutated != source, "mutation target not found"
        target.write_text(mutated)
        result = run_lint(mutant_root).section("flow")
        stale = [
            f for f in result.findings if f.rule == RULE_STALE_TRANSLATION
        ]
        assert any(
            f.function == "repro.kernel.syscalls.Syscalls.munmap"
            for f in stale
        ), f"expected Syscalls.munmap flagged, got {[f.function for f in stale]}"


# ---------------------------------------------------------------------------
# Stale-suppression detection
# ---------------------------------------------------------------------------
class TestStaleSuppressions:
    def test_dead_allow_reported(self, tmp_path):
        pkg = make_pkg(tmp_path, {"mod.py": """
            from repro.lint import o1

            @o1
            def fine():
                # o1: allow(o1-size-loop) -- obsolete: the loop is long gone
                return 1
        """})
        result = flow(pkg)
        assert len(result.stale_suppressions) == 1
        stale = result.stale_suppressions[0]
        assert stale.rules == ("o1-size-loop",)
        assert stale.path.endswith("mod.py")

    def test_used_allow_not_reported(self, tmp_path):
        pkg = make_pkg(tmp_path, {"mod.py": """
            from repro.lint import o1

            @o1
            def clamp(entries):
                total = 0
                # o1: allow(o1-size-loop) -- bounded table by construction
                for entry in entries:
                    total += entry
                return total
        """})
        result = flow(pkg)
        assert result.stale_suppressions == []


# ---------------------------------------------------------------------------
# Report schema and baseline round-trip
# ---------------------------------------------------------------------------
_EXCEEDING = {"mod.py": """
    from repro.lint import o1

    @o1
    def entry(pages):
        return helper(pages)

    def helper(pages):
        total = 0
        for page in pages:
            total += page
        return total
"""}


def write_baseline(path: Path, entries) -> Path:
    path.write_text(json.dumps({"version": 1, "entries": entries}))
    return path


class TestFlowReport:
    def test_flow_section_schema(self, tmp_path):
        run = run_lint(make_pkg(tmp_path, _EXCEEDING), package="pkg")
        report = build_report(run)
        assert report["version"] == REPORT_VERSION == 4
        section = report["flow"]
        assert set(section) == {
            "entries", "files", "functions", "call_sites_total",
            "call_sites_resolved", "findings", "baseline_suppressed",
            "stale_baseline_entries", "controls_verified",
            "stale_suppressions",
        }
        assert section["call_sites_resolved"] <= section["call_sites_total"]
        (finding,) = [
            f for f in section["findings"]
            if f["rule"] == RULE_COST_EXCEEDS
        ]
        assert finding["function"] == "pkg.mod.entry"
        assert finding["chain"], "chain must be serialised"
        hop = finding["chain"][-1]
        assert set(hop) == {"function", "path", "line", "note"}

    def test_render_text_shows_chain(self, tmp_path):
        run = run_lint(make_pkg(tmp_path, _EXCEEDING), package="pkg")
        text = render_text(run)
        assert "o1 flow:" in text
        assert "FINDING" in text
        assert "pkg.mod.helper" in text  # the witness hop, not just the root

    def test_baseline_round_trip(self, tmp_path):
        pkg = make_pkg(tmp_path, _EXCEEDING)
        exceed = [
            f for f in run_lint(pkg, package="pkg").section("flow").findings
            if f.rule == RULE_COST_EXCEEDS
        ]
        baseline = write_baseline(tmp_path / "baseline.json", [
            {
                "function": f.function,
                "rule": f.rule,
                "reason": "pinned for the round-trip test",
            }
            for f in exceed
        ])
        outcome = run_lint(pkg, package="pkg", baseline=baseline).section(
            "flow"
        ).outcome
        assert outcome.suppressed == exceed
        assert outcome.stale == []
        assert all(f.rule != RULE_COST_EXCEEDS for f in outcome.new)

    def test_baseline_stale_entry_detected(self, tmp_path):
        baseline = write_baseline(tmp_path / "baseline.json", [{
            "function": "pkg.mod.gone",
            "rule": RULE_UNDECLARED,
            "reason": "the function this pinned was deleted",
        }])
        run = run_lint(
            make_pkg(tmp_path, _EXCEEDING), package="pkg", baseline=baseline
        )
        outcome = run.section("flow").outcome
        assert [e.function for e in outcome.stale] == ["pkg.mod.gone"]
        assert run.section("alloc").outcome.stale == []
        assert run.failed

    def test_baseline_rejects_unknown_rule(self, tmp_path):
        baseline = write_baseline(tmp_path / "baseline.json", [{
            "function": "pkg.mod.f",
            "rule": "flow-not-a-rule",
            "reason": "typo",
        }])
        with pytest.raises(ValueError, match="unknown rule"):
            load_baseline(baseline, known_rules=BASELINE_RULES)
