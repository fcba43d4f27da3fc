"""THE conformance gate: the shipped tree must satisfy its own checker.

This is the test CI leans on.  It fails when (a) someone adds a
size-dependent loop to a function declared O(1) without an allow or a
baselined reason, (b) a baselined path gets fixed but the baseline entry
lingers, or (c) a declared cost class stops matching what the simulated
clock actually measures.
"""

import pytest

from repro.lint.decorators import ComplexityClass
from repro.lint.ops import LIGHT_SIZES, OPERATIONS, fit_all


@pytest.fixture(scope="module")
def outcome(real_lint_run):
    section = real_lint_run.section("lint")
    return section, section.outcome


class TestAstGate:
    def test_tree_is_clean_against_baseline(self, outcome):
        result, applied = outcome
        formatted = "\n".join(v.format() for v in applied.new)
        assert applied.new == [], f"new O(1) conformance findings:\n{formatted}"

    def test_no_stale_baseline_entries(self, outcome):
        _, applied = outcome
        stale = ", ".join(e.function for e in applied.stale)
        assert applied.stale == [], f"baseline entries no longer needed: {stale}"

    def test_checker_actually_saw_the_tree(self, outcome):
        section, _ = outcome
        assert section.stats["files_checked"] >= 60
        assert section.stats["functions_checked"] >= 50

    def test_legacy_baseline_is_retired(self, outcome):
        # grow_region's VMA-overlap scan and CryptoErase.return_frames'
        # per-frame free loop were the two documented O(n) exceptions.
        # Both are fixed (bisect tail probe; batched buddy.free_many),
        # so the baseline must be empty — a new entry means a genuinely
        # new O(n) path snuck in and needs its own justification.
        _, applied = outcome
        assert applied.suppressed == [], (
            "baseline should be empty; found: "
            + ", ".join(v.function for v in applied.suppressed)
        )


@pytest.fixture(scope="module")
def fits():
    return fit_all(LIGHT_SIZES)


class TestEmpiricalGate:
    def test_every_operation_fits_its_declaration(self, fits):
        failures = [
            f"{f.operation.name}: declared {f.operation.declared.value} "
            f"fitted {f.fit.fitted.value}"
            for f in fits
            if not f.ok
        ]
        assert not failures, "complexity fit failures:\n" + "\n".join(failures)

    def test_at_least_ten_constant_confirmations(self, fits):
        confirmed = [
            f
            for f in fits
            if f.operation.declared is ComplexityClass.CONSTANT
            and not f.operation.known_mismatch
            and f.fit.fitted is ComplexityClass.CONSTANT
        ]
        assert len(confirmed) >= 10

    def test_control_is_caught(self, fits):
        # The demand-fault touch loop is declared O(1) on purpose; the
        # fitter must see through the lie or it proves nothing.
        controls = [f for f in fits if f.operation.known_mismatch]
        assert controls, "registry lost its O(n) control"
        for control in controls:
            assert control.fit.fitted is not control.operation.declared
            assert control.ok

    def test_registry_covers_the_subsystems(self):
        prefixes = {op.name.split(".")[0] for op in OPERATIONS}
        assert {
            "syscall",
            "buddy",
            "slab",
            "zeropool",
            "pmfs",
            "fom",
            "premap",
            "rangetrans",
            "pbm",
            "vfs",
            "zeroing",
            "kernel",
            "syscalls",
        } <= prefixes
