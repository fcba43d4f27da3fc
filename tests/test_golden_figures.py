"""Golden-figure regression tests.

Each ``bench_fig*`` experiment is re-run at tiny parameter sizes (seconds,
not minutes) and its full output — every series label, x and y — is
compared against a checked-in golden under ``tests/goldens/``.  The
simulator is deterministic, so the goldens are exact today; the numeric
tolerance (15%, floor of 2) exists so deliberate cost-model tweaks don't
break every figure at once while still catching real regressions.

Regenerate after an intentional change with::

    REPRO_REGEN_GOLDENS=1 PYTHONPATH=src pytest tests/test_golden_figures.py
"""

import importlib
import json
import os
import pathlib
import sys

import pytest

BENCH_DIR = pathlib.Path(__file__).resolve().parent.parent / "benchmarks"
GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "goldens"

#: figure id -> (bench module, tiny-size overrides for module constants)
FIGURES = {
    "fig1a": ("bench_fig1a_mmap_cost", {"SIZES_KB": [4, 64]}),
    "fig1b": ("bench_fig1b_access_cost", {"SIZES_KB": [4, 64]}),
    "fig2": ("bench_fig2_malloc_vs_pmfs", {"PAGE_COUNTS": [1, 64]}),
    "fig3": ("bench_fig3_shared_mappings", {"FILE_MIB": 4, "PROCESSES": 3}),
    "fig4": ("bench_fig4_fault_counts", {"SIZES_KB": [4, 64]}),
    "fig5": ("bench_fig5_tmpfs_vs_dax", {"SIZES_KB": [4, 64]}),
    "fig9": ("bench_fig9_range_translation", {"SIZES_MB": [1, 16]}),
}


def _load_bench(module_name):
    # The bench modules do `from conftest import run_once`; putting the
    # benchmarks dir first resolves that to benchmarks/conftest.py (the
    # tests' own conftest imports as `tests.conftest` — tests is a
    # package — so the top-level name is free).
    if str(BENCH_DIR) not in sys.path:
        sys.path.insert(0, str(BENCH_DIR))
    return importlib.import_module(module_name)


def _normalize(value):
    """Reduce an experiment result to plain JSON-able data."""
    from repro.analysis import Series

    if isinstance(value, Series):
        return {"label": value.label, "xs": list(value.xs), "ys": list(value.ys)}
    if isinstance(value, dict):
        return {str(key): _normalize(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_normalize(item) for item in value]
    if isinstance(value, (set, frozenset)):
        return sorted(_normalize(item) for item in value)
    return value


def _close(actual, expected):
    return abs(actual - expected) <= max(2, 0.15 * max(abs(actual), abs(expected)))


def _compare(actual, expected, path, problems):
    """Structural equality with numeric tolerance; collects mismatches."""
    if isinstance(expected, (int, float)) and not isinstance(expected, bool):
        if not isinstance(actual, (int, float)) or not _close(actual, expected):
            problems.append(f"{path}: {actual!r} != golden {expected!r}")
    elif isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            problems.append(f"{path}: shape {actual!r} != golden {expected!r}")
        else:
            for index, (a, e) in enumerate(zip(actual, expected)):
                _compare(a, e, f"{path}[{index}]", problems)
    elif isinstance(expected, dict):
        if not isinstance(actual, dict) or sorted(actual) != sorted(expected):
            problems.append(
                f"{path}: keys {sorted(actual) if isinstance(actual, dict) else actual!r}"
                f" != golden {sorted(expected)}"
            )
        else:
            for key in expected:
                _compare(actual[key], expected[key], f"{path}.{key}", problems)
    elif actual != expected:
        problems.append(f"{path}: {actual!r} != golden {expected!r}")


#: Every armable subsystem at once (see tests/conftest.py): the hooks
#: never touch the simulated clock, so the figures must not move at all.
ALL_ARMED = ("sanitize", "ras", "qos", "profile")
CASES = [pytest.param(figure, (), id=figure) for figure in sorted(FIGURES)] + [
    pytest.param(figure, ALL_ARMED, id=f"{figure}-all-armed")
    for figure in sorted(FIGURES)
]


@pytest.mark.parametrize("figure, armed", CASES)
def test_figure_matches_golden(figure, armed, monkeypatch, arm_kernels):
    arm_kernels(armed)
    module_name, overrides = FIGURES[figure]
    module = _load_bench(module_name)
    for name, value in overrides.items():
        monkeypatch.setattr(module, name, value)
    result = _normalize(module.run_experiment())

    golden_path = GOLDEN_DIR / f"{figure}.json"
    if os.environ.get("REPRO_REGEN_GOLDENS"):
        GOLDEN_DIR.mkdir(exist_ok=True)
        golden_path.write_text(json.dumps(result, indent=1) + "\n")
        pytest.skip(f"regenerated {golden_path}")
    assert golden_path.exists(), (
        f"no golden for {figure}; run with REPRO_REGEN_GOLDENS=1 to create it"
    )
    expected = json.loads(golden_path.read_text())
    problems = []
    _compare(result, expected, figure, problems)
    assert problems == [], "\n".join(problems)
    if armed:
        assert result == expected, f"{figure} moved with {armed} armed"
