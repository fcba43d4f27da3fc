"""repro-o1 lint subcommand."""

import ast
import json
from collections import Counter
from pathlib import Path

import pytest

import repro
from repro.cli import main

PACKAGE_ROOT = Path(repro.__file__).resolve().parent


class TestLintCommand:
    def test_lint_clean_exits_zero(self, capsys):
        assert main(["lint"]) == 0
        out = capsys.readouterr().out
        assert "o1 lint:" in out
        assert "0 finding(s)" in out
        assert "o1 fit:" not in out  # empirical checks only with --fit

    def test_lint_json_report(self, capsys, tmp_path):
        path = tmp_path / "lint_report.json"
        assert main(["lint", "--json", str(path)]) == 0
        report = json.loads(path.read_text())
        assert report["version"] == 4
        assert report["lint"]["findings"] == []
        assert report["lint"]["functions_checked"] >= 50
        assert report.get("fit") is None
        assert report.get("allocfit") is None
        # Every static section, every run.
        assert report["flow"]["findings"] == []
        assert report["alloc"]["findings"] == []

    def test_lint_fit_single_op(self, capsys, tmp_path):
        path = tmp_path / "lint_report.json"
        assert main(
            ["lint", "--fit", "--op", "rangetrans.map_file",
             "--json", str(path)]
        ) == 0
        out = capsys.readouterr().out
        assert "o1 fit: 1 operation(s)" in out
        assert "rangetrans.map_file" in out
        assert "o1 allocfit:" not in out  # --op selected no allocfit op
        report = json.loads(path.read_text())
        ops = report["fit"]["operations"]
        assert len(ops) == 1
        assert ops[0]["ok"] is True
        assert ops[0]["fitted"] == "O(1)"

    def test_lint_fit_flags_control(self, capsys):
        assert main(["lint", "--fit", "--op", "fom.demand_touch"]) == 0
        out = capsys.readouterr().out
        assert "[control]" in out
        assert "fitted O(n)" in out

    def test_unknown_op_exits_two(self, capsys):
        assert main(["lint", "--fit", "--op", "no.such.op"]) == 2

    def test_dirty_tree_exits_one(self, capsys, tmp_path):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "bad.py").write_text(
            "from repro.lint import o1\n\n@o1\ndef b(pages):\n"
            "    for p in pages:\n        x(p)\n"
        )
        empty_baseline = tmp_path / "baseline.json"
        empty_baseline.write_text('{"version": 1, "entries": []}')
        assert main(
            ["lint", "--root", str(pkg), "--baseline", str(empty_baseline)]
        ) == 1
        out = capsys.readouterr().out
        assert "o1-size-loop" in out

    def test_missing_root_exits_two(self, capsys, tmp_path):
        assert main(["lint", "--root", str(tmp_path / "nope")]) == 2

    def test_interproc_clean_with_artifacts(self, capsys, tmp_path):
        report_path = tmp_path / "lint_report.json"
        dot_path = tmp_path / "callgraph.dot"
        assert main(
            ["lint", "--json", str(report_path), "--dot", str(dot_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "o1 flow:" in out
        assert "2/2 controls verified" in out
        assert "1/1 controls verified" in out
        assert "0 stale suppression(s)" in out
        assert dot_path.read_text().startswith("digraph")
        report = json.loads(report_path.read_text())
        assert report["flow"]["findings"] == []
        assert len(report["flow"]["controls_verified"]) == 2
        assert report["flow"]["stale_suppressions"] == []

    # The allocfit cross-check of the unarmed hit path.
    @pytest.mark.unarmed
    def test_alloc_clean_with_artifacts(self, capsys, tmp_path):
        report_path = tmp_path / "lint_report.json"
        alloc_ops = [
            "access.tlb_hit", "access.tlb_miss_walk",
            "control.allocfree_retaining",
        ]
        argv = ["lint", "--fit", "--json", str(report_path)]
        for name in alloc_ops:
            argv += ["--op", name]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "o1 alloc:" in out
        assert "1/1 controls verified" in out
        assert "o1 allocfit: 3 op(s) cross-checked" in out
        assert "o1 fit:" not in out  # --op selected no fit op
        report = json.loads(report_path.read_text())
        section = report["alloc"]
        assert section["findings"] == []
        assert section["stale_suppressions"] == []
        assert len(section["controls_verified"]) == 1
        fit_rows = report["allocfit"]
        assert all(row["ok"] for row in fit_rows)
        assert {row["name"] for row in fit_rows} == set(alloc_ops)

    def test_alloc_dirty_tree_exits_one(self, capsys, tmp_path):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "bad.py").write_text(
            "from repro.lint import allocfree\n\n"
            "@allocfree\ndef hot(x):\n    return [x]\n"
        )
        empty = tmp_path / "baseline.json"
        empty.write_text('{"version": 1, "entries": []}')
        assert main(
            ["lint", "--root", str(pkg), "--baseline", str(empty)]
        ) == 1
        out = capsys.readouterr().out
        assert "alloc-exceeds-declared" in out

    def test_interproc_dirty_tree_exits_one(self, capsys, tmp_path):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "bad.py").write_text(
            "from repro.lint import o1\n\n"
            "@o1\ndef entry(pages):\n    return helper(pages)\n\n"
            "def helper(pages):\n"
            "    total = 0\n"
            "    for p in pages:\n        total += p\n"
            "    return total\n"
        )
        empty = tmp_path / "baseline.json"
        empty.write_text('{"version": 1, "entries": []}')
        assert main(
            ["lint", "--root", str(pkg), "--baseline", str(empty)]
        ) == 1
        out = capsys.readouterr().out
        assert "flow-cost-exceeds-declared" in out

    def test_full_run_parses_each_file_once(self, capsys, tmp_path, monkeypatch):
        """Every static pass works from the call graph's single parse."""
        parsed = Counter()
        real_parse = ast.parse

        def counting_parse(source, filename="<unknown>", *args, **kwargs):
            parsed[str(filename)] += 1
            return real_parse(source, filename, *args, **kwargs)

        monkeypatch.setattr(ast, "parse", counting_parse)
        report_path = tmp_path / "lint_report.json"
        assert main(["lint", "--json", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        assert {"lint", "flow", "alloc"} <= set(report), "a pass did not run"
        files = {str(path) for path in PACKAGE_ROOT.rglob("*.py")}
        per_file = {name: n for name, n in parsed.items() if name.endswith(".py")}
        assert per_file == {path: 1 for path in files}
