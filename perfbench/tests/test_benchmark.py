"""Self-tests of the benchmark, at reduced sizes.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q

* every workload's simulated-output digest is the same under two
  ``PYTHONHASHSEED`` values;
* the traced runs show the predicted bypasses and the expected largest
  self-time layer;
* without the simulator's source the benchmark fails without a result;
* the host-speed normaliser scales each segment by the bursts around it
  and leaves the bursts' own time out.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

import calibrate  # noqa: E402
RUN = BENCH_DIR / "run.py"
WORKLOADS = ("bulk_touch", "tenant_fleet", "crash_explore", "pmfs_churn")


def _run(workload, hash_seed=0, trace=0, run_py=RUN, check=True):
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    cmd = [sys.executable, str(run_py), "--workload", workload, "--seed", "3",
           "--seconds", "0", "--trace", str(trace), "--small"]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=900)
    if check:
        assert proc.returncode == 0, proc.stderr
    return proc


def _digests(stdout):
    return [line.split()[1] for line in stdout.splitlines()
            if line.strip().startswith("digest ")]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_digest_does_not_depend_on_hash_seed(workload):
    first, second = _run(workload, hash_seed=1), _run(workload, hash_seed=99)
    for proc in (first, second):
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result["correct"], proc.stdout
        assert result["failed"] == 0
    assert len(_digests(first.stdout)) == 1
    assert _digests(first.stdout) == _digests(second.stdout)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_shows_predicted_layers(workload):
    proc = _run(workload, trace=1)
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"], proc.stdout
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    traced_s = metrics["trace.untraced_wall_s"] * metrics["trace.overhead"]
    if workload == "tenant_fleet":
        assert metrics["fs.self_s"] < 0.01 * traced_s
    if workload in ("bulk_touch", "crash_explore"):
        assert metrics["vm.reclaim_scanned"] == 0
    # At reduced size crash_explore skips its recovery oracles, fsck among
    # them, so its largest layer is only checked at full size.
    if workload != "crash_explore":
        assert "NOT MET" not in proc.stdout, proc.stdout


def test_fails_without_simulator_source(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run("bulk_touch", run_py=tmp_path / "perfbench" / "run.py", check=False)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_host_speed_scales_segments_by_nearby_bursts(monkeypatch):
    now = [0]
    monkeypatch.setattr(calibrate, "_clock", lambda: now[0])
    speed = calibrate.HostSpeed(interval_s=1.0)
    speed.close()
    # Each burst advances the fake clock by the next of these seconds.
    burst_s = iter([2e-3, 4e-3, 4e-3, 4e-3])

    def measure():
        seconds = next(burst_s)
        now[0] += int(seconds * 1e9)
        return seconds

    monkeypatch.setattr(speed, "_measure", measure)
    speed.begin()                     # burst 0: 2 ms
    now[0] += int(1.5e9)              # 1.5 s of work, then a step boundary
    speed.tick()                      # burst 1: 4 ms
    segment = speed.segment
    now[0] += int(0.5e9)
    seconds = speed.end()             # burst 2: 4 ms
    ref = calibrate.REFERENCE_BURST_S
    assert speed.raw_s == pytest.approx(2.0)
    # Segment 0 sees bursts 0-2 (median 4 ms), segment 1 bursts 0-2 too.
    assert seconds == pytest.approx(2.0 * ref / 4e-3)
    assert speed.scale([1000], [segment]) == [round(1000 * ref / 4e-3)]
    speed.begin()                     # the last burst is recent: none runs
    assert len(speed.bursts) == 3
