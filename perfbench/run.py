"""Simulator benchmark: one workload per process, host time and memory.

Run from the root of a checkout::

    python3 perfbench/run.py --workload bulk_touch --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all   # every workload at every reference seed

With ``--trace 0`` the timed phase runs a fixed number of whole passes of
the workload, each on a freshly built machine: ``--seconds`` divided by
the workload's pass budget (a constant, so both sides of a comparison
do the same work).  Pass 0 uses ``--seed`` itself, later passes seeds
drawn from it.  Every timing of it is host time normalised to a
reference host's usual speed by calibration bursts interleaved with the
work (:mod:`calibrate`).  It then prints every end-to-end metric by
name and unit.  With ``--trace 1`` it runs pass 0 once untraced and once
with span recorders wrapped around every layer's entry points
(:mod:`spans`), and prints the per-layer metrics.  Either way the
simulated output of every pass is digested and checked against the
stored reference digests when the seed has them, and every oracle
verdict must be clean.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import gc
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFERENCE_FILE = BENCH_DIR / "reference_digests.json"
TRACE_DIR = ROOT / ".perfbench"


@dataclass(frozen=True)
class Workload:
    setup: Callable
    run: Callable
    #: About one pass's host time on the reference host: a run makes
    #: ``--seconds / pass_budget_s`` passes.
    pass_budget_s: float
    #: Percentile reported as step_tail_us, fixed per workload: the highest
    #: with >= 10 steps beyond it at the workload's steps per run, except
    #: on pmfs_churn.  At p99, bulk_touch and tenant_fleet measured host
    #: hiccups: of the steps in p98-p99.5 only ~20% were the same
    #: accesses in two same-seed tenant_fleet runs (97% of the top 0.5%).
    #: pmfs_churn's top steps are one fsck and one best-effort create per
    #: pass, so 10 beyond falls on the edge between the two; it uses p99.
    tail_pct: float
    #: Layers expected to hold the largest self-time share when traced.
    stresses: Tuple[str, ...]


def _workloads() -> Dict[str, Workload]:
    import workloads as w

    return {
        "bulk_touch": Workload(w.bulk_setup, w.bulk_run, 2.5, 99.8,
                               ("hw", "paging", "vm", "mem", "kernel")),
        "tenant_fleet": Workload(w.fleet_setup, w.fleet_run, 21.0, 99.97,
                                 ("vm", "mem", "qos", "obs")),
        "crash_explore": Workload(w.explore_setup, w.explore_run, 20.0, 90.0,
                                  ("fs", "mem")),
        "pmfs_churn": Workload(w.churn_setup, w.churn_run, 1.25, 99.0,
                               ("fs", "mem", "sanitize")),
    }


WORKLOAD_NAMES = ("bulk_touch", "tenant_fleet", "crash_explore", "pmfs_churn")

#: Per-layer metric prefix -> the end-to-end metric and workload it
#: should move.
LAYER_TARGETS = {
    "hw": "wall_s, sim_rate on bulk_touch",
    "paging": "wall_s on bulk_touch",
    "vm": "wall_s, step_tail_us on tenant_fleet",
    "mem": "wall_s on crash_explore; step_tail_us on pmfs_churn",
    "fs": "wall_s on crash_explore; step_tail_us on pmfs_churn",
    "core": "wall_s on bulk_touch",
    "qos": "wall_s on tenant_fleet",
    "chaos": "wall_s on crash_explore",
    "sanitize": "wall_s, peak_rss_mib on pmfs_churn",
    "obs": "wall_s on tenant_fleet and bulk_touch",
    "kernel": "step_p50_us on every workload",
    "workloads": "wall_s on tenant_fleet",
    "bench": "none: the benchmark's own driver code",
    "trace": "none: traced wall_s over untraced wall_s",
}

#: Ratio metric -> the metric holding its base.
RATIO_BASES = {
    "hw.tlb_hit_ratio": "hw.tlb_lookups",
    "vm.reclaim_yield": "vm.reclaim_scanned",
    "fs.alloc_fallback_ratio": "fs.alloc_extent_calls",
    "trace.overhead": "trace.untraced_wall_s",
}


def percentile(sorted_values: List[int], pct: float) -> int:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(sorted_values) * pct // 100))
    return sorted_values[int(rank) - 1]


def _metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": value, "unit": unit}


def pass_seeds(seed: int, passes: int) -> List[int]:
    """Pass 0 runs ``seed`` itself; later passes seeds drawn from it."""
    rng = random.Random(seed)
    return [seed] + [rng.getrandbits(31) for _ in range(passes - 1)]


def _check(name: str, seed: int, small: bool, results) -> Tuple[bool, List[str]]:
    """Digest and oracle check over the passes; returns (ok, notes)."""
    digests = [r.digest() for r in results]
    notes = [f"digest {d}" for d in digests]
    ok = True
    refs = {} if small else json.loads(REFERENCE_FILE.read_text())
    ref = refs.get(name, {}).get(str(seed))
    if ref is None:
        notes.append(f"no reference digests for seed {seed}")
    elif ref[: len(digests)] != digests[: len(ref)]:
        ok = False
        notes.append(f"MISMATCH with reference digests {ref}")
    else:
        notes.append("matches the reference digests")
    problems = sorted({p for r in results for p in r.problems})
    notes.extend(f"PROBLEM {p}" for p in problems)
    return ok, notes


def _timed_setup(spec: Workload, seed: int, small: bool, speed=None):
    """Build one machine; returns it and its set-up seconds.

    With a :class:`calibrate.HostSpeed` the time is normalised.
    """
    gc.collect()
    if speed is None:
        start = time.perf_counter()
        state = spec.setup(seed, small)
        return state, time.perf_counter() - start
    speed.begin()
    state = spec.setup(seed, small)
    return state, speed.end()


def _one_pass(spec: Workload, seed: int, small: bool, recorder=None, speed=None):
    """Set up and run one pass; times are normalised when ``speed`` is given."""
    import workloads as w

    state, setup_s = _timed_setup(spec, seed, small, speed)
    if recorder is not None:
        recorder.reset()
    steps = w.Steps(recorder=recorder, speed=speed)
    start = time.perf_counter()
    if speed is not None:
        speed.begin()
    result = spec.run(state, steps)
    wall_s = time.perf_counter() - start
    if speed is not None:
        wall_s = speed.end()
        steps.ns = speed.scale(steps.ns, steps.segments)
    del state
    return setup_s, wall_s, result, steps


def _import_seconds(samples: int, speed) -> List[float]:
    """Time to import the simulator, each in a fresh interpreter,
    normalised by the calibration bursts around each."""
    code = ("import sys, time; sys.path[:0] = sys.argv[1:]; t = time.perf_counter(); "
            "import workloads; print(time.perf_counter() - t)")
    seconds = []
    for _ in range(samples):
        speed.begin()
        raw_s = float(subprocess.run(
            [sys.executable, "-c", code, str(BENCH_DIR), str(ROOT / "src")],
            check=True, stdout=subprocess.PIPE, text=True,
        ).stdout)
        speed.end()
        seconds.append(raw_s * speed.factor(speed.segments[0][0]))
    return seconds


def timed_run(name: str, seed: int, seconds: float, small: bool, import_s: float):
    import calibrate

    spec = _workloads()[name]
    passes = max(1, round(seconds / spec.pass_budget_s))
    setups: List[float] = []
    walls: List[float] = []
    raw_walls: List[float] = []
    results = []
    step_ns: List[int] = []
    with calibrate.HostSpeed() as speed:
        for pass_seed in pass_seeds(seed, passes):
            setup_s, wall_s, result, steps = _one_pass(spec, pass_seed, small, speed=speed)
            setups.append(setup_s)
            walls.append(wall_s)
            raw_walls.append(speed.raw_s)
            results.append(result)
            step_ns.extend(steps.ns)
        while len(setups) < 5:
            setups.append(_timed_setup(spec, seed, small, speed)[1])
        imports = _import_seconds(5, speed)

    ok, notes = _check(name, seed, small, results)
    attempted = sum(r.attempted for r in results)
    failed = attempted if not ok else sum(r.failed for r in results)
    step_ns.sort()
    rates = [r.sim_ns / (wall * 1e6) for r, wall in zip(results, walls)]
    metrics = {
        "wall_s": _metric(statistics.median(walls), "s"),
        "sim_rate": _metric(statistics.median(rates), "simns/us"),
        "step_p50_us": _metric(percentile(step_ns, 50) / 1e3, "us"),
        "step_tail_us": _metric(percentile(step_ns, spec.tail_pct) / 1e3, "us"),
        "setup_s": _metric(statistics.median(imports) + statistics.median(setups), "s"),
        "peak_rss_mib": _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"
        ),
    }
    print(f"workload {name}, seed {seed}: {len(walls)} pass(es), "
          f"{len(step_ns)} steps, sim ns per pass {results[0].sim_ns}")
    print(f"  host speed: raw wall_s median {statistics.median(raw_walls):.4f} s, "
          f"first import {import_s:.4f} s, {len(speed.bursts)} calibration bursts, "
          f"median {statistics.median(speed.bursts) * 1e3:.3f} ms "
          f"(reference {calibrate.REFERENCE_BURST_S * 1e3:g} ms)")
    for note in notes:
        print(f"  {note}")
    details = {
        "wall_s": f"median of {len(walls)} passes, seeds {pass_seeds(seed, len(walls))}, "
                  "normalised",
        "sim_rate": "simulated ns per host us, median of passes",
        "step_p50_us": f"p50 of {len(step_ns)} steps",
        "step_tail_us": f"p{spec.tail_pct:g} of {len(step_ns)} steps",
        "setup_s": f"median of {len(imports)} fresh-interpreter imports + median of "
                   f"{len(setups)} set-ups, normalised",
        "peak_rss_mib": "peak resident set of this process",
    }
    for key, metric in metrics.items():
        print(f"  {key:<13} {metric['value']:>14.4f} {metric['unit']:<9} "
              f"({details[key]})")
    ratio = failed / attempted if attempted else 1.0
    print(f"  {'fail_ratio':<13} {ratio:>14.4f} failed/attempted ({failed}/{attempted})")
    return ok and failed == 0, attempted, failed, metrics


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def traced_run(name: str, seed: int, small: bool):
    import spans

    spec = _workloads()[name]
    _, untraced_s, plain, _ = _one_pass(spec, seed, small)
    recorder = spans.Recorder()
    recorder.install()
    try:
        _, traced_s, result, steps = _one_pass(spec, seed, small, recorder)
    finally:
        recorder.uninstall()
    ok, notes = _check(name, seed, small, [plain])
    if result.digest() != plain.digest():
        ok = False
        notes.append(f"traced pass digest {result.digest()} differs: tracing changed the output")
    attempted = plain.attempted + result.attempted
    failed = attempted if not ok else plain.failed + result.failed

    c = result.counters.get
    self_s = recorder.layer_self_s()
    tlb_lookups = c("tlb_hit", 0) + c("tlb_miss", 0)
    extent_calls = recorder.calls_of("fs:BlockAllocator.alloc_extent")
    values = {
        "hw.self_s": (self_s["hw"], "s"),
        "hw.calls": (recorder.layer_calls("hw"), "count"),
        "hw.tlb_hit_ratio": (_ratio(c("tlb_hit", 0), tlb_lookups), "hits/lookup"),
        "hw.tlb_lookups": (tlb_lookups, "count"),
        "paging.self_s": (self_s["paging"], "s"),
        "paging.walks": (c("walk_start", 0), "count"),
        "paging.pte_writes": (c("pte_write", 0), "count"),
        "vm.self_s": (self_s["vm"], "s"),
        "vm.faults": (c("fault_trap", 0), "count"),
        "vm.reclaim_scanned": (c("reclaim_scanned", 0), "count"),
        "vm.reclaim_yield": (_ratio(c("reclaim_evicted", 0), c("reclaim_scanned", 0)),
                             "evicted/scanned"),
        "vm.swap_ios": (c("swap_in", 0) + c("swap_out", 0), "count"),
        "mem.self_s": (self_s["mem"], "s"),
        "mem.buddy_ops": (c("buddy_alloc", 0) + c("buddy_free", 0), "count"),
        "mem.frame_meta_touch": (c("frame_meta_touch", 0), "count"),
        "mem.bitmap_calls": (sum(recorder.calls_of(n) for n in recorder.names
                                 if n.startswith("mem:Bitmap.")), "count"),
        "fs.self_s": (self_s["fs"], "s"),
        "fs.fsck_s": (recorder.inclusive_s("fs:Pmfs.fsck"), "s"),
        "fs.extent_allocs": (c("extent_alloc", 0), "count"),
        "fs.alloc_fallback_ratio": (
            _ratio(recorder.calls_of("fs:BlockAllocator.alloc_best_effort"), extent_calls),
            "calls/call"),
        "fs.alloc_extent_calls": (extent_calls, "count"),
        "fs.journal_commits": (c("journal_commit", 0), "count"),
        "core.self_s": (self_s["core"], "s"),
        "core.fom_allocs": (c("fom_allocate", 0), "count"),
        "qos.self_s": (self_s["qos"], "s"),
        "qos.reclaim_batches": (c("qos_reclaim_batch", 0), "count"),
        "qos.throttle_stalls": (c("qos_throttle_stall", 0), "count"),
        "qos.oom_kills": (c("qos_oom_kill", 0), "count"),
        "chaos.self_s": (self_s["chaos"], "s"),
        "chaos.crash_points": (result.attempted if name == "crash_explore" else 0, "count"),
        "chaos.oracle_s": (recorder.inclusive_s("chaos:run_oracles"), "s"),
        "sanitize.self_s": (self_s["sanitize"], "s"),
        "sanitize.checks": (result.sanitize_checks, "count"),
        "obs.self_s": (self_s["obs"], "s"),
        "obs.bumps": (recorder.calls_of("obs:MetricsRegistry.bump"), "count"),
        "kernel.self_s": (self_s["kernel"], "s"),
        "kernel.calls": (recorder.layer_calls("kernel"), "count"),
        "workloads.self_s": (self_s["workloads"], "s"),
        "bench.self_s": (max(0.0, traced_s - sum(self_s.values())), "s"),
        "trace.overhead": (traced_s / untraced_s, "traced/untraced"),
        "trace.untraced_wall_s": (untraced_s, "s"),
    }
    metrics = {key: _metric(v, unit) for key, (v, unit) in values.items()}

    print(f"workload {name}, seed {seed}: traced pass {traced_s:.3f} s, "
          f"untraced pass {untraced_s:.3f} s, {len(steps.ns)} steps")
    for note in notes:
        print(f"  {note}")
    for key, metric in metrics.items():
        base = RATIO_BASES.get(key)
        of = f" (base {base} = {metrics[base]['value']:.6g})" if base else ""
        print(f"  {key:<24} {metric['value']:>14.6g} {metric['unit']}{of}"
              f"  -> {LAYER_TARGETS[key.split('.')[0]]}")
    shares = {layer: s / traced_s for layer, s in self_s.items()}
    top = max(shares, key=shares.get)
    print(f"  largest self-time share: {top} {shares[top]:.1%} "
          f"(expected one of {', '.join(spec.stresses)}: "
          f"{'ok' if top in spec.stresses else 'NOT MET'})")
    for line in bypass_checks(name, shares, result.counters):
        print(f"  {line}")
    TRACE_DIR.mkdir(exist_ok=True)
    out = TRACE_DIR / f"trace-{name}-seed{seed}.json"
    recorder.write(str(out), {"workload": name, "seed": seed, "traced_s": traced_s,
                              "untraced_s": untraced_s})
    print(f"  spans written to {out.relative_to(ROOT)} "
          f"({len(recorder.spans)} kept, {recorder.dropped} beyond the cap)")
    return ok and failed == 0, attempted, failed, metrics


def bypass_checks(name: str, shares: Dict[str, float], counters: Dict[str, int]) -> List[str]:
    """The layers each workload is predicted to bypass, checked."""
    lines = []
    if name == "tenant_fleet":
        ok = shares["fs"] < 0.01
        lines.append(f"bypass fs.self_s share {shares['fs']:.3%} < 1%: "
                     f"{'ok' if ok else 'NOT MET'}")
    if name in ("bulk_touch", "crash_explore"):
        scanned = counters.get("reclaim_scanned", 0)
        lines.append(f"bypass vm.reclaim_scanned {scanned} == 0: "
                     f"{'ok' if scanned == 0 else 'NOT MET'}")
    return lines


def run_all(args) -> int:
    """Run every workload at every seed with reference digests, each in
    its own fresh process, one after another."""
    refs = json.loads(REFERENCE_FILE.read_text())
    status = 0
    for name in WORKLOAD_NAMES:
        for seed in sorted(refs[name], key=int):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", seed, "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if proc.returncode != 0 or not json.loads(lines[-1])["correct"]:
                status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="reduced sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: simulator source not found under {src}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    if hasattr(os, "sched_setaffinity"):
        # One CPU for this process and the calibration helper it starts:
        # the work never migrates, and the helper's bursts measure the
        # CPU the work runs on.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    import workloads  # noqa: F401  (importing the simulator is set-up)

    import_s = time.perf_counter() - start
    if args.trace:
        correct, attempted, failed, metrics = traced_run(args.workload, args.seed, args.small)
    else:
        correct, attempted, failed, metrics = timed_run(
            args.workload, args.seed, args.seconds, args.small, import_s
        )
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
