"""The benchmark's four workloads, driven through the simulator's public API.

Each workload has a ``setup(seed, small)`` that builds the machine and
pre-populates it, and a ``run(state, steps)`` that performs the timed
phase one *step* at a time through :class:`Steps`.  ``run`` returns a
:class:`PassResult`: the simulated output (final simulated ns, the full
counter snapshot and the oracle verdicts, which the digest covers) plus
the step outcomes.  ``small=True`` selects the reduced size the
benchmark's own tests use.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import random
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.chaos.workloads import fig2_workload
from repro.core.fom import FileOnlyMemory
from repro.errors import ReproError
from repro.kernel.kernel import Kernel, MachineConfig
from repro.sanitize import SanitizerSuite
from repro.sanitize.violations import SanitizerError
from repro.units import GIB, KIB, MIB, PAGE_SIZE
from repro.vm.vma import MapFlags
from repro.workloads import tenants as tenant_fleet

_clock = time.perf_counter_ns
# The package re-exports the function under the module's name.
chaos_explore = importlib.import_module("repro.chaos.explore")


@dataclass
class PassResult:
    """What one timed pass produced."""

    sim_ns: int
    #: Simulated output the digest covers: final simulated ns, the full
    #: counter snapshot and the oracle verdicts.
    output: Dict[str, object]
    #: Counter increase over the pass, summed over every machine it used.
    counters: Dict[str, int]
    attempted: int
    failed: int
    problems: List[str]
    sanitize_checks: int = 0

    def digest(self) -> str:
        blob = json.dumps(self.output, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()


@dataclass
class Steps:
    """Host time of each step of a pass, and the steps that raised."""

    ns: List[int] = field(default_factory=list)
    failed: int = 0
    #: Span recorder of a traced pass; told the id of the running step.
    recorder: Optional[object] = None
    #: Host-speed normaliser (:class:`calibrate.HostSpeed`) of an untraced
    #: pass; it may run a calibration burst between two steps.
    speed: Optional[object] = None
    #: Normaliser segment each step ran in, to scale ``ns`` by afterwards.
    segments: List[int] = field(default_factory=list)

    def tick(self) -> None:
        """Called between two steps."""
        if self.speed is not None:
            self.speed.tick()

    def record(self, start_ns: int) -> None:
        """Record the step that began at host clock ``start_ns``."""
        self.ns.append(_clock() - start_ns)
        self.segments.append(self.speed.segment if self.speed is not None else 0)

    def run(self, fn: Callable, *args, **kwargs) -> bool:
        """Run one step; a simulator error or sanitizer report fails it."""
        self.tick()
        if self.recorder is not None:
            self.recorder.step = len(self.ns)
        start = _clock()
        try:
            fn(*args, **kwargs)
            return True
        except (ReproError, SanitizerError):
            self.failed += 1
            return False
        finally:
            self.record(start)


def _nonzero(counters: Dict[str, int]) -> Dict[str, int]:
    # Reading an absent counter inserts a zero; those carry no output.
    return {name: value for name, value in counters.items() if value}


def _delta(kernel: Kernel, before: Dict[str, int]) -> Dict[str, int]:
    return _nonzero(kernel.counters.delta_since(before))


def _add(total: Dict[str, int], more: Dict[str, int]) -> None:
    for name, value in more.items():
        total[name] = total.get(name, 0) + value


# ----------------------------------------------------------------------
# bulk_touch: demand paging vs FOM, then a random re-read
# ----------------------------------------------------------------------
_BULK_WINDOW = 256 * KIB
_BULK_READS_PER_WINDOW = 64


@dataclass
class _Bulk:
    seed: int
    region: int
    kernel: Kernel
    process: object
    fom: FileOnlyMemory
    anon_va: int


def bulk_setup(seed: int, small: bool = False) -> _Bulk:
    kernel = Kernel(MachineConfig(dram_bytes=1 * GIB, nvm_bytes=1 * GIB))
    process = kernel.spawn("bulk")
    region = (8 if small else 64) * MIB
    anon_va = kernel.syscalls(process).mmap(region, flags=MapFlags.PRIVATE)
    return _Bulk(seed, region, kernel, process, FileOnlyMemory(kernel), anon_va)


def bulk_run(state: _Bulk, steps: Steps) -> PassResult:
    kernel, process, region = state.kernel, state.process, state.region
    before = kernel.counters.snapshot()
    start_ns = kernel.clock.now
    for offset in range(0, region, _BULK_WINDOW):
        steps.run(kernel.access_range, process, state.anon_va + offset,
                  _BULK_WINDOW, write=True)
    fom_regions = []
    steps.run(lambda: fom_regions.append(state.fom.allocate(process, region)))
    fom_va = fom_regions[0].vaddr
    for offset in range(0, region, _BULK_WINDOW):
        steps.run(kernel.access_range, process, fom_va + offset,
                  _BULK_WINDOW, write=True)
    rng = random.Random(state.seed)
    lines = region // 64
    bases = (state.anon_va, fom_va)

    def reread(addrs: List[int]) -> None:
        for addr in addrs:
            kernel.access(process, addr)

    for _ in range(2 * region // _BULK_WINDOW):
        addrs = [
            bases[rng.randrange(2)] + rng.randrange(lines) * 64
            for _ in range(_BULK_READS_PER_WINDOW)
        ]
        steps.run(reread, addrs)
    counters = _delta(kernel, before)
    return PassResult(
        sim_ns=kernel.clock.now - start_ns,
        output={"sim_ns": kernel.clock.now,
                "counters": _nonzero(kernel.counters.snapshot())},
        counters=counters,
        attempted=len(steps.ns),
        failed=steps.failed,
        problems=[],
    )


# ----------------------------------------------------------------------
# tenant_fleet: the open-loop 64-tenant QoS run (`repro-o1 qos`)
# ----------------------------------------------------------------------
_FLEET_DRAM = 64 * MIB


@dataclass
class _Fleet:
    seed: int
    tenants: int
    kernel: Kernel


def fleet_setup(seed: int, small: bool = False) -> _Fleet:
    # The machine run_tenants builds when it is given none.
    frames = _FLEET_DRAM // PAGE_SIZE
    kernel = Kernel(MachineConfig(dram_bytes=_FLEET_DRAM, swap_pages=4 * frames))
    return _Fleet(seed, 16 if small else 64, kernel)


def fleet_run(state: _Fleet, steps: Steps) -> PassResult:
    kernel = state.kernel
    access = kernel.access

    def timed_access(*args, **kwargs):
        # One step per kernel.access, wrapped on this instance only.
        steps.tick()
        if steps.recorder is not None:
            steps.recorder.step = len(steps.ns)
        start = _clock()
        try:
            return access(*args, **kwargs)
        finally:
            steps.record(start)

    kernel.access = timed_access
    try:
        report = tenant_fleet.run_tenants(
            tenants=state.tenants, seed=state.seed, oversubscribe=2.0, kernel=kernel
        )
    finally:
        del kernel.access
    # A request fails if a well-behaved tenant leaves it undone, or if an
    # OOM kill outside the victim's own cgroup took it.  A noisy tenant's
    # requests lost to its own expected OOM kill do not count.
    escaped = {k["name"] for k in report.kills if k["cgroup"] != k["offending"]}
    attempted = failed = 0
    for result in report.results:
        attempted += result.requests_total
        if not result.spec.noisy or result.spec.name in escaped:
            failed += result.requests_total - result.requests_done
    problems = report.problems()
    counters = _nonzero(kernel.counters.snapshot())
    output = {
        "sim_ns": kernel.clock.now,
        "counters": counters,
        "problems": problems,
        "tenants": [[r.spec.name, r.requests_done, r.killed] for r in report.results],
        "kills": report.kills,
    }
    return PassResult(
        sim_ns=kernel.clock.now,
        output=output,
        counters=counters,
        attempted=attempted,
        failed=failed,
        problems=problems,
    )


# ----------------------------------------------------------------------
# crash_explore: crash-at-any-point exploration (`repro-o1 chaos`)
# ----------------------------------------------------------------------
@dataclass
class _Explore:
    seed: int
    small: bool


def explore_setup(seed: int, small: bool = False) -> _Explore:
    # Build (and drop) one Fig-2 machine: the set-up a chaos run pays
    # before its first crash point.
    fig2_workload(seed)
    return _Explore(seed, small)


def explore_run(state: _Explore, steps: Steps) -> PassResult:
    builds = 0
    step_start = 0
    live: List[Kernel] = []
    sim_ns: List[int] = []
    counters: Dict[str, int] = {}

    def retire_machine() -> None:
        # explore() is done with a machine once it asks for the next one.
        if live:
            kernel = live.pop()
            sim_ns.append(kernel.clock.now)
            _add(counters, _nonzero(kernel.counters.snapshot()))

    def end_step() -> None:
        # build() number i+1 starts crash point i (build 0 is the census).
        if builds >= 2:
            steps.record(step_start)

    def build():
        nonlocal builds, step_start
        end_step()
        builds += 1
        steps.tick()
        if steps.recorder is not None:
            steps.recorder.step = builds - 2
        step_start = _clock()
        retire_machine()
        kernel, run = fig2_workload(state.seed)
        live.append(kernel)
        return kernel, run

    kwargs = {"oracles": ()} if state.small else {}
    report = chaos_explore.explore(build, **kwargs)
    end_step()
    retire_machine()
    failed_points = {o.index for o in report.failures}
    if report.baseline_problems:
        failed_points = set(range(report.crash_points))
    problems = list(report.baseline_problems) + [
        f"hit {o.index} at {o.site}: " + "; ".join(o.problems) for o in report.failures
    ]
    output = {
        "sim_ns": sim_ns,
        "counters": counters,
        "census": dict(sorted(report.census.items())),
        "failures": [[o.index, o.site, o.problems] for o in report.failures],
        "baseline_problems": report.baseline_problems,
    }
    return PassResult(
        sim_ns=sum(sim_ns),
        output=output,
        counters=counters,
        attempted=report.crash_points,
        failed=len(failed_points),
        problems=problems,
    )


# ----------------------------------------------------------------------
# pmfs_churn: seeded file-system churn over PMFS, fully sanitized
# ----------------------------------------------------------------------
#: NVM use is held in this band of the device, so every allocation
#: searches a bitmap fragmented over its whole range.
_CHURN_LOW, _CHURN_HIGH = 0.75, 0.90
_CHURN_OPS = ("create", "pwrite", "pwrite", "pread", "pread", "truncate", "unlink")
#: Set-up unlinks stripe i when i % 9 is one of these: 4/9 of the stripes,
#: never two neighbours, so every hole is exactly one stripe long.
_CHURN_HOLES = (0, 2, 4, 6)
#: Each pass starts with one create of two stripes into the striped
#: layout: larger than any hole, so it takes the best-effort fallback and
#: its full-bitmap scans.


@dataclass(frozen=True)
class _ChurnSize:
    nvm: int
    #: Large files made at set-up and only read and written afterwards.
    large: tuple
    #: Set-up fills the rest of the device with files of this size.
    stripe: int
    #: Churned files are 4 KiB to 2**max_log2 bytes, log-uniform.
    max_log2: int
    ops: int


_CHURN_SIZES = {
    False: _ChurnSize(384 * MIB, (192 * MIB, 64 * MIB), 512 * KIB, 19, 2000),
    True: _ChurnSize(64 * MIB, (24 * MIB, 8 * MIB), 128 * KIB, 17, 200),
}


@dataclass
class _Churn:
    size: _ChurnSize
    kernel: Kernel
    suite: SanitizerSuite
    sys: object
    rng: random.Random
    #: path -> fd of the churned files and of the large files.
    files: Dict[str, int]
    large: Dict[str, int]
    next_id: int = 0

    def used(self) -> float:
        alloc = self.kernel.nvm_allocator
        return 1 - alloc.free_blocks / alloc.total_blocks

    def room(self) -> int:
        """Blocks left before NVM use reaches the top of the band."""
        alloc = self.kernel.nvm_allocator
        return int(_CHURN_HIGH * alloc.total_blocks) - (alloc.total_blocks - alloc.free_blocks)

    def file_size(self, room_blocks: int) -> int:
        size = int(2 ** self.rng.uniform(12, self.size.max_log2)) // PAGE_SIZE * PAGE_SIZE
        return max(PAGE_SIZE, min(size, room_blocks * PAGE_SIZE))

    def create(self, nbytes: Optional[int] = None) -> None:
        path = f"/f{self.next_id}"
        self.next_id += 1
        size = self.file_size(self.room()) if nbytes is None else nbytes
        self.files[path] = self.sys.open(self.kernel.pmfs, path, create=True, size=size)

    def unlink(self, path: str) -> None:
        self.sys.close(self.files.pop(path))
        self.sys.unlink(self.kernel.pmfs, path)

    def truncate(self, path: str) -> None:
        inode = self.kernel.pmfs.lookup(path)
        self.kernel.pmfs.truncate(inode, self.file_size(inode.page_count + self.room()))


def churn_setup(seed: int, small: bool = False) -> _Churn:
    size = _CHURN_SIZES[small]
    kernel = Kernel(MachineConfig(dram_bytes=256 * MIB, nvm_bytes=size.nvm))
    suite = kernel.arm_sanitizers(SanitizerSuite())
    sys_calls = kernel.syscalls(kernel.spawn("churn"))
    state = _Churn(size, kernel, suite, sys_calls, random.Random(seed), {}, {})
    for i, nbytes in enumerate(size.large):
        path = f"/large{i}"
        state.large[path] = sys_calls.open(kernel.pmfs, path, create=True, size=nbytes)
    # The same striped layout for every seed: fill the device with
    # stripe-sized files, then unlink a fixed pattern of them down to the
    # band, leaving one-stripe holes spread over the whole bitmap.
    while kernel.nvm_allocator.free_blocks * PAGE_SIZE >= size.stripe:
        state.create(size.stripe)
    for index, path in enumerate(list(state.files)):
        if state.used() <= _CHURN_LOW:
            break
        if index % 9 in _CHURN_HOLES:
            state.unlink(path)
    return state


def churn_run(state: _Churn, steps: Steps) -> PassResult:
    kernel, rng, fs = state.kernel, state.rng, state.kernel.pmfs
    before = kernel.counters.snapshot()
    start_ns = kernel.clock.now
    steps.run(state.create, 2 * state.size.stripe)
    for _ in range(state.size.ops):
        used = state.used()
        if used >= _CHURN_HIGH - 0.01:
            op = "unlink"
        elif used < _CHURN_LOW:
            op = "create"
        else:
            op = rng.choice(_CHURN_OPS)
        if op == "create":
            steps.run(state.create)
            continue
        # Reads and writes go to a large file one time in four.
        pool = state.large if op in ("pread", "pwrite") and rng.randrange(4) == 0 \
            else state.files
        path = rng.choice(sorted(pool))
        if op == "unlink":
            steps.run(state.unlink, path)
        elif op == "truncate":
            steps.run(state.truncate, path)
        else:
            offset = rng.randrange(max(1, fs.lookup(path).size))
            length = rng.randrange(1, 16 * KIB)
            if op == "pwrite":
                steps.run(state.sys.pwrite, pool[path], offset, bytes([length & 255]) * length)
            else:
                steps.run(state.sys.pread, pool[path], offset, length)
    fsck: List[str] = []
    if not steps.run(lambda: fsck.extend(fs.fsck())):
        fsck.append("fsck raised")
    elif fsck:
        steps.failed += 1
    violations = [v.format() for v in state.suite.violations]
    output = {
        "sim_ns": kernel.clock.now,
        "counters": _nonzero(kernel.counters.snapshot()),
        "fsck": fsck,
        "violations": violations,
        "sanitize_checks": dict(sorted(state.suite.checks.items())),
        "files": sorted(
            [path, fs.lookup(path).size, fs.extent_count(fs.lookup(path))]
            for path in list(state.files) + list(state.large)
        ),
    }
    return PassResult(
        sim_ns=kernel.clock.now - start_ns,
        output=output,
        counters=_delta(kernel, before),
        attempted=len(steps.ns),
        failed=steps.failed,
        problems=fsck + violations,
        sanitize_checks=sum(state.suite.checks.values()),
    )
