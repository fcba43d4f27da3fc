"""Shared fixtures and hypothesis profiles for the test suite.

Hypothesis settings live here, not on individual tests: one
``settings.register_profile`` per use case, selected with
``--hypothesis-profile=<name>`` (the CI workflow passes ``ci``).

* ``dev`` (default) — no deadline (the simulator advances a virtual
  clock; wall-time deadlines only add flakiness), modest example count.
* ``ci`` — like dev but ``derandomize=True``: the example sequence is
  fixed, so a CI failure always reproduces locally with the same flag.
* ``heavy`` — 10x examples for the scheduled (cron) deep run.
"""

from __future__ import annotations

import os
from typing import Tuple

import pytest
from hypothesis import HealthCheck, settings

from repro.hw.clock import EventCounters, SimClock
from repro.hw.costmodel import CostModel, MemoryTechnology
from repro.kernel import Kernel, MachineConfig
from repro.mem.buddy import BuddyAllocator
from repro.mem.physical import MemoryRegion, PhysicalMemory
from repro.perf import WallProfiler
from repro.ras import MediaFaultModel
from repro.sanitize import SanitizerSuite
from repro.units import GIB, MIB

_COMMON = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile("dev", max_examples=100, **_COMMON)
settings.register_profile(
    "ci", max_examples=100, derandomize=True, **_COMMON
)
settings.register_profile("heavy", max_examples=1000, **_COMMON)
settings.load_profile("dev")


#: What each ``REPRO_ARM`` name arms on a Kernel, in arming order.  The
#: sanitizers run in halt mode, so any translation/frame/persist
#: incoherence fails the test that caused it.  RAS gets a clean fault model
#: and QoS only the limitless root cgroup, so their hooks run everywhere
#: while nothing is injected and no watermark can breach.  The profiler
#: also enables tracing.  No armed hook may move a simulated ns.
ARMABLE = {
    "sanitize": lambda kernel: kernel.arm_sanitizers(SanitizerSuite()),
    "ras": lambda kernel: kernel.arm_ras(
        model=MediaFaultModel(seed=0, faults_per_bind=0)
    ),
    "qos": lambda kernel: kernel.arm_qos(),
    "profile": lambda kernel: kernel.arm_profiler(WallProfiler()),
}


def _ordered(names) -> Tuple[str, ...]:
    wanted = set(names)
    unknown = wanted - set(ARMABLE)
    if unknown:
        raise pytest.UsageError(
            f"REPRO_ARM names unknown subsystems {sorted(unknown)}; "
            f"choose from {','.join(ARMABLE)}"
        )
    return tuple(name for name in ARMABLE if name in wanted)


#: Armed tier-1: ``REPRO_ARM=sanitize,ras,qos,profile`` (any subset) arms
#: every Kernel built anywhere in the suite.
ENV_ARMED = _ordered(
    name.strip() for name in os.environ.get("REPRO_ARM", "").split(",") if name.strip()
)
#: What the next Kernel gets; the ``_arming`` fixture sets it per test.
_armed: Tuple[str, ...] = ENV_ARMED

_kernel_init = Kernel.__init__


def _armed_kernel_init(self, *args, **kwargs):  # type: ignore[no-untyped-def]
    _kernel_init(self, *args, **kwargs)
    for name in _armed:
        ARMABLE[name](self)


Kernel.__init__ = _armed_kernel_init  # type: ignore[method-assign]


@pytest.fixture(autouse=True)
def _arming(request):
    """Arm per ``REPRO_ARM``, or not at all under ``@pytest.mark.unarmed``."""
    global _armed
    unarmed = request.node.get_closest_marker("unarmed") is not None
    _armed = () if unarmed else ENV_ARMED
    yield
    _armed = ENV_ARMED


@pytest.fixture
def arm_kernels():
    """Add subsystems to what every Kernel built in this test gets."""

    def arm(names) -> None:
        global _armed
        _armed = _ordered(set(_armed) | set(names))

    return arm


@pytest.fixture
def clock() -> SimClock:
    return SimClock()


@pytest.fixture
def counters() -> EventCounters:
    return EventCounters()


@pytest.fixture
def costs() -> CostModel:
    return CostModel()


@pytest.fixture
def dram_region() -> MemoryRegion:
    return MemoryRegion(start=0, size=256 * MIB, tech=MemoryTechnology.DRAM, name="t-dram")


@pytest.fixture
def buddy(dram_region, clock, costs, counters) -> BuddyAllocator:
    return BuddyAllocator(dram_region, clock=clock, costs=costs, counters=counters)


@pytest.fixture
def kernel() -> Kernel:
    """Small default machine: 512 MiB DRAM + 1 GiB NVM."""
    return Kernel(MachineConfig(dram_bytes=512 * MIB, nvm_bytes=1 * GIB))


@pytest.fixture
def smp_kernel() -> Kernel:
    """Four-core machine: TLB invalidations broadcast shootdown IPIs."""
    return Kernel(MachineConfig(dram_bytes=512 * MIB, nvm_bytes=1 * GIB, cpus=4))


@pytest.fixture
def range_kernel() -> Kernel:
    """Machine with range-translation hardware and aligned PMFS extents."""
    return Kernel(
        MachineConfig(
            dram_bytes=512 * MIB,
            nvm_bytes=2 * GIB,
            range_hardware=True,
            pmfs_extent_align_frames=512,
        )
    )


@pytest.fixture
def aligned_kernel() -> Kernel:
    """Machine whose PMFS extents are 2 MiB-aligned (for PBM/premap)."""
    return Kernel(
        MachineConfig(
            dram_bytes=512 * MIB,
            nvm_bytes=2 * GIB,
            pmfs_extent_align_frames=512,
        )
    )


@pytest.fixture(scope="session")
def real_lint_run():
    """One static ``repro-o1 lint`` run over the shipped tree.

    Shared read-only by the real-tree gates (conformance, flow, alloc):
    the run is deterministic, so one parse serves them all.
    """
    from pathlib import Path

    import repro
    from repro.lint.flow import run_lint

    return run_lint(Path(repro.__file__).resolve().parent)
