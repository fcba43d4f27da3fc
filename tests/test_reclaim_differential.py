"""Differential reclaim harness: batched scan charges vs per-page charges.

The reclaimers in :mod:`repro.vm.reclaimd` count examined pages in a
local and pay them with one clock advance and one bump per counter,
flushed immediately before each ``evict_page`` call and once on the way
out.  This file keeps the per-page loops they replaced — every examined
page a charged ``FrameTable.touch`` and its own ``reclaim_scanned`` bump
— as the reference, and replays the same LRU state through both.

Hypothesis generates LRU states: REFERENCED bits, pages on either list,
frames with and without metadata, pinned pages whose eviction is
refused, an eviction that raises, ``max_scan`` caps, ``should_evict``
filters and empty lists.  The oracles:

1. **The batching invariant.**  Every ``evict_page`` call sees the same
   clock value and the same counter snapshot on both sides.
2. **Identical results and final state.**  Return values (or the raised
   error), the final clock, the counter snapshot in insertion order, the
   contents and order of both lists, every frame's metadata (flags and
   ``lru_list`` label included).
3. **Identical span attribution** when the tracer is enabled: the same
   events at the same simulated times and the same per-subsystem totals.

A second harness drives real machines — faulted, forked (COW-shared
pages are pinned) and partly COW-broken — with the eviction calls
wrapped to record the clock.
"""

from typing import Callable, Optional

from hypothesis import given, settings, strategies as st

from repro.errors import OutOfMemoryError
from repro.hw.clock import SimClock
from repro.hw.costmodel import CostModel
from repro.kernel import Kernel, MachineConfig
from repro.mem.frame_meta import FrameTable, PageFlags
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.units import MIB, PAGE_SIZE
from repro.vm.reclaimd import (
    ClockReclaimer,
    LruLists,
    TwoQueueReclaimer,
    _LruEntry,
)


# ----------------------------------------------------------------------
# Reference: the per-page loops, one charged touch per examined page
# ----------------------------------------------------------------------
class RefClockReclaimer:
    """Second chance with a charge and a bump per examined page."""

    def __init__(self, lru, frame_table, counters) -> None:
        self._lru = lru
        self._frame_table = frame_table
        self._counters = counters

    def reclaim(
        self,
        nr_pages: int,
        max_scan: Optional[int] = None,
        should_evict: Optional[Callable[[_LruEntry], bool]] = None,
    ) -> int:
        tracer = self._counters.tracer
        if tracer is not None and tracer.enabled:
            tracer.begin("reclaim", "reclaim", args={"requested": nr_pages})
            try:
                reclaimed = self._reclaim(nr_pages, max_scan, should_evict)
            finally:
                tracer.end()
            return reclaimed
        return self._reclaim(nr_pages, max_scan, should_evict)

    def _reclaim(self, nr_pages, max_scan=None, should_evict=None) -> int:
        reclaimed = 0
        scan_budget = (
            max_scan
            if max_scan is not None
            else 4 * max(1, self._lru.resident_count)
        )
        while reclaimed < nr_pages and scan_budget > 0:
            if not self._lru.inactive:
                if not self._age_active():
                    break
            entry = self._lru.inactive.popleft()
            scan_budget -= 1
            self._counters.bump("reclaim_scanned")
            meta = self._frame_table.touch(entry.pfn)
            if meta.has_flag(PageFlags.REFERENCED):
                meta.clear_flag(PageFlags.REFERENCED)
                meta.lru_list = "active"
                self._lru.active.append(entry)
                continue
            if should_evict is not None and not should_evict(entry):
                meta.lru_list = "active"
                self._lru.active.append(entry)
                continue
            if entry.space.evict_page(entry.vaddr):
                self._lru._drop(entry)
                meta.lru_list = ""
                reclaimed += 1
                self._counters.bump("reclaim_evicted")
            else:
                meta.lru_list = "active"
                self._lru.active.append(entry)
        return reclaimed

    def _age_active(self) -> bool:
        if not self._lru.active:
            return False
        while self._lru.active:
            entry = self._lru.active.popleft()
            self._counters.bump("reclaim_scanned")
            meta = self._frame_table.touch(entry.pfn)
            meta.lru_list = "inactive"
            self._lru.inactive.append(entry)
        return True


class RefTwoQueueReclaimer:
    """2Q with a charge and a bump per examined page."""

    def __init__(self, lru, frame_table, counters, protected_fraction=0.75):
        self._lru = lru
        self._frame_table = frame_table
        self._counters = counters
        self._protected_fraction = protected_fraction

    def reclaim(self, nr_pages: int) -> int:
        tracer = self._counters.tracer
        if tracer is not None and tracer.enabled:
            tracer.begin("reclaim", "reclaim", args={"requested": nr_pages})
            try:
                reclaimed = self._reclaim(nr_pages)
            finally:
                tracer.end()
            return reclaimed
        return self._reclaim(nr_pages)

    def _reclaim(self, nr_pages: int) -> int:
        reclaimed = 0
        scan_budget = 4 * max(1, self._lru.resident_count)
        max_protected = int(self._protected_fraction * self._lru.resident_count)
        while reclaimed < nr_pages and scan_budget > 0:
            if not self._lru.inactive:
                if not self._lru.active:
                    break
                entry = self._lru.active.popleft()
                self._counters.bump("reclaim_scanned")
                scan_budget -= 1
                self._frame_table.touch(entry.pfn).lru_list = "inactive"
                self._lru.inactive.append(entry)
                continue
            entry = self._lru.inactive.popleft()
            scan_budget -= 1
            self._counters.bump("reclaim_scanned")
            meta = self._frame_table.touch(entry.pfn)
            if (
                meta.has_flag(PageFlags.REFERENCED)
                and len(self._lru.active) < max_protected
            ):
                meta.clear_flag(PageFlags.REFERENCED)
                meta.lru_list = "active"
                self._lru.active.append(entry)
                continue
            if entry.space.evict_page(entry.vaddr):
                self._lru._drop(entry)
                meta.lru_list = ""
                reclaimed += 1
                self._counters.bump("reclaim_evicted")
            else:
                meta.lru_list = "active"
                self._lru.active.append(entry)
        return reclaimed


# ----------------------------------------------------------------------
# Synthetic worlds: a bare frame table and LRU over stand-in spaces
# ----------------------------------------------------------------------
#: Simulated cost of one stand-in eviction (a swap write, roughly).
EVICT_NS = 1_000
OWNERS = 3


class _Space:
    """Stand-in address space: eviction is logged, traced and charged."""

    def __init__(self, world: "_World", owner: int) -> None:
        self.world = world
        self.owner = owner
        self.pinned = set()
        self.failing = set()

    def evict_page(self, vaddr: int) -> bool:
        world = self.world
        world.evictions.append(
            (self.owner, vaddr, world.clock.now, world.counter_items())
        )
        tracer = world.tracer
        tracer.begin("evict", "vm", args={"vaddr": vaddr})
        try:
            world.clock.advance(EVICT_NS)
            if vaddr in self.failing:
                raise OutOfMemoryError(f"swap full evicting {vaddr:#x}")
            if vaddr in self.pinned:
                world.counters.bump("vm_evict_pinned")
                return False
            world.counters.bump("vm_page_evict")
            return True
        finally:
            tracer.end()


class _World:
    """One replica of a drawn LRU state."""

    def __init__(self, pages, traced: bool, fail_at: Optional[int]) -> None:
        self.clock = SimClock()
        self.counters = MetricsRegistry()
        self.tracer = Tracer(self.clock, metrics=self.counters)
        self.counters.tracer = self.tracer
        if traced:
            self.tracer.enable()
        self.table = FrameTable(self.clock, CostModel(), self.counters)
        self.lru = LruLists(self.table)
        self.spaces = [_Space(self, owner) for owner in range(OWNERS)]
        self.evictions = []
        for index, (referenced, active, owner, pinned, has_meta) in enumerate(pages):
            pfn = 7 + 5 * index
            vaddr = (index + 1) * PAGE_SIZE
            space = self.spaces[owner]
            meta = None
            if has_meta or referenced:
                meta = self.table.meta(pfn)
                if referenced:
                    meta.set_flag(PageFlags.REFERENCED)
                meta.set_flag(PageFlags.LRU)
            self.lru.page_mapped(pfn, space, vaddr)
            if active:
                self.lru.active.append(self.lru.inactive.pop())
                if meta is not None:
                    meta.lru_list = "active"
            if pinned:
                space.pinned.add(vaddr)
            if fail_at == index:
                space.failing.add(vaddr)

    def counter_items(self):
        return list(self.counters.snapshot().items())

    def state(self):
        def listed(queue):
            return [(e.pfn, e.space.owner, e.vaddr) for e in queue]

        return {
            "clock": self.clock.now,
            "counters": self.counter_items(),
            "active": listed(self.lru.active),
            "inactive": listed(self.lru.inactive),
            "entries": sorted(self.lru._entries),
            "frames": sorted(self.table.items()),
            "evictions": self.evictions,
            "events": self.tracer.events(),
            "attribution": sorted(self.tracer.attribution.items()),
            "open_spans": self.tracer.open_spans,
        }


def _run(reclaim: Callable[[], int]):
    try:
        return ("ok", reclaim())
    except OutOfMemoryError as exc:
        return ("raised", str(exc))


PAGES = st.lists(
    st.tuples(
        st.booleans(),  # REFERENCED
        st.booleans(),  # starts on the active list
        st.integers(0, OWNERS - 1),  # owning space
        st.booleans(),  # eviction refused (pinned COW share)
        st.booleans(),  # metadata already instantiated
    ),
    max_size=40,
)
CLOCK_CALLS = st.lists(
    st.tuples(
        st.integers(0, 12),  # nr_pages
        st.one_of(st.none(), st.integers(0, 120)),  # max_scan
        st.one_of(  # should_evict: owners it accepts
            st.none(), st.frozensets(st.integers(0, OWNERS - 1))
        ),
    ),
    min_size=1,
    max_size=4,
)


def _filter(owners):
    if owners is None:
        return None
    return lambda entry: entry.space.owner in owners


@given(
    pages=PAGES,
    calls=CLOCK_CALLS,
    traced=st.booleans(),
    fail_at=st.one_of(st.none(), st.integers(0, 39)),
)
@settings(max_examples=150, deadline=None)
def test_clock_batched_matches_per_page(pages, calls, traced, fail_at):
    ref = _World(pages, traced, fail_at)
    new = _World(pages, traced, fail_at)
    ref_reclaimer = RefClockReclaimer(ref.lru, ref.table, ref.counters)
    new_reclaimer = ClockReclaimer(new.lru, new.table, new.counters)
    for nr_pages, max_scan, owners in calls:
        expected = _run(
            lambda: ref_reclaimer.reclaim(nr_pages, max_scan, _filter(owners))
        )
        got = _run(
            lambda: new_reclaimer.reclaim(nr_pages, max_scan, _filter(owners))
        )
        assert got == expected
        # Checked after every call, not only at the end: the clock and
        # counters each eviction saw are logged in ``evictions``.
        assert new.state() == ref.state()


@given(
    pages=PAGES,
    calls=st.lists(st.integers(0, 12), min_size=1, max_size=4),
    fraction=st.sampled_from([0.25, 0.5, 0.75]),
    traced=st.booleans(),
    fail_at=st.one_of(st.none(), st.integers(0, 39)),
)
@settings(max_examples=100, deadline=None)
def test_two_queue_batched_matches_per_page(pages, calls, fraction, traced, fail_at):
    ref = _World(pages, traced, fail_at)
    new = _World(pages, traced, fail_at)
    ref_reclaimer = RefTwoQueueReclaimer(ref.lru, ref.table, ref.counters, fraction)
    new_reclaimer = TwoQueueReclaimer(new.lru, new.table, new.counters, fraction)
    for nr_pages in calls:
        expected = _run(lambda: ref_reclaimer.reclaim(nr_pages))
        got = _run(lambda: new_reclaimer.reclaim(nr_pages))
        assert got == expected
        assert new.state() == ref.state()


# ----------------------------------------------------------------------
# Real machines: faults, fork-pinned COW shares, swap-out evictions
# ----------------------------------------------------------------------
class _Machine:
    """One replica: a tracked process, maybe forked, with eviction logged."""

    def __init__(self, pages: int, fork: bool, writes, traced: bool) -> None:
        self.kernel = kernel = Kernel(
            MachineConfig(dram_bytes=64 * MIB, nvm_bytes=0, swap_pages=1024)
        )
        if traced:
            kernel.tracer.enable()
        parent = kernel.spawn("parent", track_lru=True)
        sys_calls = kernel.syscalls(parent)
        va = sys_calls.mmap(pages * PAGE_SIZE)
        kernel.access_range(parent, va, pages * PAGE_SIZE, write=True)
        self.evictions = []
        spaces = [parent.space]
        if fork:
            child = sys_calls.fork()  # inherits the parent's LRU tracking
            spaces.append(child.space)
            for page in writes:  # COW breaks unpin some of the parent's pages
                kernel.access(parent, va + (page % pages) * PAGE_SIZE, write=True)
        for index, space in enumerate(spaces):
            self._log_evictions(index, space)

    def _log_evictions(self, index, space) -> None:
        evict = space.evict_page
        kernel = self.kernel

        def logged(vaddr):
            self.evictions.append(
                (index, vaddr, kernel.clock.now, list(kernel.counters.snapshot().items()))
            )
            return evict(vaddr)

        space.evict_page = logged

    def state(self):
        kernel = self.kernel

        def listed(queue):
            return [(e.pfn, e.vaddr) for e in queue]

        return {
            "clock": kernel.clock.now,
            "counters": list(kernel.counters.snapshot().items()),
            "active": listed(kernel.lru.active),
            "inactive": listed(kernel.lru.inactive),
            "frames": sorted(kernel.frame_table.items()),
            "evictions": self.evictions,
            "events": kernel.tracer.events(),
            "attribution": sorted(kernel.tracer.attribution.items()),
        }


@given(
    pages=st.integers(1, 48),
    fork=st.booleans(),
    writes=st.lists(st.integers(0, 47), max_size=8),
    calls=st.lists(
        st.tuples(st.integers(1, 24), st.one_of(st.none(), st.integers(1, 96))),
        min_size=1,
        max_size=3,
    ),
    traced=st.booleans(),
)
@settings(max_examples=30, deadline=None)
def test_machine_clock_reclaim_matches_per_page(pages, fork, writes, calls, traced):
    ref = _Machine(pages, fork, writes, traced)
    new = _Machine(pages, fork, writes, traced)
    assert new.state() == ref.state()
    ref_reclaimer = RefClockReclaimer(
        ref.kernel.lru, ref.kernel.frame_table, ref.kernel.counters
    )
    new_reclaimer = ClockReclaimer(
        new.kernel.lru, new.kernel.frame_table, new.kernel.counters
    )
    for nr_pages, max_scan in calls:
        assert new_reclaimer.reclaim(nr_pages, max_scan) == ref_reclaimer.reclaim(
            nr_pages, max_scan
        )
        assert new.state() == ref.state()


@given(
    pages=st.integers(1, 48),
    fork=st.booleans(),
    writes=st.lists(st.integers(0, 47), max_size=8),
    calls=st.lists(st.integers(1, 24), min_size=1, max_size=3),
)
@settings(max_examples=20, deadline=None)
def test_machine_two_queue_matches_per_page(pages, fork, writes, calls):
    ref = _Machine(pages, fork, writes, traced=True)
    new = _Machine(pages, fork, writes, traced=True)
    ref_reclaimer = RefTwoQueueReclaimer(
        ref.kernel.lru, ref.kernel.frame_table, ref.kernel.counters
    )
    new_reclaimer = TwoQueueReclaimer(
        new.kernel.lru, new.kernel.frame_table, new.kernel.counters
    )
    for nr_pages in calls:
        assert new_reclaimer.reclaim(nr_pages) == ref_reclaimer.reclaim(nr_pages)
        assert new.state() == ref.state()
