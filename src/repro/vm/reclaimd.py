"""Page-reclaim baselines: clock (second chance) and 2Q.

These are the algorithms the paper's §3.1 declares unnecessary under
file-only memory ("avoids the need for page reclamation algorithms (e.g.,
clock, 2-queue)").  Both are implemented faithfully enough to expose their
defining cost: *scanning* — every page examined is a charged metadata
touch, so reclaiming under pressure is linear in resident memory even when
few pages are actually evicted.  Bench E10 contrasts this with file-
granularity reclamation (delete one discardable file, O(1) per file).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, Optional

from repro.hw.clock import EventCounters
from repro.lint import complexity
from repro.mem.frame_meta import FrameTable, PageFlags


@dataclass
class _LruEntry:
    """One resident page the reclaimers may scan."""

    pfn: int
    space: object  # AddressSpace; typed loosely to avoid an import cycle
    vaddr: int


#: ``PageFlags.REFERENCED`` as the plain int ``FrameMeta.flags`` holds.
_REFERENCED = PageFlags.REFERENCED.value


class LruLists:
    """Active/inactive page lists shared by the reclaim algorithms."""

    def __init__(self, frame_table: FrameTable) -> None:
        self._frame_table = frame_table
        self.active: Deque[_LruEntry] = deque()
        self.inactive: Deque[_LruEntry] = deque()
        self._entries: Dict[int, _LruEntry] = {}

    def page_mapped(self, pfn: int, space: object, vaddr: int) -> None:
        """Register a freshly mapped page (called from the fault path).

        A frame already on a list whose owner unmapped or exited may be
        reused by another mapping: the entry is re-pointed at the new
        owner in place, keeping its list position and label, so the page
        stays reclaimable instead of being shadowed by a dead entry.
        """
        entry = self._entries.get(pfn)
        if entry is not None:
            entry.space = space
            entry.vaddr = vaddr
            return
        entry = _LruEntry(pfn=pfn, space=space, vaddr=vaddr)
        self._entries[pfn] = entry
        self.inactive.append(entry)
        meta = self._frame_table.peek(pfn)
        if meta is not None:
            meta.lru_list = "inactive"

    def page_moved(
        self, old_pfn: int, new_pfn: int, space: object, vaddr: int
    ) -> None:
        """``(space, vaddr)`` now maps ``new_pfn`` (a COW break's copy).

        Its entry follows the copy, keeping list position and label; the
        old frame stays mapped only by sharers that never faulted it in,
        so it leaves the lists.
        """
        entry = self._entries.get(old_pfn)
        if entry is None or entry.space is not space or entry.vaddr != vaddr:
            self.page_mapped(new_pfn, space, vaddr)
            return
        if new_pfn in self._entries:
            # The copy's frame still carries a departed owner's entry.
            self.page_unmapped(old_pfn)
            self.page_mapped(new_pfn, space, vaddr)
            return
        del self._entries[old_pfn]
        entry.pfn = new_pfn
        self._entries[new_pfn] = entry
        old_meta = self._frame_table.peek(old_pfn)
        new_meta = self._frame_table.peek(new_pfn)
        if new_meta is not None:
            new_meta.lru_list = old_meta.lru_list if old_meta else "inactive"
        if old_meta is not None:
            old_meta.lru_list = ""

    def page_unmapped(self, pfn: int) -> None:
        """Forget a page that went away outside reclaim (munmap)."""
        entry = self._entries.pop(pfn, None)
        if entry is None:
            return
        for queue in (self.active, self.inactive):
            try:
                queue.remove(entry)
            except ValueError:
                pass

    @property
    def resident_count(self) -> int:
        """Pages currently tracked on either list."""
        return len(self._entries)

    def _drop(self, entry: _LruEntry) -> None:
        self._entries.pop(entry.pfn, None)


class _Scanner:
    """Shared plumbing of the reclaimers: batched scan charges.

    Every examined page costs one metadata update and one
    ``reclaim_scanned`` bump.  The scan loops count examined pages in a
    local and pay them with one :meth:`_charge_scanned` — the same clock
    total and counters as a charge per page — immediately before each
    ``evict_page`` call (the only call in a loop that can read the
    clock, open a trace span or raise) and once on the way out, so every
    eviction, span boundary and exception sees the clock it always did.
    """

    def __init__(
        self,
        lru: LruLists,
        frame_table: FrameTable,
        counters: EventCounters,
    ) -> None:
        self._lru = lru
        self._frame_table = frame_table
        self._counters = counters

    def _charge_scanned(self, count: int) -> None:
        """Pay for ``count`` examined pages (no-op for zero)."""
        if count:
            self._counters.bump("reclaim_scanned", count)
            self._frame_table.charge(count)


class ClockReclaimer(_Scanner):
    """Second-chance (clock) reclaim over the LRU lists.

    ``reclaim(n)`` scans the inactive list: referenced pages get a second
    chance (promoted to active, flag cleared); unreferenced pages are
    evicted via their address space.  When the inactive list runs dry the
    active list is aged into it.  Every examined page is a charged
    metadata update — the linear scan cost.
    """

    @complexity("n", note="the scan IS the cost; callers bound it via max_scan")
    def reclaim(
        self,
        nr_pages: int,
        max_scan: Optional[int] = None,
        should_evict: Optional[Callable[[_LruEntry], bool]] = None,
    ) -> int:
        """Try to evict ``nr_pages``; returns pages actually reclaimed.

        ``max_scan`` caps the number of pages examined (the QoS
        controller passes a batch-proportional cap so one direct-reclaim
        pass stays O(1) in resident memory); the default is the kswapd-
        style few-passes-over-everything budget.  ``should_evict``
        filters candidates — pages it rejects keep their second chance
        on the active list (memcg-targeted reclaim skips other tenants'
        frames without losing track of them).  It must be a pure
        predicate on the entry: scan charges are batched across it, so
        it would see the clock short of the pages examined before it.
        """
        tracer = self._counters.tracer
        if tracer is not None and tracer.enabled:
            tracer.begin("reclaim", "reclaim", args={"requested": nr_pages})
            try:
                reclaimed = self._reclaim(nr_pages, max_scan, should_evict)
            finally:
                tracer.end()
            return reclaimed
        return self._reclaim(nr_pages, max_scan, should_evict)

    @complexity("n", note="scan-budgeted clock hand; every examined page is charged")
    def _reclaim(
        self,
        nr_pages: int,
        max_scan: Optional[int] = None,
        should_evict: Optional[Callable[[_LruEntry], bool]] = None,
    ) -> int:
        lru = self._lru
        active = lru.active
        inactive = lru.inactive
        meta_of = self._frame_table.meta
        reclaimed = 0
        # Bound total scanning at a few passes over everything, as kswapd
        # priorities do, so pressure with all-hot pages terminates.
        scan_budget = (
            max_scan
            if max_scan is not None
            else 4 * max(1, lru.resident_count)
        )
        scanned = 0  # examined but not yet charged
        try:
            while reclaimed < nr_pages and scan_budget > 0:
                if not inactive:
                    # o1: allow(flow-bounded) -- aging moves pages the scan then consumes; amortized into the declared n
                    aged = self._age_active()
                    if not aged:
                        break
                    scanned += aged
                entry = inactive.popleft()
                scan_budget -= 1
                scanned += 1
                meta = meta_of(entry.pfn)
                flags = meta.flags
                if flags & _REFERENCED:
                    meta.flags = flags ^ _REFERENCED
                    meta.lru_list = "active"
                    active.append(entry)
                    continue
                if should_evict is not None and not should_evict(entry):
                    # Not this caller's page to take: protect it for now.
                    meta.lru_list = "active"
                    active.append(entry)
                    continue
                self._charge_scanned(scanned)
                scanned = 0
                if entry.space.evict_page(entry.vaddr):
                    lru._drop(entry)
                    meta.lru_list = ""
                    reclaimed += 1
                    self._counters.bump("reclaim_evicted")
                else:
                    # Pinned (e.g. a fork-shared COW window): keep it on
                    # the active list so it is revisited once unpinned,
                    # instead of silently falling off both lists.
                    meta.lru_list = "active"
                    active.append(entry)
        finally:
            self._charge_scanned(scanned)
        return reclaimed

    @complexity("n", note="one relabelling pass over the active list")
    def _age_active(self) -> int:
        """Move the active list to inactive (one aging pass).

        Returns how many pages were aged; the caller charges them, one
        metadata update each, with its own scan batch.
        """
        active = self._lru.active
        meta_of = self._frame_table.meta
        for entry in active:
            meta_of(entry.pfn).lru_list = "inactive"
        aged = len(active)
        self._lru.inactive.extend(active)
        active.clear()
        return aged


class TwoQueueReclaimer(_Scanner):
    """Simplified 2Q: FIFO trial queue (A1) plus a protected main queue (Am).

    New pages enter A1 and are evicted from it unless referenced, in which
    case they are promoted to Am; Am overflows back into A1's tail.  Like
    clock, every examined page charges a metadata update.
    """

    def __init__(
        self,
        lru: LruLists,
        frame_table: FrameTable,
        counters: EventCounters,
        protected_fraction: float = 0.75,
    ) -> None:
        if not 0.0 < protected_fraction < 1.0:
            raise ValueError("protected_fraction must be in (0, 1)")
        super().__init__(lru, frame_table, counters)  # inactive = A1, active = Am
        self._protected_fraction = protected_fraction

    def reclaim(self, nr_pages: int) -> int:
        """Try to evict ``nr_pages``; returns pages actually reclaimed."""
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
        lru = self._lru
        active = lru.active
        inactive = lru.inactive
        meta_of = self._frame_table.meta
        reclaimed = 0
        scan_budget = 4 * max(1, lru.resident_count)
        max_protected = int(self._protected_fraction * lru.resident_count)
        scanned = 0  # examined but not yet charged
        try:
            while reclaimed < nr_pages and scan_budget > 0:
                if not inactive:
                    if not active:
                        break
                    # Demote the Am head when A1 is empty.
                    entry = active.popleft()
                    scanned += 1
                    scan_budget -= 1
                    meta_of(entry.pfn).lru_list = "inactive"
                    inactive.append(entry)
                    continue
                entry = inactive.popleft()
                scan_budget -= 1
                scanned += 1
                meta = meta_of(entry.pfn)
                flags = meta.flags
                if flags & _REFERENCED and len(active) < max_protected:
                    meta.flags = flags ^ _REFERENCED
                    meta.lru_list = "active"
                    active.append(entry)
                    continue
                self._charge_scanned(scanned)
                scanned = 0
                if entry.space.evict_page(entry.vaddr):
                    lru._drop(entry)
                    meta.lru_list = ""
                    reclaimed += 1
                    self._counters.bump("reclaim_evicted")
                else:
                    # Pinned page (fork-shared COW window): protect it
                    # rather than dropping it from both lists.
                    meta.lru_list = "active"
                    active.append(entry)
        finally:
            self._charge_scanned(scanned)
        return reclaimed
