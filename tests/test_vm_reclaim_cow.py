"""Reclaim vs fork-shared COW windows: eviction must not strand siblings.

Regression tests for the window where kswapd-style eviction raced
fork's page-table subtree sharing: evicting a page whose translation
path is COW-shared would unmap it from one table while the sibling kept
a live PTE to the frame swap-out was about to free.  Pinned pages are
now refused (``vm_evict_pinned``) and kept on the LRU until the share
is broken.
"""

from __future__ import annotations

import pytest

from repro.kernel import Kernel, MachineConfig
from repro.sanitize import SanitizerSuite
from repro.units import GIB, MIB, PAGE_SIZE
from repro.vm.reclaimd import ClockReclaimer
from repro.vm.vma import MapFlags

PAGES = 16


@pytest.fixture
def swap_kernel() -> Kernel:
    return Kernel(
        MachineConfig(dram_bytes=64 * MIB, nvm_bytes=1 * GIB, swap_pages=1024)
    )


def _faulted_parent(kernel):
    parent = kernel.spawn("parent", track_lru=True)
    va = kernel.syscalls(parent).mmap(PAGES * PAGE_SIZE, flags=MapFlags.PRIVATE)
    for i in range(PAGES):
        kernel.access(parent, va + i * PAGE_SIZE, write=True)
    return parent, va


def _reclaimer(kernel) -> ClockReclaimer:
    return ClockReclaimer(kernel.lru, kernel.frame_table, kernel.counters)


class TestPinnedWindows:
    def test_fork_shared_pages_refuse_eviction(self, swap_kernel):
        kernel = swap_kernel
        parent, _va = _faulted_parent(kernel)
        kernel.fork(parent)

        resident_before = kernel.lru.resident_count
        reclaimed = _reclaimer(kernel).reclaim(PAGES)

        assert reclaimed == 0
        assert kernel.counters.get("vm_evict_pinned") > 0
        assert kernel.counters.get("swap_out") == 0
        # Refused pages go back on the active list, not off both lists:
        # once the share breaks they must still be findable.
        assert kernel.lru.resident_count == resident_before

    def test_sibling_survives_reclaim_attempt(self, swap_kernel):
        """TransSan-armed: after a refused pass both spaces stay coherent."""
        kernel = swap_kernel
        kernel.arm_sanitizers(SanitizerSuite())
        parent, va = _faulted_parent(kernel)
        child = kernel.fork(parent)

        _reclaimer(kernel).reclaim(PAGES)

        # The bug this guards against: the child translating to a frame
        # eviction had already pushed to swap and freed.  With sharing
        # respected, every access on both sides checks out.
        for i in range(PAGES):
            kernel.access(child, va + i * PAGE_SIZE, write=False)
            kernel.access(parent, va + i * PAGE_SIZE, write=False)
        assert kernel.counters.get("sanitize_violation") == 0

    def test_broken_share_becomes_evictable(self, swap_kernel):
        kernel = swap_kernel
        kernel.arm_sanitizers(SanitizerSuite())
        parent, va = _faulted_parent(kernel)
        child = kernel.fork(parent)
        assert _reclaimer(kernel).reclaim(PAGES) == 0

        child.exit()
        # Parent writes break the COW protection window by window; the
        # pages are private again and reclaim may unmap them.
        for i in range(PAGES):
            kernel.access(parent, va + i * PAGE_SIZE, write=True)
        reclaimed = _reclaimer(kernel).reclaim(PAGES // 2)
        assert reclaimed == PAGES // 2
        assert parent.space.resident_pages() == PAGES - PAGES // 2

        # The other half of the fix: evicting a COW private copy must
        # NOT push out (and free) the backing's original frame — the
        # copy itself keeps the data, so no writeback happens and the
        # next access re-installs it as a minor fault.
        assert kernel.counters.get("swap_out") == 0
        for i in range(PAGES):
            kernel.access(parent, va + i * PAGE_SIZE, write=False)
        assert parent.space.resident_pages() == PAGES
        assert kernel.counters.get("fault_major") == 0
        assert kernel.counters.get("sanitize_violation") == 0

    def test_never_forked_pages_swap_out_and_back(self, swap_kernel):
        """Control: without COW sharing eviction still writes back."""
        kernel = swap_kernel
        kernel.arm_sanitizers(SanitizerSuite())
        parent, va = _faulted_parent(kernel)
        assert _reclaimer(kernel).reclaim(PAGES // 2) == PAGES // 2
        assert kernel.counters.get("swap_out") == PAGES // 2

        for i in range(PAGES):
            kernel.access(parent, va + i * PAGE_SIZE, write=False)
        assert kernel.counters.get("swap_in") == PAGES // 2
        assert kernel.counters.get("fault_major") == PAGES // 2
        assert kernel.counters.get("sanitize_violation") == 0


class TestTargetedReclaim:
    def test_should_evict_filter_protects_other_pages(self, swap_kernel):
        kernel = swap_kernel
        a, _va_a = _faulted_parent(kernel)
        b = kernel.spawn("other", track_lru=True)
        va_b = kernel.syscalls(b).mmap(PAGES * PAGE_SIZE, flags=MapFlags.PRIVATE)
        for i in range(PAGES):
            kernel.access(b, va_b + i * PAGE_SIZE, write=True)

        reclaimer = _reclaimer(kernel)
        reclaimed = reclaimer.reclaim(
            4, should_evict=lambda entry: entry.space is b.space
        )
        assert reclaimed == 4
        # Only b's pages were taken; a's footprint is untouched.
        assert a.space.resident_pages() == PAGES
        assert b.space.resident_pages() == PAGES - 4

    def test_max_scan_caps_work_when_nothing_qualifies(self, swap_kernel):
        kernel = swap_kernel
        _faulted_parent(kernel)
        scanned_before = kernel.counters.get("reclaim_scanned")
        reclaimed = _reclaimer(kernel).reclaim(
            8, max_scan=4, should_evict=lambda entry: False
        )
        assert reclaimed == 0
        assert kernel.counters.get("reclaim_scanned") - scanned_before <= 4


# ----------------------------------------------------------------------
# LRU tracking across fork and COW breaks
# ----------------------------------------------------------------------
def _listed(kernel):
    """(pfn, space, vaddr) of every entry on either LRU list."""
    return {
        (entry.pfn, entry.space, entry.vaddr)
        for entry in (*kernel.lru.active, *kernel.lru.inactive)
    }


class TestLruFollowsMappings:
    def test_cow_break_moves_the_entry_to_the_private_copy(self, swap_kernel):
        kernel = swap_kernel
        parent = kernel.spawn("parent", track_lru=True)
        va = kernel.syscalls(parent).mmap(8 * PAGE_SIZE, flags=MapFlags.PRIVATE)
        for i in range(8):
            kernel.access(parent, va + i * PAGE_SIZE, write=True)
        kernel.fork(parent)
        for i in range(4):
            kernel.access(parent, va + i * PAGE_SIZE, write=True)

        mapped = {
            (parent.space.page_table.lookup(page).pfn, parent.space, page)
            for page in (va + i * PAGE_SIZE for i in range(8))
        }
        # Every page the parent maps is on the LRU under the frame it
        # maps now, the four private copies included.
        assert mapped <= _listed(kernel)
        assert kernel.lru.resident_count == 8

    @pytest.mark.parametrize("fork_policy", ["cow", "eager"])
    def test_children_of_tracked_parents_are_reclaimable(self, fork_policy):
        kernel = Kernel(
            MachineConfig(
                dram_bytes=64 * MIB, nvm_bytes=1 * GIB, swap_pages=1024,
                fork_policy=fork_policy,
            )
        )
        parent = kernel.spawn("parent", track_lru=True)
        child = kernel.syscalls(parent).fork()
        assert child.space.lru is kernel.lru

        va = kernel.syscalls(child).mmap(PAGES * PAGE_SIZE, flags=MapFlags.PRIVATE)
        for i in range(PAGES):
            kernel.access(child, va + i * PAGE_SIZE, write=True)
        assert {(child.space, va + i * PAGE_SIZE) for i in range(PAGES)} <= {
            (space, vaddr) for _pfn, space, vaddr in _listed(kernel)
        }
        assert _reclaimer(kernel).reclaim(PAGES // 2) == PAGES // 2
        assert child.space.resident_pages() == PAGES - PAGES // 2

    def test_untracked_parents_fork_untracked_children(self, swap_kernel):
        parent = swap_kernel.spawn("parent")
        assert swap_kernel.syscalls(parent).fork().space.lru is None
