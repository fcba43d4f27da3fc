"""TransSan: translation-coherence detector.

Shadow state: a refcount per 4 KiB physical frame of how many live
translations (PTEs, including donor tables for premap/PBM sharing)
point into it.  The authoritative VA->PA truth is the machine's own
page table / range table — deliberately so: the detector's job is to
catch the *caches* (TLB, range TLB) disagreeing with that truth at use
time, and frames being freed while the truth still reaches them.

Checks:

* **stale TLB / rTLB entry used** — on every TLB or range-TLB hit the
  entry is compared against the architectural structure it caches; a
  mismatch means a PTE or range mutation happened without a shootdown.
* **dangling translation into a freed frame** — on every frame free
  (buddy or PMFS extent) the shadow refcount for the covered frames
  must be zero.
* **PBM alias violation** — no physical frame may be claimed by PBM
  mappings of two distinct files at once.

All bookkeeping is pure Python dict traffic: no simulated-clock
charges, no counter bumps on the success path.
"""

from __future__ import annotations

import bisect
from typing import Any, Callable, Dict, Tuple

from repro.lint.decorators import complexity
from repro.units import PAGE_SIZE

#: Signature of the suite's violation sink: (kind, message, details).
Report = Callable[[str, str, Dict[str, Any]], None]


class TransSan:
    """Translation-coherence shadow state and checks."""

    def __init__(self, report: Report) -> None:
        self._report = report
        #: 4 KiB frame number -> number of live translations into it.
        self._refs: Dict[int, int] = {}
        #: PBM claims: 4 KiB frame number -> (ino, claim count).
        self._claims: Dict[int, Tuple[int, int]] = {}

    # ------------------------------------------------------------------
    # Shadow maintenance (PTE installs / removals)
    # ------------------------------------------------------------------
    @complexity("n", note="one shadow ref per 4 KiB frame of the PTE")
    def register_pte(self, pte: Any) -> None:
        """A PTE was installed: count its frames as translated."""
        first = pte.paddr // PAGE_SIZE
        for frame in range(first, first + pte.page_size // PAGE_SIZE):
            self._refs[frame] = self._refs.get(frame, 0) + 1

    @complexity("n", note="one shadow ref per 4 KiB frame of the PTE")
    def unregister_pte(self, pte: Any) -> None:
        """A PTE was removed.

        Forgiving on unbalanced removals: a machine crash resets the
        shadow wholesale, so teardown that runs afterwards (process
        exits inside ``Kernel.crash``) legitimately unmaps entries the
        shadow no longer tracks.
        """
        first = pte.paddr // PAGE_SIZE
        for frame in range(first, first + pte.page_size // PAGE_SIZE):
            count = self._refs.get(frame, 0)
            if count <= 1:
                self._refs.pop(frame, None)
            else:
                self._refs[frame] = count - 1

    @complexity("n", note="one visit per live entry under the dead subtree")
    def unregister_subtree(self, node: Any) -> None:
        """A shared subtree's last reference dropped: unregister its leaves.

        Child nodes still referenced elsewhere (``refs > 1``) keep their
        translations registered — they remain reachable through the
        surviving owner.
        """
        for entry in node.entries.values():
            if hasattr(entry, "entries"):
                if getattr(entry, "refs", 1) <= 1:
                    # o1: allow(flow-bounded) -- recursion depth is the fixed radix level count
                    self.unregister_subtree(entry)
            else:
                # o1: allow(flow-bounded) -- per-leaf unregister; the subtree walk is the declared n
                self.unregister_pte(entry)

    def reset(self) -> None:
        """Machine crash: volatile translations (and PBM claims) vanish."""
        self._refs.clear()
        self._claims.clear()

    # ------------------------------------------------------------------
    # Use-time cache coherence
    # ------------------------------------------------------------------
    def check_tlb_hit(self, space: Any, vaddr: int, entry: Any, write: bool) -> None:
        """Validate a page-TLB hit against the architectural page table."""
        page_table = getattr(space, "page_table", None)
        if page_table is None:
            return
        pte = page_table.lookup(vaddr)
        stale: str = ""
        if pte is None:
            stale = "no PTE backs the cached translation"
        elif pte.page_size != entry.page_size or pte.paddr != entry.paddr:
            stale = (
                f"PTE maps to {pte.paddr:#x}/{pte.page_size} but the TLB "
                f"cached {entry.paddr:#x}/{entry.page_size}"
            )
        elif write and entry.writable and not pte.writable:
            stale = "write through a TLB entry whose PTE was downgraded read-only"
        if stale:
            self._report(
                "stale-tlb-entry",
                f"TLB hit at va {vaddr:#x} used a stale translation "
                f"(missing shootdown?): {stale}",
                {"vaddr": vaddr, "asid": getattr(space, "asid", None), "write": write},
            )

    def check_rtlb_hit(self, space: Any, vaddr: int, entry: Any, write: bool) -> None:
        """Validate a range-TLB hit against the architectural range table.

        The authoritative lookup goes through the range table's sorted
        internals directly: ``space.lookup_range`` charges simulated
        time, and sanitizer checks must stay clock-neutral.
        """
        provider = getattr(space, "range_provider", None)
        table = getattr(provider, "__self__", None)
        bases = getattr(table, "_bases", None)
        entries = getattr(table, "_entries", None)
        if bases is None or entries is None:
            return
        index = bisect.bisect_right(bases, vaddr) - 1
        truth = entries[index] if 0 <= index < len(entries) else None
        if truth is not None and not truth.covers(vaddr):
            truth = None
        stale: str = ""
        if truth is None:
            stale = "no range-table entry backs the cached range"
        elif (
            truth.base != entry.base
            or truth.limit != entry.limit
            or truth.offset != entry.offset
        ):
            stale = (
                f"range table holds base={truth.base:#x} limit={truth.limit:#x} "
                f"offset={truth.offset:#x} but the rTLB cached "
                f"base={entry.base:#x} limit={entry.limit:#x} offset={entry.offset:#x}"
            )
        elif write and entry.writable and not truth.writable:
            stale = "write through an rTLB entry whose RTE was downgraded read-only"
        if stale:
            self._report(
                "stale-rtlb-entry",
                f"range-TLB hit at va {vaddr:#x} used a stale range "
                f"(missing invalidation?): {stale}",
                {"vaddr": vaddr, "asid": getattr(space, "asid", None), "write": write},
            )

    # ------------------------------------------------------------------
    # Frame-free coherence
    # ------------------------------------------------------------------
    @complexity("n", note="walks the freed range or the shadow, whichever is smaller")
    def check_frames_freed(self, first_frame: int, frame_count: int, origin: str) -> None:
        """Frames are being freed: no live translation may reach them.

        Reports the lowest dangling frame.  A huge extent free walks the
        (small) shadow instead of the range.
        """
        end = first_frame + frame_count
        refs = self._refs
        if frame_count <= len(refs):
            dangling = next(
                (frame for frame in range(first_frame, end) if refs.get(frame)),
                None,
            )
        else:
            dangling = min(
                (frame for frame in refs if first_frame <= frame < end),
                default=None,
            )
        if dangling is not None:
            count = refs[dangling]
            self._report(
                "dangling-translation",
                f"{origin} freed frame {dangling:#x} while {count} live "
                "translation(s) still point into it",
                {"pfn": dangling, "translations": count, "origin": origin},
            )

    # ------------------------------------------------------------------
    # PBM aliasing
    # ------------------------------------------------------------------
    @complexity("n", note="one shadow claim per frame of the extent")
    def claim_frames(self, ino: int, first_frame: int, frame_count: int) -> None:
        """A PBM mapping of file ``ino`` claims these frames."""
        for frame in range(first_frame, first_frame + frame_count):
            owner, count = self._claims.get(frame, (ino, 0))
            if owner != ino:
                self._report(
                    "pbm-alias",
                    f"PBM mapped frame {frame:#x} for ino {ino} but it is "
                    f"already claimed by ino {owner} — two files aliased "
                    "onto one frame",
                    {"pfn": frame, "ino": ino, "claimed_by": owner},
                )
                return
            self._claims[frame] = (ino, count + 1)

    @complexity("n", note="one shadow release per frame of the extent")
    def release_frames(self, ino: int, first_frame: int, frame_count: int) -> None:
        """A PBM mapping of file ``ino`` released these frames."""
        for frame in range(first_frame, first_frame + frame_count):
            owner, count = self._claims.get(frame, (ino, 0))
            if owner != ino or count <= 1:
                self._claims.pop(frame, None)
            else:
                self._claims[frame] = (owner, count - 1)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        """Live shadow-state sizes for ``sanitize_report.json``."""
        return {
            "translated_frames": len(self._refs),
            "pbm_claimed_frames": len(self._claims),
        }
