"""Block bitmap with run-oriented operations.

File systems represent free space with one bit per block — the paper's §3.1
contrasts this ("unused blocks are represented by a single bit in a bitmap")
with the kernel's heavyweight per-page metadata.  The operations here are
run-oriented (``set_range``, ``find_clear_run``) because extent-based
allocation wants contiguous runs.

The backing store is one :class:`~repro.mem.extentset.ExtentSet` of the
*set* runs, so every operation costs a bisect plus the runs it passes —
never one step per block.  The view is strict: setting a set bit or
clearing a clear bit is an error, as on a real allocator bitmap.
"""

from __future__ import annotations

from typing import Optional

from repro.lint.decorators import complexity, o1
from repro.mem.extentset import ExtentSet


class Bitmap:
    """Fixed-size bitmap; bit i set means block i is allocated."""

    def __init__(self, size: int) -> None:
        if size <= 0:
            raise ValueError(f"bitmap size must be positive, got {size}")
        self._size = size
        self._set = ExtentSet()

    @property
    def size(self) -> int:
        """Number of bits tracked."""
        return self._size

    @property
    def set_count(self) -> int:
        """Number of set (allocated) bits."""
        return self._set.members

    @property
    def clear_count(self) -> int:
        """Number of clear (free) bits."""
        return self._size - self._set.members

    @property
    def set_runs(self) -> ExtentSet:
        """The set bits as runs (read-only: mutate through the bitmap)."""
        return self._set

    def _check_range(self, start: int, length: int) -> None:
        if start < 0 or length < 0 or start + length > self._size:
            raise IndexError(
                f"range [{start}, {start + length}) outside bitmap of "
                f"size {self._size}"
            )

    # ------------------------------------------------------------------
    # Single-bit operations
    # ------------------------------------------------------------------
    @o1(note="one bisect over the set runs")
    def test(self, index: int) -> bool:
        """True if bit ``index`` is set."""
        self._check_range(index, 1)
        return index in self._set

    # ------------------------------------------------------------------
    # Run operations
    # ------------------------------------------------------------------
    @o1(note="one bisect, then a merge with at most two neighbour runs")
    def set_range(self, start: int, length: int) -> None:
        """Set ``length`` bits from ``start``; all must currently be clear."""
        self._check_range(start, length)
        if length == 0:
            return
        if self._set.first_in(start, start + length) is not None:
            raise ValueError(
                f"set_range([{start}, {start + length})) overlaps set bits"
            )
        self._set.add(start, start + length)

    @o1(note="one bisect, then a cut of the one run that covers the range")
    def clear_range(self, start: int, length: int) -> None:
        """Clear ``length`` bits from ``start``; all must currently be set."""
        self._check_range(start, length)
        if length == 0:
            return
        if not self._set.covers(start, start + length):
            raise ValueError(
                f"clear_range([{start}, {start + length})) covers clear bits"
            )
        self._set.discard(start, start + length)

    @o1(note="one bisect over the set runs")
    def run_is_clear(self, start: int, length: int) -> bool:
        """True if every bit in ``[start, start + length)`` is clear."""
        self._check_range(start, length)
        return self._set.first_in(start, start + length) is None

    @complexity("n", note="next-fit gap walk: one step per set run passed")
    def find_clear_run(self, length: int, start_hint: int = 0) -> Optional[int]:
        """First index of ``length`` consecutive clear bits, or None.

        Searches from ``start_hint`` and wraps; allocators pass the last
        allocation point as the hint to approximate next-fit.
        """
        if length <= 0:
            raise ValueError(f"run length must be positive, got {length}")
        if length > self._size:
            return None
        hint = start_hint % self._size
        found = self._scan(hint, self._size, length)
        if found is None and hint:
            found = self._scan(0, hint + length - 1, length)
        return found

    @complexity("n", note="one step per gap between set runs in the window")
    def _scan(self, lo: int, hi: int, length: int) -> Optional[int]:
        """Lowest start of a clear run of ``length`` within ``[lo, min(hi, size))``."""
        return self._set.first_gap(lo, min(hi, self._size), length)

    @complexity("n", note="one step per gap between set runs")
    def largest_clear_run(self) -> int:
        """Length of the longest run of clear bits (fragmentation metric)."""
        return self._set.largest_gap(0, self._size)

    def __repr__(self) -> str:
        return f"Bitmap(size={self._size}, set={self._set.members})"
