"""Sorted, disjoint, half-open integer runs: the simulator's extent primitive.

The paper's §3.1 argument is that file systems describe memory by
extents — a file is a handful of runs, free space is "a single bit in a
bitmap" per block but allocated and searched a run at a time.  An
:class:`ExtentSet` applies that argument to the simulator's own
bookkeeping: it stores a set of integers (block or frame numbers) as
sorted, coalesced ``[start, end)`` runs, so every operation costs a
bisect plus the runs it touches — O(log R + runs touched) for R runs —
and never anything per member.

Two parallel lists hold the run bounds.  Updates splice them with one
slice assignment, so even an update that absorbs many runs runs no
Python-level loop; the walks (:meth:`first_gap`, :meth:`largest_gap`, :meth:`overlay`)
step once per run in their window.

Users: :class:`repro.mem.bitmap.Bitmap` (PMFS free space), the PMFS
fsck/scrub oracles, and FrameSan's NVM and retired-frame ledgers.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.lint.decorators import complexity, o1


class ExtentSet:
    """A set of integers held as sorted, disjoint, non-adjacent runs."""

    __slots__ = ("_starts", "_ends", "_members")

    def __init__(self) -> None:
        self._starts: List[int] = []
        self._ends: List[int] = []
        self._members = 0

    @property
    def members(self) -> int:
        """Number of integers in the set."""
        return self._members

    @o1(note="one bisect over the runs")
    def __contains__(self, point: int) -> bool:
        index = bisect_right(self._starts, point) - 1
        return index >= 0 and point < self._ends[index]

    @o1(note="one bisect over the runs")
    def first_in(self, start: int, end: int) -> Optional[int]:
        """Lowest member in ``[start, end)``, or None if there is none."""
        if start >= end:
            return None
        index = bisect_right(self._ends, start)
        if index < len(self._starts) and self._starts[index] < end:
            return max(self._starts[index], start)
        return None

    @o1(note="one bisect over the runs")
    def covers(self, start: int, end: int) -> bool:
        """True if every integer in ``[start, end)`` is a member."""
        if start >= end:
            return True
        index = bisect_right(self._starts, start) - 1
        return index >= 0 and self._ends[index] >= end

    @o1(note="two bisects and one slice splice: O(log R) plus the runs it absorbs")
    def add(self, start: int, end: int) -> None:
        """Insert ``[start, end)``, merging every run it overlaps or abuts."""
        if start >= end:
            return
        starts, ends = self._starts, self._ends
        lo = bisect_left(ends, start)
        hi = bisect_right(starts, end)
        if lo < hi:
            absorbed = sum(ends[lo:hi]) - sum(starts[lo:hi])
            start = min(start, starts[lo])
            end = max(end, ends[hi - 1])
        else:
            absorbed = 0
        starts[lo:hi] = (start,)
        ends[lo:hi] = (end,)
        self._members += end - start - absorbed

    @o1(note="two bisects and one slice splice: O(log R) plus the runs it cuts")
    def discard(self, start: int, end: int) -> None:
        """Remove ``[start, end)``; integers outside the set are ignored."""
        if start >= end:
            return
        starts, ends = self._starts, self._ends
        lo = bisect_right(ends, start)
        hi = bisect_left(starts, end)
        if lo >= hi:
            return
        first, last = starts[lo], ends[hi - 1]
        removed = (
            sum(ends[lo:hi]) - sum(starts[lo:hi])
            - max(start - first, 0) - max(last - end, 0)
        )
        kept_starts: List[int] = []
        kept_ends: List[int] = []
        if first < start:
            kept_starts.append(first)
            kept_ends.append(start)
        if last > end:
            kept_starts.append(end)
            kept_ends.append(last)
        starts[lo:hi] = kept_starts
        ends[lo:hi] = kept_ends
        self._members -= removed

    @complexity("n", note="next-fit gap walk: one step per run passed")
    def first_gap(self, lo: int, hi: int, length: int) -> Optional[int]:
        """Lowest ``start`` in ``[lo, hi - length]`` such that
        ``[start, start + length)`` holds no member, or None."""
        starts, ends = self._starts, self._ends
        index = bisect_right(ends, lo)
        position = lo
        while position + length <= hi:
            if index == len(starts) or starts[index] - position >= length:
                return position
            position = max(position, ends[index])
            index += 1
        return None

    @complexity("n", note="one step per run in the window")
    def largest_gap(self, lo: int, hi: int) -> int:
        """Length of the longest member-free run inside ``[lo, hi)``."""
        starts, ends = self._starts, self._ends
        index = bisect_right(ends, lo)
        position = lo
        best = 0
        while position < hi:
            gap_end = starts[index] if index < len(starts) else hi
            best = max(best, min(gap_end, hi) - position)
            if index == len(starts):
                break
            position = max(position, ends[index])
            index += 1
        return best

    @complexity("n", note="one step per run of either side plus one per segment")
    def overlay(
        self, other: Sequence[Tuple[int, int]], lo: int, hi: int
    ) -> Iterator[Tuple[int, int, bool, int]]:
        """Merge-walk this set against ``other`` over ``[lo, hi)``.

        ``other`` is a sorted list of disjoint ``(start, end)`` runs (they
        may abut).  Yields ``(start, end, in_self, other_index)`` for each
        maximal segment covered by at least one side, ascending, where
        ``other_index`` is the index of the covering ``other`` run or -1.
        """
        starts, ends = self._starts, self._ends
        mine = bisect_right(ends, lo)
        theirs = 0
        position = lo
        while position < hi:
            if mine < len(starts) and ends[mine] <= position:
                mine += 1
                continue
            if theirs < len(other) and other[theirs][1] <= position:
                theirs += 1
                continue
            in_self = mine < len(starts) and starts[mine] <= position
            if in_self:
                self_next = ends[mine]
            else:
                self_next = starts[mine] if mine < len(starts) else hi
            in_other = theirs < len(other) and other[theirs][0] <= position
            if in_other:
                other_next = other[theirs][1]
            else:
                other_next = other[theirs][0] if theirs < len(other) else hi
            end = min(self_next, other_next, hi)
            if in_self or in_other:
                yield position, end, in_self, theirs if in_other else -1
            position = end

    def __repr__(self) -> str:
        return f"ExtentSet(runs={len(self._starts)}, members={self._members})"
