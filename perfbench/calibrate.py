"""Host-speed normalisation for the benchmark's timings.

The hosts this benchmark runs on are shared: the same pass of the same
code can take 1.5-2x longer while a neighbour loads the machine, and
such episodes last seconds.  Raw host time therefore moves more between
two runs of identical code than any useful regression bound.

:class:`HostSpeed` interleaves short *calibration bursts* with the timed
work.  A burst runs :class:`_Imitation`, a fixed workload owned by the
benchmark (never the simulator, so a faster simulator cannot speed it
up) that imitates the simulator's two kinds of hot loop: translation
(an ``OrderedDict`` TLB with LRU eviction in front of a three-level
dict page table over 64 Ki pages, a counter dict bumped per lookup)
and bitmap tests (shifting one 256 Ki-bit integer, as ``Bitmap.test``
does in ``Pmfs.fsck``).  Each stretch of timed work is scaled by
``REFERENCE_BURST_S`` over the median time of the bursts around it, so
a timing reads as the seconds the work would have taken on the
reference host at its usual speed.  Bursts run only between steps and
their own time is excluded from every timing.

The bursts run in a helper process that does nothing else, on the same
CPU as the benchmark process (``run.py`` pins both), while the benchmark
process waits for them.  Run in the benchmark process itself, the
translation half slowed by half over six crash_explore passes while the
simulator's own steps sped up: the two shared one allocator, and the
simulator's churn of it changed the burst's cost, not the host's speed.
Run on the other CPU, the bursts missed slowdowns of the CPU the work
ran on.

On a 2-vCPU Xeon host, over five fresh-process runs per workload at
different seeds, the spread (IQR over median) of the median pass time
went from raw to normalised: bulk_touch 0.065 -> 0.015, tenant_fleet
0.136 -> 0.053, crash_explore 0.187 -> 0.028, pmfs_churn 0.204 -> 0.062.
Either half alone did worse on some workload (translation alone 0.118
on bulk_touch, bitmap tests alone 0.090 on crash_explore): the
slowdowns hit each kind of code differently.
"""

from __future__ import annotations

import random
import statistics
import subprocess
import sys
import time
from collections import OrderedDict
from typing import List, Tuple

_clock = time.perf_counter_ns

#: A burst's typical time on the reference host (2-vCPU Xeon), seconds.
#: Any constant keeps two runs comparable; this one makes normalised
#: times read close to raw ones at that host's usual speed.
REFERENCE_BURST_S = 0.0044
#: Translations and bitmap tests per burst.
BURST_LOOKUPS = 1000
BURST_BIT_TESTS = 300
#: Bits in the imitated bitmap: a 1 GiB device in 4 KiB blocks.
BITMAP_BITS = 1 << 18
#: Timed work between two bursts, at least.
INTERVAL_S = 0.05


class _Imitation:
    """A fixed, seeded imitation of the simulator's hot loops."""

    def __init__(self, seed: int = 3, pages: int = 65536, capacity: int = 1536):
        rng = random.Random(seed)
        self.bitmap = rng.getrandbits(BITMAP_BITS)
        self.bit_indices = [rng.randrange(BITMAP_BITS) for _ in range(BURST_BIT_TESTS)]
        self.tlb: "OrderedDict[int, list]" = OrderedDict()
        self.capacity = capacity
        self.counters = {"hit": 0, "miss": 0}
        self.root: dict = {}
        vpns = [rng.randrange(1 << 20) for _ in range(pages)]
        for vpn in vpns:
            leaf = self.root.setdefault(vpn >> 18, {}).setdefault((vpn >> 9) & 511, {})
            leaf[vpn & 511] = [vpn * 7, 1]
        self.sequence = [rng.choice(vpns) for _ in range(BURST_LOOKUPS)]

    def lookup(self, vpn: int) -> list:
        entry = self.tlb.get(vpn)
        if entry is not None:
            self.tlb.move_to_end(vpn)
            self.counters["hit"] += 1
            return entry
        self.counters["miss"] += 1
        entry = self.root[vpn >> 18][(vpn >> 9) & 511][vpn & 511]
        self.tlb[vpn] = entry
        if len(self.tlb) > self.capacity:
            self.tlb.popitem(last=False)
        return entry

    def burst(self) -> int:
        total = 0
        for vpn in self.sequence:
            total += self.lookup(vpn)[0] & 1
        bitmap = self.bitmap
        for index in self.bit_indices:
            total += bitmap >> index & 1
        return total


class HostSpeed:
    """Normalises timed work by interleaved calibration bursts.

    ``begin()`` starts a timed phase, with a burst unless one ran within
    the last ``INTERVAL_S`` (a burst right after another runs on a warm
    cache and reads several times faster); ``tick()`` is called
    between steps and, once ``INTERVAL_S`` of work has passed since the
    last burst, runs another, which starts a new *segment*; ``end()``
    closes the phase with a burst and returns its normalised seconds.
    The work of a segment is scaled by the median of the two bursts
    before it and the two after it, so one slow burst does not skew it.
    """

    def __init__(self, interval_s: float = INTERVAL_S):
        self._helper = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True,
        )
        self._helper.stdout.readline()
        self._interval_ns = int(interval_s * 1e9)
        self.bursts: List[float] = []
        #: (index of the burst that opened it, raw seconds) per segment
        #: of the current phase.
        self.segments: List[Tuple[int, float]] = []
        self.raw_s = 0.0
        self._segment_start = 0
        self._last_burst_end = 0

    @property
    def segment(self) -> int:
        """Id of the running segment: the index of the burst that opened it."""
        return len(self.bursts) - 1

    def close(self) -> None:
        """Stop the helper process and wait for it to end."""
        self._helper.stdin.close()
        try:
            self._helper.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self._helper.kill()
            self._helper.wait()
        self._helper.stdout.close()

    def __enter__(self) -> "HostSpeed":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _measure(self) -> float:
        """One burst in the helper; its seconds as the helper timed them."""
        self._helper.stdin.write("\n")
        self._helper.stdin.flush()
        return float(self._helper.stdout.readline())

    def _burst(self) -> None:
        self.bursts.append(self._measure())
        self._last_burst_end = _clock()

    def factor(self, segment: int) -> float:
        """Raw-to-reference scale of the work in ``segment``."""
        window = self.bursts[max(0, segment - 1): segment + 3]
        return REFERENCE_BURST_S / statistics.median(window)

    def begin(self) -> None:
        self.segments = []
        if not self.bursts or _clock() - self._last_burst_end >= self._interval_ns:
            self._burst()
        self._segment_start = _clock()

    def _close(self) -> None:
        self.segments.append((self.segment, (_clock() - self._segment_start) / 1e9))

    def tick(self) -> None:
        if _clock() - self._segment_start >= self._interval_ns:
            self._close()
            self._burst()
            self._segment_start = _clock()

    def end(self) -> float:
        """Close the phase; returns its normalised seconds."""
        self._close()
        self._burst()
        self.raw_s = sum(raw for _, raw in self.segments)
        return sum(raw * self.factor(k) for k, raw in self.segments)

    def scale(self, raw_ns: List[int], segments: List[int]) -> List[int]:
        """Normalise per-step times recorded with their segment ids."""
        return [round(ns * self.factor(k)) for ns, k in zip(raw_ns, segments)]


def serve() -> None:
    """The helper process: one burst per line read, its seconds printed."""
    imitation = _Imitation()
    imitation.burst()
    print("ready", flush=True)
    for _ in sys.stdin:
        start = _clock()
        imitation.burst()
        print((_clock() - start) / 1e9, flush=True)


if __name__ == "__main__":
    serve()
