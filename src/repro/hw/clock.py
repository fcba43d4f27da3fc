"""Deterministic simulated clock and event counters.

The whole simulator is single-threaded and deterministic: time only moves
when a component calls :meth:`SimClock.advance`.  Benchmarks read simulated
nanoseconds off the clock, so results are exactly reproducible run to run —
there is no wall-clock noise in any reported figure.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterator, Tuple

from repro.lint.decorators import allocfree


class SimClock:
    """Monotonic simulated clock, in integer nanoseconds.

    >>> clk = SimClock()
    >>> clk.advance(150)
    >>> clk.now
    150
    """

    __slots__ = ("_now",)

    def __init__(self) -> None:
        self._now = 0

    @property
    def now(self) -> int:
        """Current simulated time in nanoseconds since boot."""
        return self._now

    @allocfree(note="one int add on the accumulator")
    def advance(self, ns: int) -> None:
        """Move time forward by ``ns`` nanoseconds (must be non-negative)."""
        if ns < 0:
            raise ValueError(f"cannot advance clock by negative time: {ns}")
        self._now += ns

    def elapsed_since(self, start_ns: int) -> int:
        """Nanoseconds elapsed since a previously sampled ``now``."""
        return self._now - start_ns

    def __repr__(self) -> str:
        return f"SimClock(now={self._now}ns)"


class EventCounters:
    """Named counters for memory-management events.

    Components increment counters like ``tlb_miss``, ``minor_fault``,
    ``pte_write`` as they run; tests and benchmarks assert on them to verify
    that the *mechanism* (not just the cost) matches the paper's narrative —
    e.g. that MAP_POPULATE eliminates all minor faults.

    Counter names follow the ``subsystem_verb_object`` convention; the
    canonical list lives in :mod:`repro.obs.names`.
    :class:`repro.obs.metrics.MetricsRegistry` extends this class with
    latency histograms — new code should prefer it.
    """

    __slots__ = ("_counts",)

    # Subsystem slots: the one place each armable subsystem is stored.
    # Components that hold counters read ``self._counters.<slot>``
    # directly (``None`` means disarmed); only ``Kernel`` writes them, on
    # its per-machine :class:`~repro.obs.metrics.MetricsRegistry`.  The
    # wall profiler hangs off the tracer (``tracer.profiler``).

    #: :class:`repro.obs.trace.Tracer` (``None`` means no tracing).
    tracer = None
    #: :class:`repro.chaos.plan.FaultPlan` (``Kernel.arm_chaos``).
    chaos = None
    #: :class:`repro.sanitize.SanitizerSuite` (``Kernel.arm_sanitizers``).
    sanitize = None
    #: :class:`repro.ras.RasEngine` (``Kernel.arm_ras``).
    ras = None
    #: :class:`repro.qos.controller.QosController` (``Kernel.arm_qos``).
    qos = None

    def __init__(self) -> None:
        self._counts: Counter = Counter()

    @allocfree(note="one Counter increment on an existing key")
    def bump(self, name: str, amount: int = 1) -> None:
        """Increment counter ``name`` by ``amount``."""
        self._counts[name] += amount

    def get(self, name: str) -> int:
        """Current value of counter ``name`` (0 if never bumped)."""
        return self._counts[name]

    def snapshot(self) -> Dict[str, int]:
        """A copy of all counters, for diffing around a measured region."""
        return dict(self._counts)

    def delta_since(self, snapshot: Dict[str, int]) -> Dict[str, int]:
        """Counters that changed since ``snapshot``, as name -> increase.

        Deltas are clamped at zero: a :meth:`reset` between snapshot and
        read would otherwise report negative "increases" for counters
        that were already non-zero at snapshot time.
        """
        out = {}
        for name, value in self._counts.items():
            change = value - snapshot.get(name, 0)
            if change > 0:
                out[name] = change
        return out

    def reset(self) -> None:
        """Zero every counter."""
        self._counts.clear()

    def __iter__(self) -> Iterator[Tuple[str, int]]:
        return iter(sorted(self._counts.items()))

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v}" for k, v in self)
        return f"EventCounters({inner})"
