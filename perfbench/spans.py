"""Span recorders wrapped around each simulator layer's entry points.

The traced run installs these wrappers on the classes and module
functions listed in :data:`ENTRY_POINTS` before any machine is built
(some objects bind methods at construction time).  Nothing under
``src/`` changes: the wrappers live here and are removed again by
:meth:`Recorder.uninstall`.

Two wrapper shapes share one parent stack:

* a *span* wrapper pushes a frame, and records ``(name, start, end,
  span id, parent span id, step id)`` in memory (up to ``span_cap``
  records; aggregates stay exact past the cap);
* an *aggregate* wrapper, used for the hottest leaf-like calls
  (``Bitmap.test``, ``MetricsRegistry.bump``, ...), pushes nothing and
  keeps only its count and self time.  Any wrapped call nested inside
  one is still subtracted from its self time, so self times stay exact.

A layer's self time is the sum over its spans of duration minus the time
covered by their child spans.  Layers are named after the top-level
``repro`` package that defines the wrapped function.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from typing import Dict, List, Tuple

LAYERS = (
    "kernel", "hw", "paging", "vm", "mem", "fs", "core",
    "qos", "chaos", "sanitize", "obs", "workloads",
)

#: (module, class or None for module functions, span names, aggregate names)
ENTRY_POINTS: Tuple[Tuple[str, object, Tuple[str, ...], Tuple[str, ...]], ...] = (
    ("repro.kernel.kernel", "Kernel",
     ("access", "access_range", "spawn", "fork", "crash", "warm_file"), ()),
    ("repro.kernel.syscalls", "Syscalls",
     ("open", "close", "read", "write", "pread", "pwrite", "unlink", "mmap",
      "fork", "munmap", "mprotect"), ()),
    ("repro.hw.cpu", "Cpu",
     ("access", "access_range", "invalidate_page", "invalidate_space_range",
      "switch_address_space"), ()),
    ("repro.hw.tlb", "Tlb",
     ("invalidate", "invalidate_range", "flush_asid", "flush_all"),
     ("lookup", "insert")),
    ("repro.hw.cache", "CacheModel",
     ("touch_range", "warm_range", "flush", "evict_range"), ("reference",)),
    ("repro.paging.walker", "PageWalker", (), ("walk",)),
    ("repro.paging.pagetable", "PageTable",
     ("link_subtree", "unlink_subtree", "clear", "release", "privatize_window",
      "window_write_protect"),
     ("map", "unmap", "protect", "lookup")),
    ("repro.vm.addrspace", "AddressSpace",
     ("mmap", "populate", "munmap", "mprotect", "handle_fault", "evict_page"), ()),
    ("repro.vm.reclaimd", "ClockReclaimer", ("reclaim",), ()),
    ("repro.vm.reclaimd", "LruLists", (), ("page_mapped", "page_unmapped")),
    ("repro.vm.swap", "SwapDevice", (), ("write_page", "read_page", "free_slot")),
    ("repro.mem.buddy", "BuddyAllocator",
     ("alloc_pages", "free_many", "retire"), ("alloc", "free")),
    ("repro.mem.frame_meta", "FrameTable", (), ("touch", "get_ref", "put_ref")),
    ("repro.mem.bitmap", "Bitmap",
     ("find_clear_run", "largest_clear_run"),
     ("test", "set_range", "clear_range", "run_is_clear", "_scan")),
    ("repro.fs.pmfs", "BlockAllocator",
     ("alloc_extent", "alloc_best_effort", "free_extent", "claim_block"),
     ("block_is_free",)),
    ("repro.fs.pmfs", "Pmfs",
     ("allocate_blocks", "shrink_blocks", "free_blocks", "fsck", "crash",
      "migrate_block", "adopt_badblock"),
     ("charge_block_lookup",)),
    ("repro.fs.vfs", "FileSystem",
     ("create", "unlink", "truncate", "open", "mkdir", "makedirs"), ("lookup",)),
    ("repro.fs.vfs", "FileHandle", ("pread", "pwrite", "read", "write", "close"), ()),
    ("repro.core.fom.manager", "FileOnlyMemory",
     ("allocate", "open_region", "grow_region", "release", "exit_process",
      "touch_region"), ()),
    ("repro.core.fom.persistence", "PersistenceManager",
     ("mark_persistent", "mark_volatile", "recover"), ()),
    ("repro.qos.controller", "QosController",
     ("reclaim_batch", "attach", "detach", "on_frames_alloc"),
     ("enter_pid", "on_frames_free", "on_nvm_alloc", "on_nvm_free")),
    ("repro.chaos.plan", "FaultPlan", ("power_cut",), ("hit",)),
    ("repro.chaos.explore", None, ("explore", "recover_machine", "run_oracles"), ()),
    ("repro.sanitize.suite", "SanitizerSuite", (),
     ("on_pte_map", "on_pte_unmap", "on_subtree_dead", "check_tlb_hit",
      "check_rtlb_hit", "on_pbm_claim", "on_pbm_release", "on_frame_alloc",
      "on_frame_free", "on_nvm_alloc", "on_nvm_free", "on_frame_access",
      "on_frames_tainted", "on_frames_zeroed", "on_zeropool_take",
      "on_frame_retired", "on_nvm_retired", "on_journal_begin",
      "on_journal_commit", "on_journal_abort", "on_journal_apply",
      "on_data_visible", "on_machine_crash", "on_fs_crash")),
    ("repro.obs.metrics", "MetricsRegistry", (), ("bump", "observe")),
    ("repro.workloads.tenants", None, ("run_tenants",), ()),
)


def _layer_of(module: str) -> str:
    return module.split(".")[1]


class Recorder:
    """Collects spans and per-layer self time for one traced pass."""

    def __init__(self, span_cap: int = 50_000) -> None:
        self.span_cap = span_cap
        self.names: List[str] = []
        self.name_layer: List[int] = []
        self._installed: List[Tuple[object, str, object]] = []
        # The wrappers hold these lists, so reset() clears them in place.
        self.calls: List[int] = []
        self.inclusive_ns: List[int] = []
        self.layer_self_ns: List[int] = []
        self.spans: List[Tuple[int, int, int, int, int, int]] = []
        # Frame = [span id, ns covered by child spans]; index 0 is the root.
        self.stack: List[List[int]] = []
        self.reset()

    def reset(self) -> None:
        """Forget everything recorded so far (keeps the wrappers)."""
        n = len(self.names)
        self.calls[:] = [0] * n
        self.inclusive_ns[:] = [0] * n
        self.layer_self_ns[:] = [0] * len(LAYERS)
        self.spans.clear()
        self.stack[:] = [[0, 0]]
        self.dropped = 0
        self.step = -1
        self._next_id = 1

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap every entry point in :data:`ENTRY_POINTS`."""
        for module_name, cls_name, spans, aggregates in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            owner = module if cls_name is None else getattr(module, cls_name)
            layer = LAYERS.index(_layer_of(module_name))
            for attr, make in [(a, self._span) for a in spans] + [
                (a, self._aggregate) for a in aggregates
            ]:
                fn = vars(owner)[attr]
                if not inspect.isfunction(fn) or inspect.isgeneratorfunction(fn):
                    raise TypeError(f"{module_name}.{cls_name}.{attr} cannot be wrapped")
                label = f"{cls_name}.{attr}" if cls_name else attr
                index = len(self.names)
                self.names.append(f"{_layer_of(module_name)}:{label}")
                self.name_layer.append(layer)
                self._installed.append((owner, attr, fn))
                setattr(owner, attr, make(fn, layer, index))
        self.reset()

    def uninstall(self) -> None:
        """Put every original function back."""
        for owner, attr, fn in reversed(self._installed):
            setattr(owner, attr, fn)
        self._installed.clear()

    def _span(self, fn, layer: int, index: int):
        rec, clock = self, time.perf_counter_ns
        stack, spans, calls = self.stack, self.spans, self.calls
        inclusive, self_ns = self.inclusive_ns, self.layer_self_ns

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            span_id = rec._next_id
            rec._next_id = span_id + 1
            frame = [span_id, 0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self_ns[layer] += duration - frame[1]
                inclusive[index] += duration
                calls[index] += 1
                parent[1] += duration
                if len(spans) < rec.span_cap:
                    spans.append((index, start, end, span_id, parent[0], rec.step))
                else:
                    rec.dropped += 1

        wrapper.__wrapped__ = fn
        return wrapper

    def _aggregate(self, fn, layer: int, index: int):
        clock = time.perf_counter_ns
        stack, calls, inclusive, self_ns = (
            self.stack, self.calls, self.inclusive_ns, self.layer_self_ns)

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            covered = parent[1]
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                # Wrapped calls nested in this one added to parent[1].
                self_ns[layer] += duration - (parent[1] - covered)
                parent[1] = covered + duration
                inclusive[index] += duration
                calls[index] += 1

        wrapper.__wrapped__ = fn
        return wrapper

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def layer_self_s(self) -> Dict[str, float]:
        return {name: ns / 1e9 for name, ns in zip(LAYERS, self.layer_self_ns)}

    def layer_calls(self, layer: str) -> int:
        target = LAYERS.index(layer)
        return sum(c for c, l in zip(self.calls, self.name_layer) if l == target)

    def calls_of(self, name: str) -> int:
        return self.calls[self.names.index(name)]

    def inclusive_s(self, name: str) -> float:
        return self.inclusive_ns[self.names.index(name)] / 1e9

    def write(self, path: str, meta: Dict[str, object]) -> None:
        """Write the recorded spans and aggregates as one JSON document."""
        doc = {
            "meta": meta,
            "span_fields": ["name", "start_ns", "end_ns", "id", "parent", "step"],
            "names": self.names,
            "spans": [
                [self.names[s[0]], s[1], s[2], s[3], s[4], s[5]] for s in self.spans
            ],
            "dropped_spans": self.dropped,
            "calls": dict(zip(self.names, self.calls)),
            "inclusive_s": {n: ns / 1e9 for n, ns in zip(self.names, self.inclusive_ns)},
            "layer_self_s": self.layer_self_s(),
        }
        with open(path, "w") as out:
            json.dump(doc, out)
