"""Differential tests: the run-level free-space code against per-block models.

``ExtentSet``, the ``Bitmap`` view over it, the PMFS allocator, fsck, the
crash-recovery scrub and FrameSan's NVM ledger all work a run at a time.
Each is checked here against a per-block (or per-bit) reference model kept
in this file, which states the behaviour the simple way: the same results,
the same errors, the same problem lists, clock and counters.
"""

from __future__ import annotations

import re
from types import SimpleNamespace
from typing import Dict, List, Optional, Set, Tuple

from hypothesis import given, settings, strategies as st

from repro.fs.extent import Extent
from repro.fs.pmfs import JournalRecord
from repro.kernel import Kernel, MachineConfig
from repro.mem.bitmap import Bitmap
from repro.mem.extentset import ExtentSet
from repro.sanitize import SanitizerSuite
from repro.sanitize.framesan import FrameSan
from repro.sanitize.transsan import TransSan
from repro.units import MIB, PAGE_SIZE


# ----------------------------------------------------------------------
# Reference models
# ----------------------------------------------------------------------
class RefBitmap:
    """One bool per bit; the old big-int bitmap's semantics, bit by bit."""

    def __init__(self, size: int) -> None:
        if size <= 0:
            raise ValueError(f"bitmap size must be positive, got {size}")
        self.bits = [False] * size

    @property
    def size(self) -> int:
        return len(self.bits)

    @property
    def set_count(self) -> int:
        return sum(self.bits)

    @property
    def clear_count(self) -> int:
        return self.size - self.set_count

    def _check_range(self, start: int, length: int) -> None:
        if start < 0 or length < 0 or start + length > self.size:
            raise IndexError(f"range [{start}, {start + length})")

    def test(self, index: int) -> bool:
        self._check_range(index, 1)
        return self.bits[index]

    def set_range(self, start: int, length: int) -> None:
        self._check_range(start, length)
        if any(self.bits[start:start + length]):
            raise ValueError("overlaps set bits")
        self.bits[start:start + length] = [True] * length

    def clear_range(self, start: int, length: int) -> None:
        self._check_range(start, length)
        if not all(self.bits[start:start + length]):
            raise ValueError("covers clear bits")
        self.bits[start:start + length] = [False] * length

    def run_is_clear(self, start: int, length: int) -> bool:
        self._check_range(start, length)
        return not any(self.bits[start:start + length])

    def _scan(self, lo: int, hi: int, length: int) -> Optional[int]:
        hi = min(hi, self.size)
        for start in range(lo, hi - length + 1):
            if not any(self.bits[start:start + length]):
                return start
        return None

    def find_clear_run(self, length: int, start_hint: int = 0) -> Optional[int]:
        if length <= 0:
            raise ValueError("run length must be positive")
        if length > self.size:
            return None
        hint = start_hint % self.size
        found = self._scan(hint, self.size, length)
        if found is None and hint:
            found = self._scan(0, hint + length - 1, length)
        return found

    def largest_clear_run(self) -> int:
        best = current = 0
        for bit in self.bits:
            current = 0 if bit else current + 1
            best = max(best, current)
        return best


def ref_fsck(fs) -> List[str]:
    """The per-block fsck: one dict entry per claimed block, one test per bit."""
    problems: List[str] = []
    claimed: Dict[int, int] = {}
    for ino, tree in fs._trees.items():
        for extent in tree.extents():
            for pfn in range(extent.pfn, extent.pfn + extent.count):
                if pfn in claimed:
                    problems.append(
                        f"block {pfn} claimed by ino {claimed[pfn]} and ino {ino}"
                    )
                claimed[pfn] = ino
    first = fs.allocator._region.first_pfn
    bitmap = fs.allocator._bitmap
    for index in range(bitmap.size):
        pfn = first + index
        allocated = bitmap.test(index)
        if allocated and pfn not in claimed:
            problems.append(f"block {pfn} allocated but owned by no file")
        elif not allocated and pfn in claimed:
            problems.append(
                f"block {pfn} owned by ino {claimed[pfn]} but free in bitmap"
            )
    return problems


def ref_scrub(fs) -> None:
    """The per-block scrub: test every bit, free each leaked block alone."""
    claimed: Set[int] = set()
    for tree in fs._trees.values():
        for extent in tree.extents():
            claimed.update(range(extent.pfn, extent.pfn + extent.count))
    first = fs.allocator._region.first_pfn
    bitmap = fs.allocator._bitmap
    san = fs._counters.sanitize
    scrubbed = 0
    for index in range(bitmap.size):
        if bitmap.test(index) and first + index not in claimed:
            if san is not None:
                san.on_nvm_free(fs.allocator, first + index, 1, check=False)
            bitmap.clear_range(index, 1)
            scrubbed += 1
    if scrubbed:
        fs._clock.advance(fs._costs.bitmap_run_ns * scrubbed)
        fs._counters.bump("recovery_scrub_blocks", scrubbed)


class RefFrameSanNvm:
    """FrameSan's NVM ledger as per-block sets (the old representation)."""

    def __init__(self, report) -> None:
        self._report = report
        self.allocated: Set[int] = set()
        self.freed: Set[int] = set()
        self.retired: Set[int] = set()

    def on_nvm_alloc(self, first: int, count: int) -> None:
        end = first + count
        if any(first <= retired < end for retired in self.retired):
            self._report(
                "retired-frame-realloc",
                f"NVM extent [{first:#x}, {end:#x}) contains a "
                "permanently retired block",
                {"pfn": first, "count": count},
            )
        for block in range(first, end):
            self.freed.discard(block)
            self.allocated.add(block)

    def on_nvm_free(self, first: int, count: int, check: bool) -> None:
        for block in range(first, first + count):
            if check and block in self.freed:
                self._report(
                    "double-free",
                    f"NVM block {block:#x} freed twice (second free without "
                    "an intervening allocation)",
                    {"pfn": block},
                )
                return
            self.allocated.discard(block)
            self.freed.add(block)

    def on_nvm_retired(self, first: int, count: int) -> None:
        for block in range(first, first + count):
            self.allocated.add(block)
            self.retired.add(block)


def _outcome(call):
    try:
        return ("ok", call())
    except (IndexError, ValueError) as error:
        return ("raise", type(error).__name__)


# ----------------------------------------------------------------------
# ExtentSet against a Python set
# ----------------------------------------------------------------------
_SPAN = 48
_points = st.integers(min_value=-4, max_value=_SPAN + 4)
_set_ops = st.lists(
    st.builds(
        lambda op, start, length: (op, start, start + length),
        st.sampled_from(["add", "discard"]),
        _points,
        st.integers(min_value=-1, max_value=12),
    ),
    max_size=40,
)


def _runs_of(members: Set[int]) -> List[Tuple[int, int]]:
    runs: List[Tuple[int, int]] = []
    for point in sorted(members):
        if runs and runs[-1][1] == point:
            runs[-1] = (runs[-1][0], point + 1)
        else:
            runs.append((point, point + 1))
    return runs


def _all_runs(extents: ExtentSet) -> List[Tuple[int, int]]:
    return list(zip(extents._starts, extents._ends))


def _built(ops) -> Tuple[ExtentSet, Set[int]]:
    extents, model = ExtentSet(), set()
    for op, a, b in ops:
        getattr(extents, op)(a, b)
        if op == "add":
            model.update(range(a, b))
        else:
            model.difference_update(range(a, b))
    return extents, model


class TestExtentSetAgainstSet:
    def test_abutting_runs_coalesce_and_cuts_split(self):
        extents = ExtentSet()
        extents.add(0, 2)
        extents.add(4, 6)
        extents.add(2, 4)
        assert _all_runs(extents) == [(0, 6)]
        extents.discard(2, 3)
        assert _all_runs(extents) == [(0, 2), (3, 6)]
        assert extents.members == 5

    @given(_set_ops)
    def test_updates_keep_runs_sorted_coalesced_and_counted(self, ops):
        extents, model = _built(ops)
        assert _all_runs(extents) == _runs_of(model)
        assert extents.members == len(model)

    @given(_set_ops, _points, _points)
    def test_point_and_window_queries(self, ops, a, b):
        extents, model = _built(ops)
        window = set(range(a, b))
        assert (a in extents) == (a in model)
        assert extents.first_in(a, b) == min(window & model, default=None)
        assert extents.covers(a, b) == (window <= model)
        gaps = _runs_of(window - model)
        assert extents.largest_gap(a, b) == max(
            (end - start for start, end in gaps), default=0
        )

    @given(_set_ops, _points, _points, st.integers(min_value=1, max_value=12))
    def test_first_gap_is_lowest_member_free_window(self, ops, lo, hi, length):
        extents, model = _built(ops)
        expected = next(
            (
                start
                for start in range(lo, hi - length + 1)
                if not model & set(range(start, start + length))
            ),
            None,
        )
        assert extents.first_gap(lo, hi, length) == expected

    @given(_set_ops, _set_ops, _points, _points)
    def test_overlay_matches_pointwise_states(self, ops, other_ops, lo, hi):
        extents, model = _built(ops)
        # Split the other side's runs so some of them abut.
        other: List[Tuple[int, int]] = []
        for start, end in _runs_of(_built(other_ops)[1]):
            middle = (start + end) // 2
            other.extend(
                [(start, middle), (middle, end)] if start < middle else [(start, end)]
            )
        expected: List[Tuple[int, int, bool, int]] = []
        for point in range(lo, hi):
            owner = next(
                (index for index, (s, e) in enumerate(other) if s <= point < e), -1
            )
            state = (point in model, owner)
            if state == (False, -1):
                continue
            if expected and expected[-1][1] == point and expected[-1][2:] == state:
                expected[-1] = (expected[-1][0], point + 1, *state)
            else:
                expected.append((point, point + 1, *state))
        assert list(extents.overlay(other, lo, hi)) == expected


# ----------------------------------------------------------------------
# Bitmap against the per-bit model
# ----------------------------------------------------------------------
_bitmap_op = st.one_of(
    st.tuples(st.just("set_range"), st.integers(-2, 70), st.integers(-1, 40)),
    st.tuples(st.just("clear_range"), st.integers(-2, 70), st.integers(-1, 40)),
    st.tuples(st.just("run_is_clear"), st.integers(-2, 70), st.integers(-1, 40)),
    st.tuples(st.just("test"), st.integers(-2, 70)),
    st.tuples(st.just("find_clear_run"), st.integers(-1, 40), st.integers(0, 200)),
    st.tuples(st.just("largest_clear_run")),
    st.tuples(st.just("alloc"), st.integers(1, 20), st.integers(0, 200)),
    st.tuples(st.just("free_part"), st.integers(0, 70), st.integers(1, 20)),
)


class TestBitmapAgainstPerBitModel:
    @given(st.integers(min_value=1, max_value=64), st.lists(_bitmap_op, max_size=60))
    def test_every_operation_and_error_matches(self, size, ops):
        bitmap, ref = Bitmap(size), RefBitmap(size)
        for op, *args in ops:
            if op == "alloc":
                # Allocator-shaped traffic: find a run, then set it.
                start = ref.find_clear_run(*args)
                assert bitmap.find_clear_run(*args) == start
                if start is not None:
                    bitmap.set_range(start, args[0])
                    ref.set_range(start, args[0])
                continue
            if op == "free_part":
                # Clear a piece of a set run, so clears succeed often.
                index, length = args
                if index >= size or not ref.bits[index]:
                    continue
                end = index
                while end < min(size, index + length) and ref.bits[end]:
                    end += 1
                args = [index, end - index]
                op = "clear_range"
            got = _outcome(lambda: getattr(bitmap, op)(*args))
            want = _outcome(lambda: getattr(ref, op)(*args))
            assert got == want, (op, args)
        assert bitmap.set_count == ref.set_count
        assert bitmap.clear_count == ref.clear_count
        assert [bitmap.test(i) for i in range(size)] == ref.bits


# ----------------------------------------------------------------------
# BlockAllocator: the allocator's choices do not change
# ----------------------------------------------------------------------
def _small_kernel(nvm_bytes: int = 1 * MIB) -> Kernel:
    return Kernel(MachineConfig(dram_bytes=64 * MIB, nvm_bytes=nvm_bytes))


_alloc_op = st.one_of(
    st.tuples(st.just("extent"), st.integers(1, 96), st.sampled_from([1, 2, 8, 64])),
    st.tuples(st.just("best_effort"), st.integers(1, 200)),
    st.tuples(st.just("free"), st.integers(0, 50)),
    st.tuples(st.just("claim"), st.integers(0, 255)),
)


def _replay_allocator(kernel: Kernel, ops) -> List[object]:
    alloc = kernel.nvm_allocator
    held: List[Extent] = []
    trail: List[object] = []
    for op, *args in ops:
        try:
            if op == "extent":
                got = [alloc.alloc_extent(args[0], align_frames=args[1])]
            elif op == "best_effort":
                got = alloc.alloc_best_effort(args[0])
            elif op == "free":
                if not held:
                    continue
                alloc.free_extent(held.pop(args[0] % len(held)))
                got = []
            else:
                pfn = kernel.nvm_region.first_pfn + args[0]
                if not alloc.block_is_free(pfn):
                    continue
                alloc.claim_block(pfn)
                got = []
        except Exception as error:  # the same error on both sides
            trail.append(type(error).__name__)
            continue
        held.extend(got)
        trail.append([(extent.pfn, extent.count) for extent in got])
    trail.append((alloc.free_blocks, kernel.clock.now, kernel.counters.snapshot()))
    return trail


class TestAllocatorChoicesUnchanged:
    @given(st.lists(_alloc_op, max_size=40))
    @settings(max_examples=60)
    def test_aligned_and_best_effort_starts_identical(self, ops):
        run_level, per_bit = _small_kernel(), _small_kernel()
        per_bit.nvm_allocator._bitmap = RefBitmap(per_bit.nvm_allocator.total_blocks)
        assert _replay_allocator(run_level, ops) == _replay_allocator(per_bit, ops)


# ----------------------------------------------------------------------
# fsck and the crash scrub on planted defects
# ----------------------------------------------------------------------
_DEFECTS = ("leak", "orphan", "double_claim", "self_overlap", "torn_record")


def _plant(kernel: Kernel, sizes: List[int], defects: List[Tuple[str, int]]) -> None:
    fs = kernel.pmfs
    first = kernel.nvm_region.first_pfn
    inodes = [fs.create(f"/f{i}", size=n * PAGE_SIZE) for i, n in enumerate(sizes)]
    if len(inodes) > 2:
        fs.unlink("/f1")  # leave a hole, so runs and extents interleave
        inodes.pop(1)
    for kind, pick in defects:
        extents = [
            (inode.ino, extent)
            for inode in inodes
            for extent in fs._tree_of(inode).extents()
        ]
        if kind == "leak" or not extents:
            fs.allocator.alloc_extent(1 + pick % 5)
            continue
        ino, victim = extents[pick % len(extents)]
        offset = pick % victim.count
        if kind == "orphan":
            if fs.allocator._bitmap.test(victim.pfn + offset - first):
                fs.allocator._bitmap.clear_range(victim.pfn + offset - first, 1)
        elif kind in ("double_claim", "self_overlap"):
            owner = ino if kind == "self_overlap" else inodes[pick % len(inodes)].ino
            tree = fs._trees[owner]
            tree.insert(
                Extent(
                    logical=max(e.logical_end for e in tree.extents()) + 3,
                    pfn=victim.pfn + offset,
                    count=min(victim.count - offset, 1 + pick % 3),
                )
            )
        else:
            torn = fs.allocator.alloc_extent(1 + pick % 7)
            fs.journal.append(
                JournalRecord(op="alloc", ino=ino, extents=[torn], corrupted=True)
            )


_sizes = st.lists(st.integers(min_value=1, max_value=40), min_size=1, max_size=5)
_defects = st.lists(
    st.tuples(st.sampled_from(_DEFECTS), st.integers(0, 1000)), max_size=6
)


def _state(kernel: Kernel, suite: Optional[SanitizerSuite]):
    """Everything recovery may touch; inode numbers become tree positions,
    since every machine draws them from one process-wide counter."""
    bitmap = kernel.nvm_allocator._bitmap
    report = suite.report() if suite is not None else None
    position = {ino: index for index, ino in enumerate(kernel.pmfs._trees)}
    return (
        [
            re.sub(r"ino (\d+)", lambda m: f"ino #{position[int(m[1])]}", problem)
            for problem in kernel.pmfs.fsck()
        ],
        [bitmap.test(i) for i in range(bitmap.size)],
        kernel.clock.now,
        kernel.counters.snapshot(),
        report and (report["checks"], report["shadow"], report["violations"]),
    )


class TestOraclesOnPlantedDefects:
    @given(_sizes, _defects)
    @settings(max_examples=60)
    def test_fsck_problem_list_matches_per_block_reference(self, sizes, defects):
        kernel = _small_kernel(nvm_bytes=2 * MIB)
        _plant(kernel, sizes, defects)
        assert kernel.pmfs.fsck() == ref_fsck(kernel.pmfs)

    def test_every_defect_kind_is_reported(self):
        kernel = _small_kernel(nvm_bytes=2 * MIB)
        _plant(
            kernel,
            [8, 4, 8],
            [("leak", 0), ("orphan", 1), ("double_claim", 2), ("torn_record", 0)],
        )
        problems = kernel.pmfs.fsck()
        assert problems == ref_fsck(kernel.pmfs)
        for fragment in ("owned by no file", "but free in bitmap", "claimed by ino"):
            assert any(fragment in problem for problem in problems), fragment

    @given(_sizes, _defects, st.booleans())
    @settings(max_examples=60)
    def test_crash_scrub_matches_per_block_reference(self, sizes, defects, armed):
        sides = []
        for reference in (False, True):
            kernel = _small_kernel(nvm_bytes=2 * MIB)
            suite = kernel.arm_sanitizers(SanitizerSuite()) if armed else None
            _plant(kernel, sizes, defects)
            if reference:
                kernel.pmfs._scrub = lambda fs=kernel.pmfs: ref_scrub(fs)
            kernel.pmfs.crash()
            sides.append(_state(kernel, suite))
        assert sides[0] == sides[1]


# ----------------------------------------------------------------------
# FrameSan's NVM ledger and TransSan's free check
# ----------------------------------------------------------------------
_ledger_op = st.one_of(
    st.tuples(st.just("alloc"), st.integers(0, 60), st.integers(0, 8)),
    st.tuples(st.just("free"), st.integers(0, 60), st.integers(0, 8), st.booleans()),
    st.tuples(st.just("retire"), st.integers(0, 60), st.integers(0, 3)),
    st.tuples(st.just("access"), st.integers(0, 70)),
)


class TestFrameSanLedgerAgainstPerBlockSets:
    @given(st.lists(_ledger_op, max_size=40))
    def test_reports_and_stats_match(self, ops):
        got: List[tuple] = []
        want: List[tuple] = []
        san = FrameSan(lambda *report: got.append(report))
        ref = RefFrameSanNvm(lambda *report: want.append(report))
        allocator = SimpleNamespace(_region=SimpleNamespace(first_pfn=0, frame_count=64))
        for op, *args in ops:
            if op == "alloc":
                san.on_nvm_alloc(allocator, *args)
                ref.on_nvm_alloc(*args)
            elif op == "free":
                san.on_nvm_free(allocator, *args)
                ref.on_nvm_free(*args)
            elif op == "retire":
                san.on_nvm_retired(allocator, *args)
                ref.on_nvm_retired(*args)
            else:
                san.check_access(args[0] * PAGE_SIZE)
                if args[0] in ref.retired:
                    kind = "retired-frame-access"
                elif args[0] < 64 and args[0] in ref.freed:
                    kind = "use-after-free"
                else:
                    kind = None
                assert [r[0] for r in got[len(want):]] == ([kind] if kind else [])
                want.extend(got[len(want):])
            assert got == want
        stats = san.stats()
        assert stats["nvm_blocks_outstanding_since_arming"] == len(ref.allocated)
        assert stats["retired_frames"] == len(ref.retired)

    def test_double_free_reported_after_the_same_partial_update(self):
        reports: List[tuple] = []
        san = FrameSan(lambda *report: reports.append(report))
        allocator = SimpleNamespace(_region=SimpleNamespace(first_pfn=0, frame_count=64))
        san.on_nvm_alloc(allocator, 0, 16)
        san.on_nvm_free(allocator, 8, 4, check=True)
        san.on_nvm_free(allocator, 4, 8, check=True)  # 8..11 already freed
        assert [r[2] for r in reports] == [{"pfn": 8}]
        assert san.stats()["nvm_blocks_outstanding_since_arming"] == 8  # 4..7 moved


class TestTransSanFreeCheck:
    @given(
        st.dictionaries(st.integers(0, 80), st.integers(1, 3), max_size=12),
        st.integers(0, 80),
        st.integers(0, 40),
    )
    def test_lowest_dangling_frame_reported_either_walk(self, refs, first, count):
        reports: List[tuple] = []
        trans = TransSan(lambda *report: reports.append(report))
        trans._refs.update(refs)
        trans.check_frames_freed(first, count, "pmfs")
        dangling = [frame for frame in range(first, first + count) if frame in refs]
        if dangling:
            lowest = min(dangling)
            assert [r[2] for r in reports] == [
                {"pfn": lowest, "translations": refs[lowest], "origin": "pmfs"}
            ]
        else:
            assert reports == []
