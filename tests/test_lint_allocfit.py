"""Empirical allocation cross-check: repro.lint.allocfit.

Covers the tracemalloc measurement core (warmup discrimination and the
LRU-churn artifact the measurement must not mistake for a leak), the
judgment logic (planted control inversion, uncertified-name
detection), the registry, and the certified TLB-hit op end to end.
"""

from collections import OrderedDict

import pytest

from repro.lint.allocfit import (
    ALLOC_OPS,
    AllocOp,
    measure_net_growth,
    ops_by_name,
    run_alloc_op,
    run_allocfit,
)
from repro.lint.decorators import iter_alloc_declarations


# ---------------------------------------------------------------------------
# Measurement core
# ---------------------------------------------------------------------------
class TestMeasureNetGrowth:
    def test_steady_state_fn_nets_zero(self):
        counter = [0]

        def step():
            counter[0] += 1

        net, _gc = measure_net_growth(step, warmup=16, calls=1024)
        assert abs(net) / 1024 < 8.0

    def test_retaining_fn_grows(self):
        sink = []

        def step():
            sink.append(object())

        net, _gc = measure_net_growth(step, warmup=16, calls=1024)
        assert net / 1024 > 8.0

    def test_warmup_absorbs_first_call_caching(self):
        """A transient-phase fill (memo tables, counter keys) must land
        in the warmup, not the measurement window."""
        def fresh():
            cache = {}
            cursor = [0]

            def step():
                index = cursor[0] % 256
                cursor[0] += 1
                if index not in cache:
                    cache[index] = [index] * 8
                return cache[index]

            return step

        warm_net, _ = measure_net_growth(fresh(), warmup=300, calls=1024)
        cold_net, _ = measure_net_growth(fresh(), warmup=0, calls=1024)
        assert abs(warm_net) / 1024 < 8.0
        # Without warmup the fill happens inside the window; the same
        # fill measured cold must register, or the harness is blind.
        assert cold_net > warm_net + 1024

    def test_lru_churn_is_not_a_leak(self):
        """Bounded-capacity replacement (TLB sets, cache LRU) must net
        zero.  This is the regression the trace-before-warmup order
        exists for: tracemalloc only credits frees of blocks it saw
        allocated, so warming untraced makes one full working-set
        cycle of churn look like retention."""
        capacity = 64
        lru: "OrderedDict[int, list]" = OrderedDict()
        cursor = [0]

        def step():
            key = cursor[0]
            cursor[0] += 1
            lru[key] = [key] * 8
            if len(lru) > capacity:
                lru.popitem(last=False)

        net, _gc = measure_net_growth(step, warmup=256, calls=4096)
        assert abs(net) / 4096 < 8.0


# ---------------------------------------------------------------------------
# Judgment
# ---------------------------------------------------------------------------
def _op(prepare, certified=(), **kwargs) -> AllocOp:
    defaults = dict(name="test.op", warmup=16, calls=512)
    defaults.update(kwargs)
    return AllocOp(prepare=prepare, certified=tuple(certified), **defaults)


class TestJudgment:
    def test_clean_op_passes(self):
        result = run_alloc_op(_op(lambda: (lambda: None)))
        assert result.ok and not result.grew
        assert result.calls == 512

    def test_retaining_op_fails(self):
        def prepare():
            sink = []
            return lambda: sink.append(object())

        result = run_alloc_op(_op(prepare))
        assert result.grew and not result.ok

    def test_control_inverts_the_judgment(self):
        def prepare():
            sink = []
            return lambda: sink.append(object())

        result = run_alloc_op(_op(prepare, expect_growth=True))
        assert result.grew and result.ok
        # A control that stops growing means the harness is broken.
        clean = run_alloc_op(_op(lambda: (lambda: None), expect_growth=True))
        assert not clean.ok

    def test_uncertified_name_fails_even_when_clean(self):
        result = run_alloc_op(
            _op(lambda: (lambda: None), certified=("pkg.not.registered",))
        )
        assert not result.grew
        assert result.uncertified == ("pkg.not.registered",)
        assert not result.ok

    def test_format_mentions_verdict_and_kind(self):
        result = run_alloc_op(_op(lambda: (lambda: None)))
        line = result.format()
        assert "ok" in line and "certified" in line
        control = run_alloc_op(
            _op(lambda: (lambda: None), expect_growth=True)
        )
        assert "FAIL" in control.format()
        assert "control" in control.format()


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------
class TestRegistry:
    def test_registry_has_the_hit_miss_and_control_ops(self):
        names = [op.name for op in ALLOC_OPS]
        assert "access.tlb_hit" in names
        assert "access.tlb_miss_walk" in names
        assert "control.allocfree_retaining" in names

    def test_exactly_one_planted_control(self):
        controls = [op for op in ALLOC_OPS if op.expect_growth]
        assert [op.name for op in controls] == ["control.allocfree_retaining"]

    def test_certified_names_resolve_to_declarations(self):
        """Static and empirical prongs must agree on what is certified:
        every name an op claims must carry @allocfree/@allocbound."""
        import repro.hw.cache  # noqa: F401
        import repro.hw.clock  # noqa: F401
        import repro.hw.cpu  # noqa: F401
        import repro.hw.tlb  # noqa: F401
        import repro.kernel.kernel  # noqa: F401
        import repro.lint.controls  # noqa: F401
        import repro.paging.walker  # noqa: F401

        registered = {d.function for d in iter_alloc_declarations()}
        for op in ALLOC_OPS:
            missing = [n for n in op.certified if n not in registered]
            assert not missing, f"{op.name} claims undeclared {missing}"

    def test_ops_by_name_filters_and_rejects_unknown(self):
        (only,) = ops_by_name(["access.tlb_hit"])
        assert only.name == "access.tlb_hit"
        assert ops_by_name(None) == list(ALLOC_OPS)
        with pytest.raises(KeyError, match="unknown alloc ops"):
            ops_by_name(["access.no_such_op"])


# ---------------------------------------------------------------------------
# End to end: the registry's own ops
# ---------------------------------------------------------------------------
class TestRegisteredOps:
    def test_planted_control_fires(self):
        (result,) = run_allocfit(names=["control.allocfree_retaining"])
        assert result.expect_growth and result.grew and result.ok
        assert result.per_call_bytes > 8.0

    # The certificate is about the unarmed hit path; armed worlds are cold.
    @pytest.mark.unarmed
    def test_certified_tlb_hit_is_allocation_free(self):
        """The headline certificate: a TLB-warm access nets ~0 bytes."""
        lines = []
        (result,) = run_allocfit(
            names=["access.tlb_hit"], progress=lines.append
        )
        assert result.ok and not result.grew
        assert result.uncertified == ()
        assert abs(result.per_call_bytes) < 8.0
        assert lines and "access.tlb_hit" in lines[0]
