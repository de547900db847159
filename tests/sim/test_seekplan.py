"""Tests for within-tape sweep planning."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware import ObjectExtent, TapeSpec
from repro.sim import locate_cost, plan_retrieval, sweep_cost


@pytest.fixture
def spec():
    # 1000 MB tape traversed in 10 s -> locate rate 100 MB/s.
    return TapeSpec(capacity_mb=1000, max_rewind_s=10)


def ext(oid, start, size=10.0):
    return ObjectExtent(oid, start, size)


class TestSweepCost:
    def test_empty(self, spec):
        assert sweep_cost([], 0.0, spec, ascending=True) == 0.0

    def test_ascending_from_bot(self, spec):
        # extents at 100 and 300 (sizes 10): seek 0->100 (1s), 110->300 (1.9s)
        cost = sweep_cost([ext(1, 100), ext(2, 300)], 0.0, spec, ascending=True)
        assert cost == pytest.approx(1.0 + 1.9)

    def test_descending_from_eot(self, spec):
        # head at 1000: 1000->300 (7s), read to 310, 310->100 (2.1s)
        cost = sweep_cost([ext(1, 100), ext(2, 300)], 1000.0, spec, ascending=False)
        assert cost == pytest.approx(7.0 + 2.1)


class TestPlanRetrieval:
    def test_empty(self, spec):
        order, cost = plan_retrieval([], 50.0, spec)
        assert order == [] and cost == 0.0

    def test_prefers_ascending_from_bot(self, spec):
        order, _ = plan_retrieval([ext(2, 300), ext(1, 100)], 0.0, spec)
        assert [e.object_id for e in order] == [1, 2]

    def test_prefers_descending_from_eot(self, spec):
        order, _ = plan_retrieval([ext(1, 100), ext(2, 300)], 900.0, spec)
        assert [e.object_id for e in order] == [2, 1]

    def test_cost_matches_chosen_direction(self, spec):
        extents = [ext(1, 100), ext(2, 300), ext(3, 700)]
        _, cost = plan_retrieval(extents, 0.0, spec)
        assert cost == pytest.approx(sweep_cost(extents, 0.0, spec, ascending=True))

    def test_single_extent(self, spec):
        order, cost = plan_retrieval([ext(1, 500)], 0.0, spec)
        assert [e.object_id for e in order] == [1]
        assert cost == pytest.approx(5.0)

    @given(
        starts=st.lists(
            st.floats(min_value=0, max_value=900, allow_nan=False),
            min_size=1,
            max_size=10,
            unique=True,
        ),
        head=st.floats(min_value=0, max_value=1000, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_chosen_sweep_never_worse_than_either_direction(self, starts, head):
        spec = TapeSpec(capacity_mb=2000, max_rewind_s=10)
        extents = [ObjectExtent(i, s, 1.0) for i, s in enumerate(sorted(starts))]
        _, cost = plan_retrieval(extents, head, spec)
        up = sweep_cost(extents, head, spec, ascending=True)
        down = sweep_cost(extents, head, spec, ascending=False)
        assert cost == pytest.approx(min(up, down))


def two_sort_plan(extents, head, spec):
    """The former planner: each sweep sorted on its own."""
    if not extents:
        return [], 0.0
    asc = sorted(extents, key=lambda e: e.start_mb)
    up = locate_cost(asc, head, spec)
    desc = sorted(extents, key=lambda e: e.start_mb, reverse=True)
    down = locate_cost(desc, head, spec)
    return (asc, up) if up <= down else (desc, down)


def two_sort_sweep_cost(extents, head, spec, ascending):
    if not extents:
        return 0.0
    ordered = sorted(extents, key=lambda e: e.start_mb, reverse=not ascending)
    return locate_cost(ordered, head, spec)


@st.composite
def tape_layouts(draw):
    """Non-overlapping extents of one tape (positive sizes, optional gaps),
    handed over either sorted by start or in a drawn order."""
    n = draw(st.integers(min_value=0, max_value=12))
    extents, position = [], 0.0
    for object_id in range(n):
        position += draw(st.sampled_from([0.0, 0.5, 3.0, 41.25]))
        size = draw(st.floats(min_value=0.01, max_value=80, allow_nan=False))
        extents.append(ObjectExtent(object_id, position, size))
        position = extents[-1].end_mb
    if draw(st.booleans()):
        extents = draw(st.permutations(extents))
    return extents


class TestSingleSortParity:
    """One ascending sort, the descending sweep as its reverse: plans and
    costs equal the two-sort planner's for sorted and unsorted input."""

    @given(
        extents=tape_layouts(),
        head=st.floats(min_value=0, max_value=1200, allow_nan=False),
        startup=st.sampled_from([0.0, 2.5]),
    )
    @settings(max_examples=200, deadline=None)
    def test_plan_and_costs_equal_two_sort_version(self, extents, head, startup):
        spec = TapeSpec(capacity_mb=2000, max_rewind_s=10, locate_startup_s=startup)
        order, cost = plan_retrieval(extents, head, spec)
        ref_order, ref_cost = two_sort_plan(extents, head, spec)
        assert cost.hex() == ref_cost.hex()
        assert len(order) == len(ref_order)
        assert all(a is b for a, b in zip(order, ref_order))
        for ascending in (True, False):
            got = sweep_cost(extents, head, spec, ascending)
            assert got.hex() == two_sort_sweep_cost(extents, head, spec, ascending).hex()
