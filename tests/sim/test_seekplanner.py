"""Tests for the seek planners (greedy sweep + exact LTSP)."""

import pytest
from hypothesis import given, settings as hyp_settings
from hypothesis import strategies as st

from repro.hardware import ObjectExtent, TapeSpec
from repro.sim import (
    DEFAULT_SEEK_PLANNER,
    GreedySweepPlanner,
    SeekPlanner,
    available_seek_planners,
    locate_cost,
    plan_retrieval,
    resolve_seek_planner,
)


@pytest.fixture
def spec():
    return TapeSpec(capacity_mb=1000.0, max_rewind_s=10.0)


@pytest.fixture
def startup_spec():
    return TapeSpec(capacity_mb=1000.0, max_rewind_s=10.0, locate_startup_s=2.0)


def ext(oid, start, size=10.0):
    return ObjectExtent(object_id=oid, start_mb=start, size_mb=size)


class TestRegistry:
    def test_exactly_two_planners(self):
        assert available_seek_planners() == ("exact", "greedy-sweep")

    def test_default_is_greedy_sweep(self):
        assert DEFAULT_SEEK_PLANNER == "greedy-sweep"
        assert resolve_seek_planner(None).name == "greedy-sweep"

    def test_resolve_none_returns_shared_singleton(self):
        assert resolve_seek_planner(None) is resolve_seek_planner(None)

    def test_resolve_round_trips_every_name(self):
        for name in available_seek_planners():
            planner = resolve_seek_planner(name)
            assert isinstance(planner, SeekPlanner)
            assert planner.name == name
            assert resolve_seek_planner(name) is planner

    def test_resolve_accepts_name_and_instance(self):
        by_name = resolve_seek_planner("exact")
        assert by_name.name == "exact"
        instance = GreedySweepPlanner()
        assert resolve_seek_planner(instance) is instance

    def test_unknown_name_lists_known(self):
        with pytest.raises(KeyError, match="greedy-sweep"):
            resolve_seek_planner("zigzag")
        with pytest.raises(KeyError, match="exact"):
            resolve_seek_planner("approx")


def _all_planners():
    return [resolve_seek_planner(name) for name in available_seek_planners()]


# Integer starts with size 1.0 keep extents disjoint (gap >= size): distinct
# objects occupy disjoint tape regions, and the exact planner's turn-point
# optimality theorem assumes exactly that — overlapping extents can make a
# "suboptimal" order cheaper by reading through a later extent's region.
extent_sets = st.lists(
    st.integers(min_value=0, max_value=900),
    min_size=0,
    max_size=9,
    unique=True,
).map(lambda starts: [ext(i, float(s), size=1.0) for i, s in enumerate(starts)])

heads = st.floats(min_value=0.0, max_value=1000.0, allow_nan=False)


class TestPlannerProperties:
    @hyp_settings(max_examples=60, deadline=None)
    @given(extent_sets, heads, st.sampled_from([0.0, 2.0]))
    def test_every_planner_returns_a_permutation(self, extents, head, startup):
        spec = TapeSpec(1000.0, 10.0, locate_startup_s=startup)
        for planner in _all_planners():
            ordered, cost = planner.plan(extents, head, spec)
            assert sorted(e.object_id for e in ordered) == sorted(
                e.object_id for e in extents
            )
            assert cost >= 0.0

    @hyp_settings(max_examples=60, deadline=None)
    @given(extent_sets, heads, st.sampled_from([0.0, 2.0]))
    def test_reported_cost_prices_the_returned_order(self, extents, head, startup):
        spec = TapeSpec(1000.0, 10.0, locate_startup_s=startup)
        for planner in _all_planners():
            ordered, cost = planner.plan(extents, head, spec)
            assert cost == pytest.approx(locate_cost(ordered, head, spec))

    @hyp_settings(max_examples=60, deadline=None)
    @given(extent_sets, heads, st.sampled_from([0.0, 0.5, 2.0]))
    def test_exact_never_loses_to_any_other_planner(self, extents, head, startup):
        spec = TapeSpec(1000.0, 10.0, locate_startup_s=startup)
        _, exact_cost = resolve_seek_planner("exact").plan(extents, head, spec)
        for planner in _all_planners():
            _, cost = planner.plan(extents, head, spec)
            assert exact_cost <= cost + 1e-9

    @hyp_settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=900.0, allow_nan=False),
            min_size=0,
            max_size=1,
            unique=True,
        ),
        heads,
    )
    def test_planners_agree_on_empty_and_singleton(self, starts, head):
        spec = TapeSpec(1000.0, 10.0, locate_startup_s=2.0)
        extents = [ext(i, s) for i, s in enumerate(starts)]
        reference, ref_cost = plan_retrieval(extents, head, spec)
        for planner in _all_planners():
            ordered, cost = planner.plan(extents, head, spec)
            assert ordered == reference
            assert cost == pytest.approx(ref_cost)


class TestGreedyDelegates:
    def test_greedy_matches_plan_retrieval_exactly(self, spec):
        extents = [ext(1, 500.0), ext(2, 100.0), ext(3, 800.0), ext(4, 300.0)]
        assert GreedySweepPlanner().plan(extents, 400.0, spec) == plan_retrieval(
            extents, 400.0, spec
        )


class TestExactBeatsSweepSomewhere:
    def test_mixed_partition_beats_both_sweeps(self, startup_spec):
        """Two clusters far apart with a positive startup: serving the top
        cluster first (one turn-point) chains reads for free where either
        single sweep pays extra startup-laden locates."""
        extents = [
            ext(1, 10.0, 5.0),
            ext(2, 20.0, 5.0),
            ext(3, 800.0, 5.0),
            ext(4, 810.0, 5.0),
        ]
        head = 805.0
        _, greedy = plan_retrieval(extents, head, startup_spec)
        ordered, exact = resolve_seek_planner("exact").plan(
            extents, head, startup_spec
        )
        assert exact <= greedy
        assert exact == pytest.approx(locate_cost(ordered, head, startup_spec))

    def test_exact_matches_brute_force_on_small_sets(self, startup_spec):
        import itertools

        extents = [ext(1, 50.0), ext(2, 400.0), ext(3, 420.0), ext(4, 900.0)]
        for head in (0.0, 410.0, 950.0):
            best = min(
                locate_cost(list(perm), head, startup_spec)
                for perm in itertools.permutations(extents)
            )
            _, cost = resolve_seek_planner("exact").plan(extents, head, startup_spec)
            assert cost == pytest.approx(best)
