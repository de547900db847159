"""Tests for the LocationIndex."""

import pytest

from repro.catalog import LocationIndex, Request
from repro.hardware import LibrarySpec, ObjectExtent, SystemSpec, TapeId, TapeSystem


@pytest.fixture
def system():
    return TapeSystem(SystemSpec(num_libraries=2, library=LibrarySpec(num_drives=2, num_tapes=4)))


def test_from_system_scans_all_layouts(system):
    system.tape(TapeId(0, 0)).append_object(1, 100)
    system.tape(TapeId(1, 2)).append_object(2, 200)
    index = LocationIndex.from_system(system)
    assert len(index) == 2
    assert index.tapes_of(1) == (TapeId(0, 0),)
    assert index.tapes_of(2) == (TapeId(1, 2),)
    # The single-extent convenience accessor still works where unambiguous.
    assert index.tape_of(1) == TapeId(0, 0)


def test_tape_of_raises_on_redundant_object():
    index = LocationIndex()
    index.add(1, TapeId(0, 0), ObjectExtent(1, 0, 10, replica=0, replicas=2))
    index.add(1, TapeId(0, 1), ObjectExtent(1, 0, 10, replica=1, replicas=2))
    assert index.tapes_of(1) == (TapeId(0, 0), TapeId(0, 1))
    with pytest.raises(ValueError):
        index.tape_of(1)


def test_locate_returns_extent(system):
    extent = system.tape(TapeId(0, 1)).append_object(7, 150)
    index = LocationIndex.from_system(system)
    tape_id, found = index.locate(7)
    assert tape_id == TapeId(0, 1)
    assert found == extent


def test_locate_unplaced_object_raises():
    with pytest.raises(KeyError):
        LocationIndex().locate(123)


def test_duplicate_placement_rejected():
    index = LocationIndex()
    index.add(1, TapeId(0, 0), ObjectExtent(1, 0, 10))
    with pytest.raises(ValueError):
        index.add(1, TapeId(0, 1), ObjectExtent(1, 0, 10))


def test_group_by_tape(system):
    t0, t1 = system.tape(TapeId(0, 0)), system.tape(TapeId(1, 1))
    t0.append_object(1, 100)
    t0.append_object(2, 100)
    t1.append_object(3, 100)
    index = LocationIndex.from_system(system)
    groups = index.group_by_tape([1, 2, 3])
    assert set(groups) == {TapeId(0, 0), TapeId(1, 1)}
    assert sorted(e.object_id for e in groups[TapeId(0, 0)]) == [1, 2]


def test_contains(system):
    system.tape(TapeId(0, 0)).append_object(5, 10)
    index = LocationIndex.from_system(system)
    assert 5 in index
    assert 6 not in index


def _striped_index():
    """Objects 1 and 2 share L0.T0 (2 first, further down the tape); object
    3 is striped over L0.T1 and L1.T0."""
    index = LocationIndex()
    index.add(1, TapeId(0, 0), ObjectExtent(1, 500.0, 10.0))
    index.add(2, TapeId(0, 0), ObjectExtent(2, 100.0, 20.0))
    index.add(3, TapeId(0, 1), ObjectExtent(3, 0.0, 5.0, part=0, parts=2))
    index.add(3, TapeId(1, 0), ObjectExtent(3, 40.0, 5.0, part=1, parts=2))
    return index


class TestRequestPlan:
    def test_tapes_sorted_by_start_in_group_order(self):
        index = _striped_index()
        plan = index.request_plan(Request(0, (1, 3, 2), 1.0))
        groups = index.group_by_tape((1, 3, 2))
        assert [tape_id for tape_id, _ in plan.tapes] == list(groups)
        assert [[e.object_id for e in extents] for _, extents in plan.tapes] == [
            [2, 1], [3], [3]
        ]
        assert plan.total_mb == sum(e.size_mb for g in groups.values() for e in g)

    def test_contents_are_tuples(self):
        plan = _striped_index().request_plan(Request(0, (1, 2, 3), 1.0))
        assert isinstance(plan.tapes, tuple)
        for pair in plan.tapes:
            assert isinstance(pair, tuple) and isinstance(pair[1], tuple)

    def test_memoized_per_request(self):
        index = _striped_index()
        request = Request(0, (1, 2), 1.0)
        plan = index.request_plan(request)
        assert index.request_plan(request) is plan
        # Another request object with the same id and the same ids tuple.
        assert index.request_plan(Request(0, request.object_ids, 1.0)) is plan

    def test_same_id_other_objects_misses(self):
        index = _striped_index()
        first = index.request_plan(Request(0, (1, 2), 1.0))
        other = index.request_plan(Request(0, (3,), 1.0))
        assert other is not first
        assert [tape_id for tape_id, _ in other.tapes] == [TapeId(0, 1), TapeId(1, 0)]
        # An equal but distinct ids tuple is not trusted either.
        assert index.request_plan(Request(0, tuple([3]), 1.0)) is not other

    def test_add_clears_the_memo(self):
        index = LocationIndex()
        index.add(2, TapeId(0, 1), ObjectExtent(2, 0.0, 5.0, part=0, parts=2))
        request = Request(0, (2,), 1.0)
        before = index.request_plan(request)
        assert [tape_id for tape_id, _ in before.tapes] == [TapeId(0, 1)]
        index.add(2, TapeId(1, 0), ObjectExtent(2, 40.0, 5.0, part=1, parts=2))
        after = index.request_plan(request)
        assert [tape_id for tape_id, _ in after.tapes] == [TapeId(0, 1), TapeId(1, 0)]
        assert after.total_mb == 10.0

    def test_remove_member_clears_the_memo(self):
        index = _striped_index()
        request = Request(0, (3,), 1.0)
        assert len(index.request_plan(request).tapes) == 2
        index.remove_member(3, TapeId(1, 0), part=1, replica=0)
        after = index.request_plan(request)
        assert [tape_id for tape_id, _ in after.tapes] == [TapeId(0, 1)]
        assert after.total_mb == 5.0

    def test_failed_remove_keeps_the_memo(self):
        index = _striped_index()
        request = Request(0, (1, 2), 1.0)
        plan = index.request_plan(request)
        with pytest.raises(KeyError):
            index.remove_member(1, TapeId(1, 1), part=0, replica=0)
        assert index.request_plan(request) is plan
