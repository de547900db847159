"""Tests for Tape layout management."""

import copy
import dataclasses
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.hardware import ObjectExtent, Tape, TapeId, TapeSpec


@pytest.fixture
def tape():
    return Tape(TapeId(0, 0), TapeSpec(capacity_mb=1000, max_rewind_s=10))


class TestObjectExtent:
    def test_end(self):
        assert ObjectExtent(1, 10, 5).end_mb == 15

    def test_rejects_negative_start(self):
        with pytest.raises(ValueError):
            ObjectExtent(1, -1, 5)

    def test_rejects_zero_size(self):
        with pytest.raises(ValueError):
            ObjectExtent(1, 0, 0)

    def test_overlap_detection(self):
        a = ObjectExtent(1, 0, 10)
        b = ObjectExtent(2, 5, 10)
        c = ObjectExtent(3, 10, 10)
        assert a.overlaps(b)
        assert b.overlaps(a)
        assert not a.overlaps(c)  # adjacent is not overlapping


class TestObjectExtentContract:
    """The value-class contract every extent user relies on: equality,
    hashing, ``repr``, ``dataclasses.replace``, pickling, immutability and
    the constructor's checks and messages."""

    def test_equal_extents_are_equal_and_hash_equal(self):
        a = ObjectExtent(7, 10.0, 5.0, part=1, parts=2, replica=1, replicas=3, needed=2)
        b = ObjectExtent(7, 10.0, 5.0, 1, 2, 1, 3, 2)
        assert a == b and a is not b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
        assert a != ObjectExtent(7, 10.0, 5.0, part=0, parts=2, replica=1, replicas=3, needed=2)
        assert a != (7, 10.0, 5.0, 1, 2, 1, 3, 2)

    def test_repr(self):
        assert repr(ObjectExtent(3, 1.5, 2.0)) == (
            "ObjectExtent(object_id=3, start_mb=1.5, size_mb=2.0, part=0, "
            "parts=1, replica=0, replicas=1, needed=1)"
        )

    def test_dataclasses_replace(self):
        a = ObjectExtent(3, 1.5, 2.0, replica=1, replicas=2)
        moved = dataclasses.replace(a, start_mb=40.0)
        assert moved == ObjectExtent(3, 40.0, 2.0, replica=1, replicas=2)
        assert moved.end_mb == 42.0
        with pytest.raises(ValueError, match="extent start must be >= 0"):
            dataclasses.replace(a, start_mb=-1.0)

    @pytest.mark.parametrize("clone", [
        lambda e: pickle.loads(pickle.dumps(e, pickle.HIGHEST_PROTOCOL)),
        lambda e: pickle.loads(pickle.dumps(e, 0)),
        copy.copy,
        copy.deepcopy,
    ])
    def test_round_trip(self, clone):
        a = ObjectExtent(9, 0.1, 0.2, part=2, parts=3, replica=0, replicas=2)
        b = clone(a)
        assert b == a and hash(b) == hash(a) and repr(b) == repr(a)
        assert b.end_mb == a.end_mb == 0.1 + 0.2

    @pytest.mark.parametrize("name", [
        "object_id", "start_mb", "size_mb", "part", "parts",
        "replica", "replicas", "needed", "end_mb",
    ])
    def test_assignment_raises(self, name):
        a = ObjectExtent(1, 0.0, 1.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(a, name, 2)
        assert a == ObjectExtent(1, 0.0, 1.0) and a.end_mb == 1.0

    @pytest.mark.parametrize("kwargs, message", [
        (dict(start_mb=-1), "extent start must be >= 0, got -1"),
        (dict(size_mb=0), "extent size must be positive, got 0"),
        (dict(size_mb=-2.5), "extent size must be positive, got -2.5"),
        (dict(parts=0), "parts must be >= 1, got 0"),
        (dict(part=2, parts=2), "part 2 out of range for 2 parts"),
        (dict(part=-1), "part -1 out of range for 1 parts"),
        (dict(replicas=0), "replicas must be >= 1, got 0"),
        (dict(replica=3, replicas=3), "replica 3 out of range for 3 replicas"),
        (dict(replica=-1), "replica -1 out of range for 1 replicas"),
        (dict(needed=0), "needed must be in [1, 1], got 0"),
        (dict(needed=3, replicas=2), "needed must be in [1, 2], got 3"),
        # Checks run in declaration order: the first broken rule reports.
        (dict(start_mb=-1, size_mb=0, parts=0), "extent start must be >= 0, got -1"),
        (dict(parts=0, replicas=0), "parts must be >= 1, got 0"),
    ])
    def test_constructor_errors(self, kwargs, message):
        args = dict(object_id=1, start_mb=0.0, size_mb=1.0)
        args.update(kwargs)
        with pytest.raises(ValueError) as err:
            ObjectExtent(**args)
        assert str(err.value) == message

    @given(
        st.floats(min_value=0, max_value=1e12, allow_nan=False),
        st.floats(min_value=1e-9, max_value=1e12, allow_nan=False),
    )
    def test_end_is_start_plus_size_bit_for_bit(self, start, size):
        extent = ObjectExtent(1, start, size)
        assert extent.end_mb == start + size
        assert extent.end_mb.hex() == (start + size).hex()


class TestTapeLayout:
    def test_fresh_tape_is_empty(self, tape):
        assert len(tape) == 0
        assert tape.used_mb == 0
        assert tape.free_mb == 1000

    def test_append_object(self, tape):
        e1 = tape.append_object(7, 100)
        e2 = tape.append_object(8, 50)
        assert e1.start_mb == 0
        assert e2.start_mb == 100
        assert tape.used_mb == 150
        assert tape.object_ids == (7, 8)

    def test_append_beyond_capacity_rejected(self, tape):
        tape.append_object(1, 900)
        with pytest.raises(ValueError):
            tape.append_object(2, 200)

    def test_extent_lookup(self, tape):
        tape.append_object(42, 100)
        assert tape.extent_of(42).size_mb == 100
        assert tape.holds(42)
        assert not tape.holds(99)

    def test_extent_lookup_missing_raises(self, tape):
        with pytest.raises(KeyError):
            tape.extent_of(1)

    def test_write_layout_sorts_by_start(self, tape):
        tape.write_layout(
            [ObjectExtent(2, 100, 50), ObjectExtent(1, 0, 100)]
        )
        assert tape.object_ids == (1, 2)

    def test_write_layout_rejects_overlap(self, tape):
        with pytest.raises(ValueError):
            tape.write_layout([ObjectExtent(1, 0, 100), ObjectExtent(2, 50, 100)])

    def test_write_layout_rejects_duplicate_object(self, tape):
        with pytest.raises(ValueError):
            tape.write_layout([ObjectExtent(1, 0, 10), ObjectExtent(1, 10, 10)])

    def test_write_layout_rejects_capacity_overflow(self, tape):
        with pytest.raises(ValueError):
            tape.write_layout([ObjectExtent(1, 900, 200)])

    def test_write_layout_replaces_previous(self, tape):
        tape.append_object(1, 100)
        tape.write_layout([ObjectExtent(2, 0, 10)])
        assert tape.object_ids == (2,)
        assert not tape.holds(1)

    def test_layout_may_have_gaps(self, tape):
        tape.write_layout([ObjectExtent(1, 0, 10), ObjectExtent(2, 500, 10)])
        assert tape.used_mb == 510

    def test_iteration_in_position_order(self, tape):
        tape.write_layout([ObjectExtent(2, 100, 10), ObjectExtent(1, 0, 10)])
        assert [e.object_id for e in tape] == [1, 2]
