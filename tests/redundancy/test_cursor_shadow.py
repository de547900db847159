"""Shadow differential: the heap-indexed tape chooser against the linear scan.

``_TapeCursors.choose`` picks the least-used admissible tape of a library
from a per-library min-heap of ``(used_mb, slot)``.  ``reference_choose``
below is the rule as the plain scan it replaced: every tape of a library,
filtered by the object's tapes and by free space, then ``min`` over
``(used_mb, slot)``.  ``ShadowCursors`` runs both on every call and asserts
they pick the same tape, or raise the same ``PlacementError``.  It shadows
whole replicated and erasure-coded placements, then a hypothesis matrix of
small specs (2-4 libraries, 3-12 tapes, tight capacities) and member
streams (r in {2, 3}, k-of-n, repeated objects, mixed sizes).
"""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.redundancy.placement as redundancy_placement
from repro.experiments import ExperimentSettings
from repro.hardware import LibrarySpec, ObjectExtent, SystemSpec, TapeId, TapeSpec
from repro.placement import PlacementError, make_scheme
from repro.redundancy import ErasureCodedPlacement, ReplicatedPlacement, wrap_scheme
from repro.redundancy.placement import _TapeCursors
from repro.workload import generate_workload


class ReferenceState:
    """The scan's bookkeeping: fill and anti-affinity sets keyed by ``TapeId``."""

    def __init__(self, spec, layouts, replicas):
        self.capacity = spec.library.tape.capacity_mb
        self.num_libraries = spec.num_libraries
        self.span = min(replicas, spec.num_libraries)
        self.used = {}
        self.object_tapes = {}
        self.group_libraries = {}
        self.by_library = [
            [TapeId(lib, slot) for slot in range(spec.library.num_tapes)]
            for lib in range(spec.num_libraries)
        ]
        for tape_id, extents in layouts.items():
            self.used[tape_id] = max((e.end_mb for e in extents), default=0.0)
            for extent in extents:
                self.note(extent.object_id, extent.part, tape_id)

    def note(self, object_id, part, tape_id):
        self.object_tapes.setdefault(object_id, set()).add(tape_id)
        self.group_libraries.setdefault((object_id, part), set()).add(tape_id.library)

    def append(self, object_id, part, tape_id, size_mb):
        self.used[tape_id] = self.used.get(tape_id, 0.0) + size_mb
        self.note(object_id, part, tape_id)


def reference_choose(state, object_id, part, size_mb, start_library):
    """Least-used tape with room, rotating libraries from ``start_library``."""
    taken_tapes = state.object_tapes.get(object_id, set())
    group_libs = state.group_libraries.get((object_id, part), set())
    rotation = [(start_library + i) % state.num_libraries for i in range(state.num_libraries)]
    fresh = [lib for lib in rotation if lib not in group_libs]
    must_spread = len(group_libs) < state.span
    ordering = fresh if must_spread else fresh + [lib for lib in rotation if lib in group_libs]
    for library in ordering:
        candidates = [
            tid
            for tid in state.by_library[library]
            if tid not in taken_tapes
            and state.used.get(tid, 0.0) + size_mb <= state.capacity + 1e-9
        ]
        if candidates:
            return min(candidates, key=lambda tid: (state.used.get(tid, 0.0), tid.slot))
    raise PlacementError(
        f"no tape can hold a {size_mb:.0f} MB redundancy member of object "
        f"{object_id} part {part} (capacity exhausted or distinct-library "
        "anti-affinity unsatisfiable)"
    )


class ShadowCursors(_TapeCursors):
    """``_TapeCursors`` that checks every choice against ``reference_choose``."""

    def __init__(self, spec, layouts, replicas):
        super().__init__(spec, layouts, replicas)
        self.reference = ReferenceState(spec, layouts, replicas)
        self.choices = 0
        self.exhausted = 0

    def choose(self, object_id, part, size_mb, start_library):
        args = (object_id, part, size_mb, start_library)
        try:
            expected = reference_choose(self.reference, *args)
        except PlacementError as err:
            self.exhausted += 1
            with pytest.raises(PlacementError, match=f"^{re.escape(str(err))}$"):
                super().choose(*args)
            raise
        got = super().choose(*args)
        assert got == expected, (args, got, expected)
        self.choices += 1
        return got

    def append(self, tape_id, object_id, size_mb, part, *rest, **kwargs):
        self.reference.append(object_id, part, tape_id, size_mb)
        extent = super().append(tape_id, object_id, size_mb, part, *rest, **kwargs)
        assert extent.end_mb == self.reference.used[tape_id]
        return extent


@pytest.fixture
def shadowed(monkeypatch):
    """Route the placers' cursors through the shadow; yields the instances."""
    made = []

    def factory(*args, **kwargs):
        made.append(ShadowCursors(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(redundancy_placement, "_TapeCursors", factory)
    return made


@pytest.mark.parametrize("placer", [
    ReplicatedPlacement(r=2, m=2),
    ReplicatedPlacement(r=3, m=2),
    ReplicatedPlacement(base="object_probability", r=2),
    ErasureCodedPlacement(k=2, n=3, m=2),
    ErasureCodedPlacement(k=4, n=6, m=2),
], ids=["r2", "r3", "object_probability-r2", "k2n3", "k4n6"])
def test_whole_placements_choose_like_the_scan(shadowed, placer, workload, spec):
    spec = spec.with_libraries(3)
    result = placer.place(workload, spec)
    result.validate(workload.catalog, spec)
    (cursors,) = shadowed
    assert cursors.choices == _chosen_members(result)


def _chosen_members(result):
    """Members the cursors placed: all of them, bar a replicated primary."""
    members = [e for extents in result.layouts.values() for e in extents]
    if result.mode == "replicated":
        members = [e for e in members if e.replica > 0]
    return len(members)


@pytest.mark.parametrize("redundancy", ["r=2", "k=4,n=6"])
def test_small_scale_archive_chooses_like_the_scan(shadowed, redundancy):
    settings_ = ExperimentSettings(scale="small", workload_seed=7)
    workload = generate_workload(settings_.workload_params)
    spec = settings_.spec().with_libraries(2 * settings_.spec().num_libraries)
    result = wrap_scheme(make_scheme("parallel_batch", m=4), redundancy).place(workload, spec)
    assert shadowed[0].choices == _chosen_members(result) >= len(workload.catalog)


def test_exhaustion_raises_the_same_error():
    cursors = ShadowCursors(_spec(2, 3, 100.0), {}, replicas=2)
    tape = cursors.choose(0, 0, 60.0, 0)
    cursors.append(tape, 0, 60.0, 0, 1, 0, 2, 1)
    for object_id in (1, 2, 3):
        tape = cursors.choose(object_id, 0, 90.0, 1)
        cursors.append(tape, object_id, 90.0, 0, 1, 0, 2, 1)
    # Library 1 is full; library 0 has room but object 0 must spread.
    with pytest.raises(PlacementError, match="no tape can hold a 30 MB"):
        cursors.choose(0, 0, 30.0, 1)
    for object_id in (4, 5):
        tape = cursors.choose(object_id, 0, 90.0, 0)
        cursors.append(tape, object_id, 90.0, 0, 1, 0, 2, 1)
    # Every tape has at most 40 MB left.
    with pytest.raises(PlacementError, match="no tape can hold a 50 MB"):
        cursors.choose(4, 0, 50.0, 0)
    assert cursors.exhausted == 2


def _spec(num_libraries, num_tapes, capacity_mb):
    return SystemSpec(
        num_libraries=num_libraries,
        library=LibrarySpec(
            num_drives=1,
            num_tapes=num_tapes,
            tape=TapeSpec(capacity_mb=capacity_mb, max_rewind_s=10),
        ),
    )


#: Member sizes as fractions of tape capacity: exact fits, equal sizes that
#: tie tape fills, and a few odd ones.
FRACTIONS = (0.05, 0.1, 0.125, 0.2, 1 / 3, 0.25, 0.4, 0.5, 0.7, 1.0)

specs = st.builds(
    _spec,
    num_libraries=st.integers(2, 4),
    num_tapes=st.integers(3, 12),
    capacity_mb=st.sampled_from([100.0, 300.0, 1000.0]),
)


def _run(cursors, members):
    """Drive the cursors through ``(object, part, parts, size, start, replica,
    replicas, needed)`` members, skipping (as the scan would fail) any that
    do not fit."""
    for object_id, part, parts, size_mb, start, replica, replicas, needed in members:
        try:
            tape = cursors.choose(object_id, part, size_mb, start % cursors.num_libraries)
        except PlacementError:
            continue
        cursors.append(tape, object_id, size_mb, part, parts, replica, replicas, needed)


@settings(max_examples=150, deadline=None)
@given(
    spec=specs,
    r=st.sampled_from([2, 3]),
    primaries=st.lists(
        st.tuples(
            st.integers(0, 15),          # object id (repeats share anti-affinity)
            st.integers(0, 1),           # part
            st.sampled_from(FRACTIONS),  # size
            st.integers(0, 3),           # primary library
            st.integers(0, 11),          # primary slot
        ),
        max_size=30,
    ),
)
def test_replicated_streams_choose_like_the_scan(spec, r, primaries):
    capacity = spec.library.tape.capacity_mb
    layouts, fill = {}, {}
    for object_id, part, fraction, library, slot in primaries:
        tape = TapeId(library % spec.num_libraries, slot % spec.library.num_tapes)
        size = fraction * capacity
        if fill.get(tape, 0.0) + size > capacity or any(
            e.object_id == object_id for e in layouts.get(tape, ())
        ):
            continue
        layouts.setdefault(tape, []).append(
            ObjectExtent(object_id, fill.get(tape, 0.0), size, part, 2, 0, r, 1)
        )
        fill[tape] = layouts[tape][-1].end_mb
    cursors = ShadowCursors(spec, layouts, replicas=r)
    members = [
        (e.object_id, e.part, 2, e.size_mb, tape.library + copy, copy, r, 1)
        for copy in range(1, r)
        for tape, extents in sorted(layouts.items())
        for e in extents
    ]
    _run(cursors, members)
    assert cursors.choices + cursors.exhausted == len(members)


@settings(max_examples=150, deadline=None)
@given(
    spec=specs,
    kn=st.sampled_from([(1, 2), (2, 3), (2, 4), (3, 5)]),
    objects=st.lists(
        st.tuples(st.integers(0, 10), st.sampled_from(FRACTIONS), st.integers(0, 3)),
        max_size=15,
    ),
)
def test_erasure_streams_choose_like_the_scan(spec, kn, objects):
    k, n = kn
    cursors = ShadowCursors(spec, {}, replicas=n)
    members = [
        (object_id, 0, 1, fraction * spec.library.tape.capacity_mb / k, primary + stripe,
         stripe, n, k)
        for object_id, fraction, primary in objects
        for stripe in range(n)
    ]
    _run(cursors, members)
    assert cursors.choices + cursors.exhausted == len(members)
