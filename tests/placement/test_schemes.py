"""Integration-style tests of the three placement schemes end to end."""

import dataclasses

import numpy as np
import pytest

from repro.hardware import LibrarySpec, ObjectExtent, SystemSpec, TapeId, TapeSpec, TapeSystem
from repro.placement import (
    ClusterProbabilityPlacement,
    ObjectProbabilityPlacement,
    ParallelBatchPlacement,
    PlacementError,
    PlacementResult,
    StripedPlacement,
    available_schemes,
    make_scheme,
)
from repro.catalog import ObjectCatalog, Request, RequestSet
from repro.redundancy import wrap_scheme
from repro.workload import Workload, generate_workload


@pytest.fixture(scope="module")
def spec():
    # Scaled-down system: 2 libraries x 4 drives x 10 tapes of 10 GB.
    return SystemSpec(
        num_libraries=2,
        library=LibrarySpec(
            num_drives=4,
            num_tapes=10,
            tape=TapeSpec(capacity_mb=10_000, max_rewind_s=10),
        ),
    )


@pytest.fixture(scope="module")
def workload(spec):
    # ~600 objects x ~150 MB mean = ~90 GB in a 200 GB system: forces several
    # tape batches while leaving capacity slack.
    return generate_workload(
        num_objects=600,
        num_requests=40,
        request_size_bounds=(8, 20),
        object_size_bounds_mb=(5.0, 500.0),
        mean_object_size_mb=150.0,
        zipf_alpha=0.3,
        seed=42,
    )


ALL_SCHEMES = [
    ParallelBatchPlacement(m=2),
    ObjectProbabilityPlacement(),
    ClusterProbabilityPlacement(),
]


@pytest.mark.parametrize("scheme", ALL_SCHEMES, ids=lambda s: s.name)
class TestAllSchemes:
    def test_validates(self, scheme, workload, spec):
        result = scheme.place(workload, spec)
        result.validate(workload.catalog, spec)  # raises on any violation

    def test_every_object_placed_once(self, scheme, workload, spec):
        result = scheme.place(workload, spec)
        assert result.objects_placed() == workload.num_objects

    def test_applies_to_system(self, scheme, workload, spec):
        result = scheme.place(workload, spec)
        system = TapeSystem(spec)
        index = result.apply_to(system)
        assert len(index) == workload.num_objects
        mounted = system.mounted_tape_ids()
        assert set(mounted) == set(result.initial_mounts.values())

    def test_initial_mounts_one_per_drive(self, scheme, workload, spec):
        result = scheme.place(workload, spec)
        assert len(set(result.initial_mounts.values())) == len(result.initial_mounts)
        for drive_id, tape_id in result.initial_mounts.items():
            assert drive_id.library == tape_id.library

    def test_tape_priorities_cover_used_tapes(self, scheme, workload, spec):
        result = scheme.place(workload, spec)
        for tid, extents in result.layouts.items():
            if extents:
                assert tid in result.tape_priority

    def test_deterministic(self, scheme, workload, spec):
        a = scheme.place(workload, spec)
        b = scheme.place(workload, spec)
        assert a.initial_mounts == b.initial_mounts
        for tid in a.layouts:
            assert [e.object_id for e in a.layouts[tid]] == [
                e.object_id for e in b.layouts[tid]
            ]


class TestParallelBatch:
    def test_pinned_drives_hold_batch0(self, workload, spec):
        result = ParallelBatchPlacement(m=2).place(workload, spec)
        d, m = spec.library.num_drives, 2
        for tape_id in result.pinned:
            assert tape_id.slot < d - m  # batch-0 slots

    def test_pinned_tapes_accumulate_most_probability(self, workload, spec):
        result = ParallelBatchPlacement(m=2).place(workload, spec)
        pinned_priority = np.mean([result.tape_priority[t] for t in result.pinned])
        others = [
            p
            for t, p in result.tape_priority.items()
            if t not in result.pinned and result.layouts[t]
        ]
        assert pinned_priority > np.mean(others)

    def test_batch_probability_skew_is_monotone(self, workload, spec):
        """Tape probability from batch b should dominate batch b+1 (Step 4
        refining goal), at least on average."""
        result = ParallelBatchPlacement(m=2).place(workload, spec)
        batches = result.metadata["batches"]
        means = []
        for batch in batches:
            probs = [result.tape_priority.get(t, 0.0) for t in batch]
            means.append(np.mean(probs))
        assert all(a >= b - 1e-9 for a, b in zip(means, means[1:]))

    def test_m_bounds_enforced(self, workload, spec):
        with pytest.raises(PlacementError):
            ParallelBatchPlacement(m=0).place(workload, spec)
        with pytest.raises(PlacementError):
            ParallelBatchPlacement(m=spec.library.num_drives).place(workload, spec)

    def test_switch_drives_get_batch1_at_startup(self, workload, spec):
        result = ParallelBatchPlacement(m=2).place(workload, spec)
        d, m = spec.library.num_drives, 2
        switch_mounts = {
            did: tid for did, tid in result.initial_mounts.items() if did.index >= d - m
        }
        if len(result.metadata["batches"]) > 1:
            batch1 = set(result.metadata["batches"][1])
            assert switch_mounts
            assert set(switch_mounts.values()) <= batch1

    def test_no_pinning_ablation(self, workload, spec):
        result = ParallelBatchPlacement(m=2, pin_first_batch=False).place(workload, spec)
        assert result.pinned == frozenset()

    def test_invalid_k_rejected(self):
        with pytest.raises(ValueError):
            ParallelBatchPlacement(k=0.0)
        with pytest.raises(ValueError):
            ParallelBatchPlacement(k=1.5)

    def test_requests_stay_within_few_batches(self, workload, spec):
        """Design goal: a request's objects concentrate in few batches."""
        result = ParallelBatchPlacement(m=2).place(workload, spec)
        tape_batch = {}
        for b, batch in enumerate(result.metadata["batches"]):
            for tid in batch:
                tape_batch[tid] = b
        system = TapeSystem(spec)
        index = result.apply_to(system)
        probs = workload.requests.probabilities
        # The most popular request should touch at most 2 batches.
        hot = workload.requests[int(np.argmax(probs))]
        batches_touched = {
            tape_batch[tid] for o in hot.object_ids for tid in index.tapes_of(o)
        }
        assert len(batches_touched) <= 2


class TestObjectProbability:
    def test_hot_objects_in_first_group(self, workload, spec):
        result = ObjectProbabilityPlacement().place(workload, spec)
        system = TapeSystem(spec)
        index = result.apply_to(system)
        probs = np.asarray(workload.catalog.probabilities)
        hottest = int(np.argmax(probs))
        (tid,) = index.tapes_of(hottest)
        assert tid.slot < spec.library.num_drives  # group 0 slots

    def test_group0_tapes_have_similar_priority(self, workload, spec):
        """Round-robin by rank should spread probability evenly in a group."""
        result = ObjectProbabilityPlacement().place(workload, spec)
        group0 = [
            p
            for t, p in result.tape_priority.items()
            if t.slot < spec.library.num_drives
        ]
        assert max(group0) <= 3.0 * min(group0)

    def test_initial_mounts_fill_all_drives(self, workload, spec):
        result = ObjectProbabilityPlacement().place(workload, spec)
        assert len(result.initial_mounts) == spec.total_drives

    def test_no_pinning(self, workload, spec):
        assert ObjectProbabilityPlacement().place(workload, spec).pinned == frozenset()


class TestClusterProbability:
    def test_cluster_members_share_a_tape(self, workload, spec):
        result = ClusterProbabilityPlacement().place(workload, spec)
        system = TapeSystem(spec)
        index = result.apply_to(system)
        from repro.placement import cluster_objects

        clustering = cluster_objects(
            workload, max_size_mb=0.9 * spec.library.tape.capacity_mb
        )
        for cluster in clustering.multi_object_clusters():
            tapes = {tid for o in cluster.objects for tid in index.tapes_of(o)}
            assert len(tapes) == 1

    def test_cluster_members_contiguous_on_tape(self, workload, spec):
        result = ClusterProbabilityPlacement().place(workload, spec)
        from repro.placement import cluster_objects

        clustering = cluster_objects(
            workload, max_size_mb=0.9 * spec.library.tape.capacity_mb
        )
        # Build object -> (tape, start) map.
        start = {}
        for tid, extents in result.layouts.items():
            for e in extents:
                start[e.object_id] = (tid, e.start_mb)
        sizes = workload.catalog.sizes_mb
        for cluster in clustering.multi_object_clusters():
            positions = sorted(start[o][1] for o in cluster.objects)
            total = sum(sizes[o] for o in cluster.objects)
            span = positions[-1] - positions[0]
            assert span < total  # members form one contiguous segment

    def test_tapes_alternate_libraries(self, workload, spec):
        result = ClusterProbabilityPlacement().place(workload, spec)
        used = sorted(
            (t for t, extents in result.layouts.items() if extents),
            key=lambda t: (t.slot, t.library),
        )
        libraries_used = {t.library for t in used}
        assert libraries_used == {0, 1}


class TestRegistry:
    def test_all_three_registered(self):
        assert set(available_schemes()) >= {
            "parallel_batch",
            "object_probability",
            "cluster_probability",
        }

    def test_make_scheme_with_kwargs(self):
        scheme = make_scheme("parallel_batch", m=3)
        assert scheme.m == 3

    def test_unknown_scheme_raises(self):
        with pytest.raises(KeyError):
            make_scheme("nope")


def _written(system, index):
    """Every tape's layout and object map, and the index's entries in order."""
    tapes = [(t.id, t.extents, dict(t._by_object)) for t in system.all_tapes()]
    return tapes, list(index._locations.items()), index.has_redundancy


class TestApplyTo:
    """``apply_to`` writes every layout through ``Tape.write_layout`` and
    indexes the written tapes under the system's own tape ids."""

    @pytest.mark.parametrize(
        "scheme",
        [
            *ALL_SCHEMES,
            StripedPlacement(stripe_width=3, min_stripe_mb=100.0),
            wrap_scheme(ParallelBatchPlacement(m=2), "r=2"),
            wrap_scheme(ObjectProbabilityPlacement(), "k=2,n=3"),
        ],
        ids=["parallel_batch", "object_probability", "cluster_probability",
             "striped", "replicated", "erasure"],
    )
    def test_tapes_and_index_follow_the_layouts(self, scheme, workload, spec):
        result = scheme.place(workload, spec)
        result.validate(workload.catalog, spec)
        system = TapeSystem(spec)
        index = result.apply_to(system)
        for tape_id, extents in result.layouts.items():
            tape = system.tape(tape_id)
            assert tape.extents == tuple(sorted(extents, key=lambda e: e.start_mb))
            assert tape._by_object == {e.object_id: e for e in extents}
        written = [(tape.id, extent) for tape in system.all_tapes() for extent in tape]
        indexed = [entry for entries in index._locations.values() for entry in entries]
        assert len(indexed) == len(written)
        assert set(indexed) == set(written)
        # The scheduler's dict lookups short-circuit on the canonical ids.
        assert all(tape_id is system.tape(tape_id).id for tape_id, _ in indexed)
        for request in workload.requests:
            assert all(
                tape_id is system.tape(tape_id).id
                for tape_id in index.group_by_tape(request.object_ids)
            )

    def test_layout_changed_after_validate_raises(self, workload, spec):
        result = ParallelBatchPlacement(m=2).place(workload, spec)
        result.validate(workload.catalog, spec)
        tape_id, extents = next((t, e) for t, e in result.layouts.items() if e)
        first = extents[0]
        extents.append(ObjectExtent(first.object_id + 1, first.start_mb, first.size_mb))
        with pytest.raises(ValueError, match="overlapping extents"):
            result.apply_to(TapeSystem(spec))

    def test_object_twice_on_a_tape_raises(self, spec):
        workload = Workload(ObjectCatalog([30.0, 10.0]), RequestSet([Request(0, (0, 1), 1.0)]))
        tape = TapeId(0, 0)
        layouts = {
            tape: [
                ObjectExtent(0, 0.0, 15.0, part=0, parts=2),
                ObjectExtent(0, 15.0, 15.0, part=1, parts=2),
                ObjectExtent(1, 30.0, 10.0),
            ]
        }
        result = PlacementResult("twice", layouts, {})
        # Exactly-once accounting holds (two parts of one object) ...
        result.validate(workload.catalog, spec)
        with pytest.raises(ValueError, match="object 0 placed twice on L0.T0"):
            result.apply_to(TapeSystem(spec))

    def test_later_writes_leave_the_placement_alone(self, workload, spec):
        result = ParallelBatchPlacement(m=2).place(workload, spec)
        result.validate(workload.catalog, spec)
        system = TapeSystem(spec)
        before = _written(system, result.apply_to(system))
        tape = next(t for t in system.all_tapes() if len(t))
        tape.append_object(10**6, 1.0)
        assert _written(system, result.apply_to(system)) == before

    def test_validated_for_another_spec_raises(self, workload, spec):
        result = ParallelBatchPlacement(m=2).place(workload, spec)
        result.validate(workload.catalog, spec)
        small = dataclasses.replace(
            spec, library=dataclasses.replace(
                spec.library, tape=dataclasses.replace(spec.library.tape, capacity_mb=100.0)
            )
        )
        with pytest.raises(ValueError, match="beyond tape capacity"):
            result.apply_to(TapeSystem(small))
