"""Array placement kernels against the per-object loops they replaced.

Each ``ref_*`` function below is the loop implementation the placement
path used before it worked on whole arrays, kept here as the reference.
Every comparison is exact: the array versions do the same floating-point
operations in the same order, so placements stay bit-identical.  The last
classes check that ``PlacementResult.validate`` (and the redundant
variant) still raise for every invariant they enforce.
"""

import copy
import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.catalog import ObjectCatalog, Request, RequestSet
from repro.hardware import (
    DriveId,
    LibrarySpec,
    ObjectExtent,
    SystemSpec,
    TapeId,
    TapeSpec,
)
from repro.placement import (
    ClusterProbabilityPlacement,
    PlacementError,
    PlacementResult,
    TapeBin,
    cluster_objects,
    clustered_organ_pipe_extents,
    density_order,
    organ_pipe_order,
    partition_sublists,
    refine_sublists,
    similarity_edges,
    zigzag_assign,
)
from repro.redundancy import RedundantPlacementResult
from repro.sim import SimulationSession
from repro.workload import Workload

# ---------------------------------------------------------------------------
# Loop references
# ---------------------------------------------------------------------------


def ref_organ_pipe_order(probabilities):
    probs = np.asarray(probabilities, dtype=np.float64)
    by_heat = sorted(range(len(probs)), key=lambda i: (-probs[i], i))
    left, right = [], []
    for rank, idx in enumerate(by_heat):
        (right if rank % 2 == 0 else left).append(idx)
    return left[::-1] + right


def ref_clustered_organ_pipe_extents(groups, catalog):
    group_probs = [sum(catalog.probability_of(o) for o in group) for group in groups]
    extents, position = [], 0.0
    for gi in ref_organ_pipe_order(group_probs):
        members = list(groups[gi])
        member_probs = [catalog.probability_of(o) for o in members]
        for mi in ref_organ_pipe_order(member_probs):
            size = catalog.size_of(members[mi])
            extents.append(ObjectExtent(members[mi], position, size))
            position += size
    return extents


def ref_zigzag_assign(object_ids, catalog, bins, ndrv=None):
    if ndrv is None:
        ndrv = len(bins)
    ndrv = max(1, min(ndrv, len(bins)))
    window = sorted(bins, key=lambda b: b.workload)[:ndrv]
    window.sort(key=lambda b: -b.workload)
    loads = {o: catalog.probability_of(o) * catalog.size_of(o) for o in object_ids}
    rejected = []
    i, flag = 0, 0
    for object_id in sorted(object_ids, key=lambda o: (loads[o], o)):
        if flag == 0:
            i += 1
        else:
            i -= 1
        if i == ndrv:
            flag = 1
            i -= 1
        if i == -1:
            flag = 0
            i += 1
        target = window[i]
        size = catalog.size_of(object_id)
        if not target.fits(size):
            candidates = [b for b in window if b.fits(size)]
            if not candidates:
                candidates = [b for b in bins if b.fits(size)]
            if not candidates:
                rejected.append(object_id)
                continue
            target = max(candidates, key=lambda b: b.free_mb)
        target.add(object_id, size, loads[object_id])
    return rejected


class RefUnionFind:
    def __init__(self, sizes_mb):
        n = len(sizes_mb)
        self.parent = np.arange(n, dtype=np.int64)
        self.count = np.ones(n, dtype=np.int64)
        self.size_mb = np.asarray(sizes_mb, dtype=np.float64).copy()

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def try_union(self, a, b, max_count, max_size_mb):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if max_count is not None and self.count[ra] + self.count[rb] > max_count:
            return False
        if max_size_mb is not None and self.size_mb[ra] + self.size_mb[rb] > max_size_mb:
            return False
        if self.count[ra] < self.count[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.count[ra] += self.count[rb]
        self.size_mb[ra] += self.size_mb[rb]
        return True


def ref_cluster_objects(workload, threshold, max_objects, max_size_mb, method, detach_shared):
    """Labels and ``(objects, probability, size_mb)`` per cluster."""
    catalog = workload.catalog
    n = len(catalog)
    shared = None
    if detach_shared and method == "requests":
        counts = np.zeros(n, dtype=np.int64)
        for request in workload.requests:
            counts[list(request.object_ids)] += 1
        shared = counts >= 2
    uf = RefUnionFind(catalog.sizes_mb)
    if method == "pairs":
        pairs, weights = similarity_edges(workload.requests, n)
        if len(pairs):
            keep = weights >= threshold if threshold > 0 else slice(None)
            pairs, weights = pairs[keep], weights[keep]
            for e in np.argsort(-weights, kind="stable"):
                uf.try_union(int(pairs[e, 0]), int(pairs[e, 1]), max_objects, max_size_mb)
    else:
        requests = workload.requests
        probs = requests.probabilities
        for ri in np.argsort(-probs, kind="stable"):
            request, p = requests[int(ri)], probs[ri]
            if p < threshold or len(request) < 2:
                continue
            members = request.object_ids
            if shared is not None:
                members = tuple(o for o in members if not shared[o])
                if len(members) < 2:
                    continue
            anchor = members[0]
            for other in members[1:]:
                if not uf.try_union(anchor, other, max_objects, max_size_mb):
                    anchor = other
    roots = np.array([uf.find(i) for i in range(n)], dtype=np.int64)
    _, labels = np.unique(roots, return_inverse=True)
    members = [[] for _ in range(labels.max() + 1)]
    for obj, label in enumerate(labels):
        members[label].append(obj)
    probs, sizes = np.asarray(catalog.probabilities), np.asarray(catalog.sizes_mb)
    clusters = [
        (tuple(objs), float(probs[objs].sum()), float(sizes[objs].sum())) for objs in members
    ]
    return labels, clusters


def ref_refine_sublists(sublists, clustering, catalog, first_capacity_mb, rest_capacity_mb):
    order = [o for sublist in sublists for o in sublist]
    sizes = np.asarray(catalog.sizes_mb)
    position = {o: i for i, o in enumerate(order)}
    members_by_cluster = {}
    for o in order:
        members_by_cluster.setdefault(clustering.cluster_of(o), []).append(o)
    cluster_order = sorted(
        members_by_cluster,
        key=lambda c: (-clustering.clusters[c].density, position[members_by_cluster[c][0]]),
    )
    refined, remaining = [[]], [first_capacity_mb]
    for c in cluster_order:
        members = members_by_cluster[c]
        size = float(sizes[members].sum())
        for s in range(len(refined)):
            if size <= remaining[s] + 1e-9:
                refined[s].extend(members)
                remaining[s] -= size
                break
        else:
            if size > rest_capacity_mb + 1e-9:
                raise PlacementError("cluster exceeds the switch-batch capacity")
            refined.append(list(members))
            remaining.append(rest_capacity_mb - size)
    return refined


def ref_cluster_probability_layouts(workload, spec, k=0.9):
    """The baseline's first fit and per-tape layout, cluster by cluster."""
    catalog = workload.catalog
    fill_limit = k * spec.library.tape.capacity_mb
    clustering = cluster_objects(workload, max_size_mb=fill_limit)
    clusters = sorted(clustering.clusters, key=lambda c: (-c.probability, c.objects))
    tape_order = [
        TapeId(lib, slot)
        for slot in range(spec.library.num_tapes)
        for lib in range(spec.num_libraries)
    ]
    used = {tid: 0.0 for tid in tape_order}
    tape_clusters = {tid: [] for tid in tape_order}
    open_limit = 0
    for cluster in clusters:
        for idx in range(min(open_limit + 1, len(tape_order))):
            tid = tape_order[idx]
            if used[tid] + cluster.size_mb <= fill_limit + 1e-9:
                tape_clusters[tid].append(cluster)
                used[tid] += cluster.size_mb
                open_limit = max(open_limit, idx + 1)
                break
        else:
            raise PlacementError("cluster fits on no tape")
    layouts = {}
    for tid, members in tape_clusters.items():
        if not members:
            continue
        extents, position = [], 0.0
        for ci in ref_organ_pipe_order([c.probability for c in members]):
            objects = list(members[ci].objects)
            for mi in ref_organ_pipe_order([catalog.probability_of(o) for o in objects]):
                size = catalog.size_of(objects[mi])
                extents.append(ObjectExtent(objects[mi], position, size))
                position += size
        layouts[tid] = extents
    return layouts


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

#: Probabilities with many exact ties, zeros and negative zero.
tie_floats = st.one_of(
    st.sampled_from([0.0, -0.0, 0.125, 0.25, 0.5, 1.0]),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)


@st.composite
def workloads(draw, max_objects=30):
    n = draw(st.integers(min_value=2, max_value=max_objects))
    sizes = draw(
        st.lists(
            st.sampled_from([5.0, 10.0, 12.5, 40.0, 75.0]) | st.floats(1.0, 90.0),
            min_size=n,
            max_size=n,
        )
    )
    specs = draw(
        st.lists(
            st.tuples(
                st.lists(st.integers(0, n - 1), min_size=1, max_size=6, unique=True),
                st.sampled_from([0.5, 1.0, 2.0]) | st.floats(0.01, 5.0),
            ),
            min_size=1,
            max_size=8,
        )
    )
    requests = RequestSet([Request(i, tuple(ids), p) for i, (ids, p) in enumerate(specs)])
    return Workload(ObjectCatalog(sizes), requests)


# ---------------------------------------------------------------------------
# Kernels against their references
# ---------------------------------------------------------------------------


class TestOrganPipeOrder:
    @given(st.lists(tie_floats, max_size=40))
    @example([])
    @example([0.3])
    @example([0.3, 0.3])
    @example([0.0, -0.0])
    @example([-0.0, 0.0, -0.0])
    @settings(max_examples=150, deadline=None)
    def test_matches_loop(self, probs):
        assert organ_pipe_order(probs) == ref_organ_pipe_order(probs)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_clustered_extents_match_loop(self, data):
        n = data.draw(st.integers(1, 30))
        probs = data.draw(st.lists(tie_floats, min_size=n, max_size=n))
        sizes = data.draw(st.lists(st.floats(1.0, 50.0), min_size=n, max_size=n))
        catalog = ObjectCatalog(sizes, [abs(p) for p in probs])
        ids = data.draw(st.permutations(range(n)))
        cuts = sorted(data.draw(st.sets(st.integers(1, n - 1), max_size=n)) if n > 1 else [])
        groups = [list(ids[a:b]) for a, b in zip([0] + cuts, cuts + [n])]
        got = clustered_organ_pipe_extents(groups, catalog)
        assert got == ref_clustered_organ_pipe_extents(groups, catalog)


class TestZigzagAssign:
    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_loop(self, data):
        n = data.draw(st.integers(1, 14))
        sizes = data.draw(
            st.lists(st.sampled_from([10.0, 20.0]) | st.floats(1.0, 60.0), min_size=n, max_size=n)
        )
        probs = data.draw(st.lists(st.sampled_from([0.0, 0.1]) | tie_floats, min_size=n, max_size=n))
        catalog = ObjectCatalog(sizes, [abs(p) for p in probs])
        # Tight bins make the window-full fallback and rejection common.
        bins = [
            TapeBin(
                TapeId(0, j),
                capacity_mb=data.draw(st.sampled_from([30.0, 60.0, 200.0])),
                used_mb=data.draw(st.sampled_from([0.0, 15.0, 25.0])),
                workload=data.draw(st.sampled_from([0.0, 1.0, 2.5])),
            )
            for j in range(data.draw(st.integers(1, 6)))
        ]
        cluster = data.draw(st.lists(st.integers(0, n - 1), min_size=1, unique=True))
        ndrv = data.draw(st.none() | st.integers(1, 8))
        ref_bins = copy.deepcopy(bins)
        got = zigzag_assign(cluster, catalog, bins, ndrv)
        assert got == ref_zigzag_assign(cluster, catalog, ref_bins, ndrv)
        assert bins == ref_bins

    def test_singleton_fallback_and_rejection(self):
        catalog = ObjectCatalog([50.0, 50.0, 50.0], [0.3, 0.2, 0.1])
        bins = [TapeBin(TapeId(0, 0), 60.0), TapeBin(TapeId(0, 1), 90.0, workload=20.0)]
        # The first singleton fills the least-loaded tape; the second finds
        # it full and widens to the batch; the third fits nowhere.
        for object_id, expected in ((0, []), (1, []), (2, [2])):
            ref_bins = copy.deepcopy(bins)
            assert zigzag_assign([object_id], catalog, bins, 1) == expected
            assert ref_zigzag_assign([object_id], catalog, ref_bins, 1) == expected
            assert bins == ref_bins
        assert [b.object_ids for b in bins] == [[0], [1]]


class TestClusterFinalize:
    @given(
        workloads(),
        st.sampled_from(["requests", "pairs"]),
        st.none() | st.integers(2, 5),
        st.none() | st.sampled_from([30.0, 80.0, 150.0]),
        st.booleans(),
        st.sampled_from([0.0, 0.2]),
    )
    @settings(max_examples=120, deadline=None)
    def test_labels_and_sums_match_loop(
        self, workload, method, max_objects, max_size_mb, detach_shared, threshold
    ):
        got = cluster_objects(
            workload,
            threshold=threshold,
            max_objects=max_objects,
            max_size_mb=max_size_mb,
            method=method,
            detach_shared=detach_shared,
        )
        labels, clusters = ref_cluster_objects(
            workload, threshold, max_objects, max_size_mb, method, detach_shared
        )
        np.testing.assert_array_equal(got.labels, labels)
        assert [(c.objects, c.probability, c.size_mb) for c in got.clusters] == clusters
        multi = [c for c in clusters if len(c[0]) > 1]
        assert [(c.objects, c.probability, c.size_mb) for c in got.multi_object_clusters()] == multi


class TestRefineSublists:
    @given(workloads(max_objects=40), st.sampled_from([100.0, 150.0, 250.0]))
    @settings(max_examples=80, deadline=None)
    def test_matches_loop(self, workload, capacity):
        catalog = workload.catalog
        clustering = cluster_objects(workload, max_size_mb=capacity, detach_shared=True)
        sublists = partition_sublists(density_order(catalog), catalog, capacity, capacity)
        got = refine_sublists(sublists, clustering, catalog, capacity, capacity)
        assert got == ref_refine_sublists(sublists, clustering, catalog, capacity, capacity)


class TestClusterProbabilityFirstFit:
    @given(workloads(max_objects=40), st.sampled_from([100.0, 150.0, 400.0]))
    @settings(max_examples=60, deadline=None)
    def test_layouts_match_loop(self, workload, capacity):
        spec = SystemSpec(
            num_libraries=2,
            library=LibrarySpec(
                num_drives=2,
                num_tapes=4,
                tape=TapeSpec(capacity_mb=capacity, max_rewind_s=10),
            ),
        )
        try:
            expected = ref_cluster_probability_layouts(workload, spec)
        except PlacementError:
            with pytest.raises(PlacementError):
                ClusterProbabilityPlacement().place(workload, spec)
            return
        assert ClusterProbabilityPlacement().place(workload, spec).layouts == expected


# ---------------------------------------------------------------------------
# validate: every invariant still raises
# ---------------------------------------------------------------------------

SPEC = SystemSpec(
    num_libraries=2,
    library=LibrarySpec(
        num_drives=2, num_tapes=4, tape=TapeSpec(capacity_mb=100.0, max_rewind_s=10)
    ),
)
CATALOG = ObjectCatalog([10.0, 20.0, 30.0], [0.5, 0.3, 0.2])
T0, T1, T2 = TapeId(0, 0), TapeId(0, 1), TapeId(1, 0)


def result_with(overrides=()):
    """Objects 0 and 1 on ``T0``, object 2 on ``T1``, then ``overrides``."""
    layouts = {
        T0: [ObjectExtent(0, 0.0, 10.0), ObjectExtent(1, 10.0, 20.0)],
        T1: [ObjectExtent(2, 0.0, 30.0)],
    }
    layouts.update(overrides)
    return PlacementResult(
        scheme="manual", layouts=layouts, initial_mounts={DriveId(0, 0): T0}
    )


def striped(part, parts, size=15.0, start=0.0):
    return ObjectExtent(2, start, size, part=part, parts=parts)


class TestValidateInvariants:
    def test_valid_layouts_pass(self):
        result_with().validate(CATALOG, SPEC)
        result_with({T1: [striped(0, 2)], T2: [striped(1, 2)]}).validate(CATALOG, SPEC)

    @pytest.mark.parametrize(
        "layouts,match",
        [
            ({"T0": [ObjectExtent(0, 0.0, 10.0), ObjectExtent(1, 5.0, 20.0)]}, "overlapping"),
            ({"T1": [ObjectExtent(2, 80.0, 30.0)]}, "overflows its capacity"),
            ({"T1": [striped(0, 2)], "T2": [striped(0, 2)]}, "duplicate or missing fragment"),
            ({"T1": [striped(0, 2)]}, "1 of 2 fragments placed"),
            ({"T1": [striped(0, 2)], "T2": [striped(1, 3)]}, "inconsistent fragment counts"),
            ({"T1": [ObjectExtent(2, 0.0, 25.0)]}, "total size 25.0"),
            ({"T1": []}, "1 objects were not placed"),
            ({"T1": [ObjectExtent(-1, 0.0, 30.0)]}, "outside the catalog"),
            ({"T1": [ObjectExtent(3, 0.0, 30.0)]}, "outside the catalog"),
        ],
        ids=[
            "overlap", "overflow", "duplicate-part", "missing-part", "inconsistent-parts",
            "size-mismatch", "missing-object", "id-minus-one", "id-past-end",
        ],
    )
    def test_broken_invariant_raises(self, layouts, match):
        tapes = {"T0": T0, "T1": T1, "T2": T2}
        result = result_with({tapes[k]: v for k, v in layouts.items()})
        with pytest.raises(PlacementError, match=match):
            result.validate(CATALOG, SPEC)

    def test_negative_id_cannot_stand_in_for_the_last_object(self):
        """Object ``N-1`` placed as ``-1`` used to validate, and the session
        was then built without object ``N-1`` in its index."""
        workload = Workload(CATALOG, RequestSet([Request(0, (0, 1, 2), 1.0)]))
        result = result_with({T1: [ObjectExtent(-1, 0.0, 30.0)]})
        with pytest.raises(PlacementError, match="outside the catalog"):
            SimulationSession(workload, SPEC, placement=result)


def redundant_with(members, replicas=2):
    """Objects 0 and 1 replicated on (T0, T2); object 2's members given."""
    layouts = {T0: [], T1: [], T2: []}
    position = {T0: 0.0, T1: 0.0, T2: 0.0}
    entries = [(T0, 0, 0, 10.0), (T2, 0, 1, 10.0), (T0, 1, 0, 20.0), (T2, 1, 1, 20.0)]
    for tape, object_id, replica, size in entries + members:
        layouts[tape].append(
            ObjectExtent(object_id, position[tape], size, replica=replica, replicas=replicas)
        )
        position[tape] += size
    return RedundantPlacementResult(
        scheme="manual", layouts=layouts, initial_mounts={}, replicas=2, needed=1
    )


class TestRedundantValidateInvariants:
    def test_valid_layouts_pass(self):
        redundant_with([(T1, 2, 0, 30.0), (T2, 2, 1, 30.0)]).validate(CATALOG, SPEC)

    @pytest.mark.parametrize(
        "members,match",
        [
            ([(T1, 2, 0, 30.0)], "1 of 2 redundancy members placed"),
            ([(T1, 2, 0, 30.0), (T2, 2, 0, 30.0)], "duplicate or missing replica"),
            ([(T1, 2, 0, 30.0), (T1, 2, 1, 30.0)], "share a tape"),
            ([(T0, 2, 0, 30.0), (T1, 2, 1, 30.0)], "span 1 libraries"),
            ([(T1, 2, 0, 30.0), (T2, 2, 1, 25.0)], "member size 25.0"),
            ([], "1 objects were not placed"),
            ([(T1, -1, 0, 30.0), (T2, -1, 1, 30.0)], "outside the catalog"),
        ],
        ids=["missing-member", "duplicate-replica", "shared-tape", "one-library",
             "size-mismatch", "missing-object", "id-minus-one"],
    )
    def test_broken_invariant_raises(self, members, match):
        with pytest.raises(PlacementError, match=match):
            redundant_with(members).validate(CATALOG, SPEC)

    def test_declared_redundancy_must_match_result(self):
        result = redundant_with([(T1, 2, 0, 30.0), (T2, 2, 1, 30.0)])
        with pytest.raises(PlacementError, match="redundancy, result says 1/3"):
            dataclasses.replace(result, replicas=3).validate(CATALOG, SPEC)

    def test_inconsistent_declarations(self):
        result = redundant_with([(T1, 2, 0, 30.0), (T2, 2, 1, 30.0)])
        layouts = dict(result.layouts)
        layouts[T2] = [dataclasses.replace(e, needed=2) if e.object_id == 2 else e
                       for e in layouts[T2]]
        with pytest.raises(PlacementError, match="inconsistent redundancy declarations"):
            dataclasses.replace(result, layouts=layouts).validate(CATALOG, SPEC)
