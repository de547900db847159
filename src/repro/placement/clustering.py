"""Object clustering from co-access similarity (Sec. 5.1).

The similarity of two objects is the summed probability of all requests that
contain both.  Following the paper, request information drives the
computation: only object pairs that actually co-occur in some request get an
edge, which keeps the similarity graph sparse (≈ Σ |R|²/2 entries instead of
N²) and is computed vectorized.

Cluster formation is single-linkage hierarchical agglomeration (Johnson
[17]): edges are processed in decreasing similarity and merged with
union-find; "traversing the tree with a preset probability value" is
equivalent to discarding edges below the threshold.  Merges can additionally
be capped by cluster object count and total size — the Sec.-5.1 rule that
cluster size be controlled for maximum parallelism and the batch-capacity
constraint of Step 4.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..catalog import ObjectCatalog, RequestSet
from ..workload import Workload

__all__ = ["Cluster", "Clustering", "similarity_edges", "cluster_objects"]


def similarity_edges(
    requests: RequestSet, num_objects: int
) -> Tuple[np.ndarray, np.ndarray]:
    """All co-access pairs and their similarities.

    Returns ``(pairs, weights)`` where ``pairs`` is an ``(E, 2)`` int array
    with ``pairs[:, 0] < pairs[:, 1]`` and ``weights[e]`` is the summed
    probability of requests containing both objects of pair ``e``.
    """
    keys: List[np.ndarray] = []
    pair_counts: List[int] = []
    pair_probs: List[float] = []
    probs = requests.probabilities
    for request, p in zip(requests, probs):
        ids = np.sort(np.asarray(request.object_ids, dtype=np.int64))
        c = len(ids)
        if c < 2:
            continue
        a, b = np.triu_indices(c, k=1)
        keys.append(ids[a] * num_objects + ids[b])
        pair_counts.append(len(a))
        pair_probs.append(p)
    if not keys:
        return np.empty((0, 2), dtype=np.int64), np.empty(0)
    all_keys = np.concatenate(keys)
    # One repeat assembles the whole weight column (each request's
    # probability, repeated once per pair) instead of allocating and
    # concatenating a per-request ``np.full`` slice.
    all_weights = np.repeat(np.asarray(pair_probs), pair_counts)
    uniq, inverse = np.unique(all_keys, return_inverse=True)
    agg = np.bincount(inverse, weights=all_weights)
    pairs = np.stack([uniq // num_objects, uniq % num_objects], axis=1)
    return pairs, agg


@dataclass(frozen=True)
class Cluster:
    """One group of strongly related objects."""

    objects: Tuple[int, ...]
    #: Accumulated object probability Σ P(O) over members.
    probability: float
    #: Total member size in MB.
    size_mb: float

    def __len__(self) -> int:
        return len(self.objects)

    @property
    def density(self) -> float:
        return self.probability / self.size_mb if self.size_mb > 0 else 0.0


def group_sums(values: np.ndarray, flat: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """``values[flat[bounds[g]:bounds[g + 1]]].sum()`` for every group ``g``.

    Bit for bit the per-group NumPy sum: one-member groups (nearly all of
    them at paper scale) take their value directly, and only the others
    pay a ``sum`` call, in NumPy's own (pairwise) order.
    """
    sums = values[flat[bounds[:-1]]]
    for g in np.flatnonzero(np.diff(bounds) > 1).tolist():
        sums[g] = values[flat[bounds[g] : bounds[g + 1]]].sum()
    return sums


def group_by_cluster(object_ids: Iterable[int], labels: Sequence[int]) -> List[List[int]]:
    """Objects grouped by cluster label, groups in first-appearance order."""
    groups: Dict[int, List[int]] = {}
    for object_id in object_ids:
        groups.setdefault(labels[object_id], []).append(object_id)
    return list(groups.values())


def group_sizes(groups: List[List[int]], catalog: ObjectCatalog) -> List[float]:
    """``catalog.total_size_mb(group)`` for every group, bit for bit."""
    flat = np.array([o for group in groups for o in group], dtype=np.int64)
    bounds = np.cumsum([0] + [len(group) for group in groups])
    return group_sums(np.asarray(catalog.sizes_mb), flat, bounds).tolist()


@dataclass(eq=False)
class Clustering:
    """The result of clustering, array-backed.

    ``labels[o]`` is object ``o``'s cluster.  Cluster ``c``'s members are
    ``members[bounds[c]:bounds[c + 1]]`` in increasing id order;
    ``probabilities[c]`` and ``sizes_mb[c]`` are its Σ P(O) and total size.
    """

    labels: np.ndarray
    members: np.ndarray
    bounds: np.ndarray
    probabilities: np.ndarray
    sizes_mb: np.ndarray

    def cluster_of(self, object_id: int) -> int:
        """Index into :attr:`clusters` for ``object_id``."""
        return int(self.labels[object_id])

    def _cluster(self, c: int) -> Cluster:
        return Cluster(
            objects=tuple(self.members[self.bounds[c] : self.bounds[c + 1]].tolist()),
            probability=float(self.probabilities[c]),
            size_mb=float(self.sizes_mb[c]),
        )

    @cached_property
    def clusters(self) -> List[Cluster]:
        return [self._cluster(c) for c in range(len(self))]

    @property
    def num_objects(self) -> int:
        return len(self.labels)

    def multi_object_clusters(self) -> List[Cluster]:
        return [self._cluster(c) for c in np.flatnonzero(np.diff(self.bounds) > 1).tolist()]

    def __len__(self) -> int:
        return len(self.bounds) - 1

    def __iter__(self):
        return iter(self.clusters)

    def __repr__(self) -> str:
        counts = np.diff(self.bounds)
        return (
            f"<Clustering {len(self)} clusters over {self.num_objects} objects "
            f"({int((counts > 1).sum())} non-trivial, largest {counts.max(initial=0)})>"
        )


class _UnionFind:
    """Union-find (plain lists) tracking member count and total size per component."""

    def __init__(self, sizes_mb: np.ndarray) -> None:
        n = len(sizes_mb)
        self.parent = list(range(n))
        self.count = [1] * n
        self.size_mb = np.asarray(sizes_mb, dtype=np.float64).tolist()

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:  # path compression
            self.parent[x], x = root, self.parent[x]
        return root

    def try_union(
        self, a: int, b: int, max_count: Optional[int], max_size_mb: Optional[float]
    ) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if max_count is not None and self.count[ra] + self.count[rb] > max_count:
            return False
        if max_size_mb is not None and self.size_mb[ra] + self.size_mb[rb] > max_size_mb:
            return False
        # Union by member count.
        if self.count[ra] < self.count[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.count[ra] += self.count[rb]
        self.size_mb[ra] += self.size_mb[rb]
        return True

    def roots(self) -> np.ndarray:
        """Every element's root, by pointer jumping over the parent array."""
        parent = np.asarray(self.parent, dtype=np.int64)
        while not np.array_equal(parent[parent], parent):
            parent = parent[parent]
        return parent


def cluster_objects(
    workload: Workload,
    threshold: float = 0.0,
    max_objects: Optional[int] = None,
    max_size_mb: Optional[float] = None,
    method: str = "requests",
    detach_shared: bool = False,
) -> Clustering:
    """Cluster a workload's objects by co-access similarity.

    Parameters
    ----------
    threshold:
        Minimum similarity for a merge ("preset probability value").
        The default 0.0 admits every co-occurrence edge.
    max_objects, max_size_mb:
        Caps on cluster member count / total size; merges that would exceed
        either are skipped (stronger-similarity merges happen first, so caps
        cut the dendrogram where it is weakest).
    method:
        ``"pairs"`` — exact single-linkage over the aggregated pair
        similarity graph (O(E) union operations; E ≈ Σ|R|²/2).
        ``"requests"`` (default) — request-linkage: requests are processed in
        decreasing probability and each request's members are merged
        directly.  For pairs that co-occur in a single request (the vast
        majority under the paper's random-membership workload) the two are
        identical; with no caps and threshold 0 they produce exactly the
        same components (union of request cliques), while request-linkage
        does O(Σ|R|) merges instead of O(Σ|R|²).
    detach_shared:
        Keep objects that appear in *two or more* requests out of all
        clusters (they stay singletons).  Such objects are the bridges of
        the co-access graph: single-linkage would chain otherwise-unrelated
        requests through them, whereas their average similarity to any one
        request cluster is low (the complete/average-linkage view of the
        hierarchical algorithm the paper cites).  Their accumulated
        probability ``Σ P(R)`` is also the highest in the workload, so as
        singletons the density sort of Step 2 naturally pulls them into the
        always-mounted batch.  Only affects ``method="requests"``.
    """
    catalog = workload.catalog
    n = len(catalog)

    shared: Optional[List[bool]] = None
    if detach_shared and method == "requests":
        ids = [o for request in workload.requests for o in request.object_ids]
        shared = (np.bincount(ids, minlength=n) >= 2).tolist()

    uf = _UnionFind(np.asarray(catalog.sizes_mb))
    if method == "pairs":
        pairs, weights = similarity_edges(workload.requests, n)
        if len(pairs):
            keep = weights >= threshold if threshold > 0 else slice(None)
            pairs, weights = pairs[keep], weights[keep]
            order = np.argsort(-weights, kind="stable")
            for e in order:
                uf.try_union(int(pairs[e, 0]), int(pairs[e, 1]), max_objects, max_size_mb)
    elif method == "requests":
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
                    # Anchor's cluster is full; keep growing from the member
                    # that failed so later members can still clique together.
                    anchor = other
    else:
        raise ValueError(f"unknown clustering method {method!r}")

    _, labels = np.unique(uf.roots(), return_inverse=True)
    members = np.argsort(labels, kind="stable")
    bounds = np.concatenate(([0], np.cumsum(np.bincount(labels))))
    return Clustering(
        labels,
        members,
        bounds,
        group_sums(np.asarray(catalog.probabilities), members, bounds),
        group_sums(np.asarray(catalog.sizes_mb), members, bounds),
    )
