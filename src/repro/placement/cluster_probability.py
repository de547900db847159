"""Cluster probability placement — baseline from Li & Prabhakar [20].

Assumes media switches and head positioning dominate access cost, so the
single goal is *minimizing tape switches*: objects with a strong access
relationship are co-located on one tape.  Our rendering:

* clusters come from the same co-access clustering substrate (Sec. 5.1),
  capped at one tape's usable capacity so a cluster never spans media;
* clusters are packed first-fit in decreasing accumulated probability onto
  tapes taken round-robin across libraries (the paper observes this
  scheme's 1→3-library gain comes from reduced robot contention, so tapes
  must alternate libraries);
* within a tape, clusters are organ-pipe arranged by cluster probability
  and each cluster's members stay contiguous (organ-pipe by member
  probability inside the segment) — related objects are read with minimal
  head movement, preserving the scheme's design intent.

The cost: a request whose objects form one cluster is served by one drive —
no transfer parallelism — which is why its data transfer time dominates
(62 % in the paper's extreme case) and why it does not scale with library
count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from ..hardware import SystemSpec, TapeId
from ..workload import Workload
from .base import PlacementError, PlacementResult, PlacementScheme
from .clustering import cluster_objects
from .organ_pipe import clustered_organ_pipe_extents

__all__ = ["ClusterProbabilityPlacement"]


@dataclass
class ClusterProbabilityPlacement(PlacementScheme):
    """Baseline: related objects on one tape, switch-count minimizing."""

    #: Tape capacity utilization coefficient (fill limit per tape).
    k: float = 0.9
    #: Clustering similarity threshold.
    cluster_threshold: float = 0.0
    #: Clustering algorithm: "requests" (fast) or "pairs" (exact linkage).
    cluster_method: str = "requests"

    name = "cluster_probability"

    def __post_init__(self) -> None:
        if not 0 < self.k <= 1:
            raise ValueError(f"k must be in (0, 1], got {self.k}")

    def place(self, workload: Workload, spec: SystemSpec) -> PlacementResult:
        catalog = workload.catalog
        fill_limit = self.k * spec.library.tape.capacity_mb

        clustering = cluster_objects(
            workload,
            threshold=self.cluster_threshold,
            max_size_mb=fill_limit,
            method=self.cluster_method,
        )
        # Hottest clusters first; they land on the earliest tapes, which are
        # the ones kept mounted.  Clusters are disjoint, so their member
        # tuples compare by first (smallest) member.
        first_member = clustering.members[clustering.bounds[:-1]]
        visit = np.lexsort((first_member, -clustering.probabilities)).tolist()
        sizes = clustering.sizes_mb.tolist()

        # Tape order: round-robin across libraries.
        tape_order = [
            TapeId(lib, slot)
            for slot in range(spec.library.num_tapes)
            for lib in range(spec.num_libraries)
        ]
        used = np.zeros(len(tape_order))
        tape_clusters: List[List[int]] = [[] for _ in tape_order]

        # First fit over the tapes opened so far plus one new tape.
        open_limit = 0
        limit = fill_limit + 1e-9
        for c in visit:
            size = sizes[c]
            fits = used[: open_limit + 1] + size <= limit
            idx = int(fits.argmax())
            if not fits[idx]:
                raise PlacementError(
                    f"cluster of {size:.0f} MB fits on no tape "
                    f"(system capacity exhausted)"
                )
            tape_clusters[idx].append(c)
            used[idx] += size
            open_limit = max(open_limit, idx + 1)

        members, bounds = clustering.members.tolist(), clustering.bounds.tolist()
        probs = clustering.probabilities.tolist()
        layouts = {
            tid: clustered_organ_pipe_extents(
                [members[bounds[c] : bounds[c + 1]] for c in clusters],
                catalog,
                [probs[c] for c in clusters],
            )
            for tid, clusters in zip(tape_order, tape_clusters)
            if clusters
        }
        tape_priority = {
            tid: self.total_priority(extents, catalog) for tid, extents in layouts.items()
        }
        initial_mounts = self.default_initial_mounts(layouts, tape_priority, spec)

        return PlacementResult(
            scheme=self.name,
            layouts=layouts,
            initial_mounts=initial_mounts,
            pinned=frozenset(),
            tape_priority=tape_priority,
            metadata={
                "k": self.k,
                "num_clusters": len(clustering),
                "num_multi_clusters": len(clustering.multi_object_clusters()),
            },
        )
