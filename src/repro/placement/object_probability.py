"""Object probability placement — baseline from Christodoulakis et al. [11].

The scheme knows only independent per-object access probabilities (no
relationship information).  Following Figure 4 of the paper and the
principles of [11] (popular data on the media that stay mounted; organ-pipe
alignment within a tape):

* objects are ranked by decreasing access probability;
* tapes are consumed in *groups* of ``n×d`` (one tape per drive across all
  libraries), so the hottest group is exactly what sits on the drives;
* within a group, objects are dealt round-robin across the group's tapes,
  interleaving libraries — every tape of the group gets the same probability
  mass and a request's hot objects spread over all ``n×d`` drives (best
  transfer parallelism of the three schemes);
* each tape is organ-pipe aligned (the scheme's defining optimization).

Because rank order ignores relationships, a request's objects typically
scatter over *many* groups, so the scheme pays the most tape switches —
exactly the behaviour Figure 9 reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from ..hardware import SystemSpec, TapeId
from ..workload import Workload
from .base import PlacementError, PlacementResult, PlacementScheme
from .organ_pipe import organ_pipe_extents

__all__ = ["ObjectProbabilityPlacement"]


@dataclass
class ObjectProbabilityPlacement(PlacementScheme):
    """Baseline: rank-ordered tape groups + organ pipe, no relationships."""

    #: Tape capacity utilization coefficient (fill limit per tape).
    k: float = 0.9

    name = "object_probability"

    def __post_init__(self) -> None:
        if not 0 < self.k <= 1:
            raise ValueError(f"k must be in (0, 1], got {self.k}")

    def place(self, workload: Workload, spec: SystemSpec) -> PlacementResult:
        catalog = workload.catalog
        n, d, t = spec.num_libraries, spec.library.num_drives, spec.library.num_tapes
        fill_limit = self.k * spec.library.tape.capacity_mb

        probs = np.asarray(catalog.probabilities)
        # Rank by decreasing probability, object id breaking ties.
        rank_order = np.lexsort((np.arange(len(catalog)), -probs))

        num_groups = t // d  # leftover slots (< d per library) are unused
        if num_groups == 0:
            raise PlacementError(f"libraries with {t} tapes cannot form a group of {d}")

        # Group g, slot j within group, library lib -> tape (lib, g*d + j),
        # interleaved across libraries for cross-library parallelism.
        groups: List[List[TapeId]] = [
            [TapeId(lib, g * d + j) for j in range(d) for lib in range(n)]
            for g in range(num_groups)
        ]
        # Per tape (group-major): fill level and assigned objects.
        tapes = [tid for group in groups for tid in group]
        used = [0.0] * len(tapes)
        assigned: List[List[int]] = [[] for _ in tapes]
        width, limit = n * d, fill_limit + 1e-9

        def try_group(g: int, start: int, object_id: int, size: float) -> int:
            """Round-robin placement within one group; -1 if nothing fits."""
            for attempt in range(width):
                j = g * width + (start + attempt) % width
                if used[j] + size <= limit:
                    assigned[j].append(object_id)
                    used[j] += size
                    return (start + attempt + 1) % width
            return -1

        sizes = catalog.size_values
        group_idx = 0
        cursor = 0  # round-robin pointer within the current group
        for object_id in rank_order.tolist():
            size = sizes[object_id]
            nxt = try_group(group_idx, cursor, object_id, size)
            if nxt >= 0:
                cursor = nxt
                continue
            if group_idx + 1 < len(groups):
                group_idx += 1
                cursor = try_group(group_idx, 0, object_id, size)
                if cursor >= 0:
                    continue
            # Large object vs fragmented tail: scavenge earlier groups
            # (their stranded slack) nearest-rank-first.
            for g in range(group_idx, -1, -1):
                if try_group(g, 0, object_id, size) >= 0:
                    break
            else:
                raise PlacementError(
                    f"object {object_id} ({size:.0f} MB) fits on no tape; "
                    f"capacity exhausted after {sum(map(len, assigned))} "
                    f"of {len(catalog)} objects"
                )
            cursor = 0

        layouts = {
            tid: organ_pipe_extents(objects, catalog)
            for tid, objects in zip(tapes, assigned)
            if objects
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
            metadata={"k": self.k, "num_groups": len(groups)},
        )
