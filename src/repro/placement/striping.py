"""Striped placement — the related-work baseline the paper argues against.

Sec. 2 of the paper reviews object striping on tape arrays (Golubchik,
Muntz & Watson [15]; Drapeau & Katz [13, 14]; Chiueh [10]) and declines to
use it: "striping on sequential-accessed tapes suffers from long
synchronization latencies not faced by random-accessed disks … the striping
system may perform worse than non-striping system."

This scheme implements classic tape striping so that claim can be
*measured* (``benchmarks/bench_striping.py``, experiment A5): every object
at least ``min_stripe_mb`` large is split into ``stripe_width`` equal
fragments placed on ``stripe_width`` distinct tapes of the same rank group;
smaller objects stay whole.  Apart from striping, the layout mirrors the
object-probability baseline (rank-ordered tape groups, round-robin within a
group), so the comparison isolates striping itself.

The simulator needs no special support: the location index expands a
request to all fragments, each fragment's tape must be mounted and read,
and the request completes when the *last* fragment lands — the
synchronization latency (and the extra tape switches striping causes)
emerge naturally.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from ..hardware import ObjectExtent, SystemSpec, TapeId
from ..workload import Workload
from .base import PlacementError, PlacementResult, PlacementScheme

__all__ = ["StripedPlacement"]


@dataclass
class StripedPlacement(PlacementScheme):
    """Rank-grouped placement with fixed-width object striping."""

    #: Fragments per striped object (the "striping width" of [15]).
    stripe_width: int = 4
    #: Objects smaller than this stay whole (striping tiny objects only
    #: multiplies positioning overhead).
    min_stripe_mb: float = 1000.0
    #: Tape capacity utilization coefficient.
    k: float = 0.9

    name = "striped"

    def __post_init__(self) -> None:
        if self.stripe_width < 2:
            raise ValueError(f"stripe_width must be >= 2, got {self.stripe_width}")
        if not 0 < self.k <= 1:
            raise ValueError(f"k must be in (0, 1], got {self.k}")
        if self.min_stripe_mb <= 0:
            raise ValueError(f"min_stripe_mb must be positive, got {self.min_stripe_mb}")

    def place(self, workload: Workload, spec: SystemSpec) -> PlacementResult:
        catalog = workload.catalog
        n, d, t = spec.num_libraries, spec.library.num_drives, spec.library.num_tapes
        group_size = n * d
        if self.stripe_width > group_size:
            raise PlacementError(
                f"stripe_width {self.stripe_width} exceeds the {group_size} drives "
                "available to read fragments in parallel"
            )
        fill_limit = self.k * spec.library.tape.capacity_mb

        probs = np.asarray(catalog.probabilities)
        rank_order = np.lexsort((np.arange(len(catalog)), -probs))

        num_groups = t // d
        groups: List[List[TapeId]] = [
            [TapeId(lib, g * d + j) for j in range(d) for lib in range(n)]
            for g in range(num_groups)
        ]

        assignment: Dict[TapeId, List[ObjectExtent]] = {
            tid: [] for grp in groups for tid in grp
        }
        used: Dict[TapeId, float] = {tid: 0.0 for grp in groups for tid in grp}

        def place_pieces(pieces: List[tuple]) -> bool:
            """Place [(object, part, parts, size)] on distinct tapes of one
            group; all or nothing (fragments must not share a tape)."""
            for group in groups:
                order = sorted(group, key=lambda tid: used[tid])
                if len(pieces) > len(order):
                    continue
                chosen = order[: len(pieces)]
                if all(
                    used[tid] + size <= fill_limit + 1e-9
                    for tid, (_, _, _, size) in zip(chosen, pieces)
                ):
                    for tid, (obj, part, parts, size) in zip(chosen, pieces):
                        assignment[tid].append(
                            ObjectExtent(obj, used[tid], size, part=part, parts=parts)
                        )
                        used[tid] += size
                    return True
            return False

        for object_id in rank_order:
            object_id = int(object_id)
            size = catalog.size_of(object_id)
            if size >= self.min_stripe_mb:
                w = self.stripe_width
                fragment = size / w
                pieces = [(object_id, p, w, fragment) for p in range(w)]
            else:
                pieces = [(object_id, 0, 1, size)]
            if not place_pieces(pieces):
                raise PlacementError(
                    f"object {object_id} ({size:.0f} MB, {len(pieces)} pieces) fits "
                    "in no tape group; capacity exhausted"
                )

        # Fragments are laid out in arrival (rank) order; extents already
        # carry their start positions from the append cursor.
        layouts = {tid: extents for tid, extents in assignment.items() if extents}
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
                "stripe_width": self.stripe_width,
                "min_stripe_mb": self.min_stripe_mb,
                "num_groups": len(groups),
                "striped_objects": int(
                    np.sum(np.asarray(catalog.sizes_mb) >= self.min_stripe_mb)
                ),
            },
        )
