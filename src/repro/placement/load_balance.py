"""Greedy tape load balancing within a batch (Sec. 5.4, Figure 3).

Object load is ``P(O) × size(O)``; tape workload is the sum of its object
loads.  For each cluster, the paper's pseudocode sorts the cluster's objects
into increasing load order, sorts tapes into decreasing workload order, and
walks a zig-zag (boustrophedon with repeated endpoints) over the first
``ndrv`` tapes, so light objects land on heavily loaded tapes and heavy
objects on lightly loaded ones.

Interpretation notes (documented in DESIGN.md §5):

* "assign ndrv a proper value based on info of C and tapes": we use
  ``ndrv = clamp(ceil(cluster_size / split_unit), 1, available tapes)`` —
  a cluster is split over just enough tapes that each share is worth a
  drive's time (Step 5's "big enough" test).  ``split_unit`` defaults to
  the bytes a drive streams during one average tape switch, below which
  splitting cannot reduce wall-clock response time.
* The zig-zag window is the ``ndrv`` *least-loaded* tapes of the batch
  (that is what makes the procedure balance load globally); within the
  window the Figure-3 ordering (decreasing workload) and walk are applied
  literally.
* If the zig-zag target tape cannot fit the object, the least-loaded tape
  in the window with room takes it; if none fits, :class:`PlacementError`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from ..catalog import ObjectCatalog
from ..hardware import TapeId
from .base import PlacementError

__all__ = ["TapeBin", "choose_ndrv", "zigzag_assign", "round_robin_assign"]


@dataclass
class TapeBin:
    """A tape being filled by a placement algorithm."""

    tape_id: TapeId
    capacity_mb: float
    used_mb: float = 0.0
    workload: float = 0.0
    object_ids: List[int] = field(default_factory=list)

    @property
    def free_mb(self) -> float:
        return self.capacity_mb - self.used_mb

    def fits(self, size_mb: float) -> bool:
        return size_mb <= self.free_mb + 1e-9

    def add(self, object_id: int, size_mb: float, load: float) -> None:
        if not self.fits(size_mb):
            raise PlacementError(
                f"object {object_id} ({size_mb:.1f} MB) does not fit on {self.tape_id} "
                f"({self.free_mb:.1f} MB free)"
            )
        self.object_ids.append(object_id)
        self.used_mb += size_mb
        self.workload += load


def choose_ndrv(
    cluster_size_mb: float,
    num_objects: int,
    available_tapes: int,
    split_unit_mb: float,
) -> int:
    """How many tapes a cluster should spread over (Fig. 3's ``ndrv``)."""
    if available_tapes <= 0:
        raise ValueError("no tapes available")
    if split_unit_mb <= 0:
        raise ValueError(f"split_unit_mb must be positive, got {split_unit_mb}")
    wanted = max(1, math.ceil(cluster_size_mb / split_unit_mb))
    return max(1, min(wanted, num_objects, available_tapes))


def zigzag_assign(
    object_ids: Sequence[int],
    catalog: ObjectCatalog,
    bins: List[TapeBin],
    ndrv: Optional[int] = None,
) -> List[int]:
    """Assign one cluster's objects to ``bins`` per the Figure-3 walk.

    Mutates the bins in place; ``ndrv`` defaults to all bins.  Returns the
    object ids that fit on *no* tape of the batch (the caller overflows them
    to the next batch) — empty in the common case.
    """
    if not object_ids:
        return []
    if not bins:
        raise PlacementError("zigzag_assign needs at least one tape bin")
    if ndrv is None:
        ndrv = len(bins)
    ndrv = max(1, min(ndrv, len(bins)))

    # Window: the ndrv least-loaded tapes; within it, Figure-3's decreasing
    # workload order.
    window = sorted(bins, key=lambda b: b.workload)[:ndrv]
    window.sort(key=lambda b: -b.workload)

    # "sort objects in C into increasing order based on load", ties by id.
    sizes, probs = catalog.size_values, catalog.probability_values
    loads = {o: probs[o] * sizes[o] for o in object_ids}
    ordered = sorted(sorted(object_ids), key=loads.__getitem__)

    rejected: List[int] = []
    i, flag = 0, 0
    for object_id in ordered:
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
        size = sizes[object_id]
        if not target.fits(size):
            # Deviate minimally: roomiest tape in the window, widening to
            # the whole batch only if the window is full (Step 3 guarantees
            # aggregate batch capacity, not per-tape capacity).  If the
            # roomiest tape of a pool cannot fit the object, none can.
            for pool in (window, bins):
                target = max(pool, key=lambda b: b.free_mb)
                if target.fits(size):
                    break
            else:
                rejected.append(object_id)
                continue
        target.add(object_id, size, loads[object_id])
    return rejected


def round_robin_assign(
    object_ids: Sequence[int],
    catalog: ObjectCatalog,
    bins: List[TapeBin],
) -> List[int]:
    """Naive alternative to the zig-zag (ablation A1): plain round-robin in
    the given object order, skipping full tapes.  Returns unplaceable ids."""
    if not object_ids:
        return []
    if not bins:
        raise PlacementError("round_robin_assign needs at least one tape bin")
    sizes, probs = catalog.size_values, catalog.probability_values
    rejected: List[int] = []
    position = 0
    for object_id in object_ids:
        size = sizes[object_id]
        load = probs[object_id] * size
        for attempt in range(len(bins)):
            target = bins[(position + attempt) % len(bins)]
            if target.fits(size):
                target.add(object_id, size, load)
                position = (position + attempt + 1) % len(bins)
                break
        else:
            rejected.append(object_id)
    return rejected
