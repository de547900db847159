"""Organ-pipe alignment of objects within one tape.

Classic result (Wong [24]; applied to tapes by Christodoulakis et al. [11]):
with independent access probabilities and a head that parks where it last
read, expected seek distance is minimized by placing the most popular object
in the middle and alternating successively less popular objects left/right —
the probability profile looks like an organ's pipes.

Every scheme in the paper uses this as Step 6 / within-tape alignment.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..catalog import ObjectCatalog
from ..hardware import ObjectExtent

__all__ = ["organ_pipe_order", "organ_pipe_extents", "sequential_extents"]


def _organ_pipe_segments(probs: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Organ-pipe every segment ``probs[bounds[g]:bounds[g + 1]]`` at once.

    Returns indices into ``probs``: each segment's items, left to right, in
    the segment's own slots.  Within a segment, items ranked hottest-first
    (ties by index) take the middle slot, then alternate left and right of
    it: rank ``r`` of ``s`` items lands at ``s//2 + r//2`` for even ``r``
    and ``s//2 - 1 - r//2`` for odd ``r``.
    """
    counts = np.diff(bounds)
    segment = np.repeat(np.arange(len(counts)), counts)
    by_heat = np.lexsort((-probs, segment))
    rank = np.arange(len(probs)) - bounds[segment]
    half = counts[segment] // 2
    slot = bounds[segment] + np.where(rank % 2 == 1, half - 1 - rank // 2, half + rank // 2)
    order = np.empty(len(probs), dtype=np.int64)
    order[slot] = by_heat
    return order


def organ_pipe_order(probabilities: Sequence[float]) -> List[int]:
    """Return indices arranged organ-pipe style (hottest in the middle).

    Items are taken hottest-first and appended to alternating sides of the
    middle, so the final left-to-right probability profile rises then falls.
    Ties break by original index for determinism.
    """
    probs = np.asarray(probabilities, dtype=np.float64)
    if probs.ndim != 1:
        raise ValueError("probabilities must be one-dimensional")
    return _organ_pipe_segments(probs, np.array([0, len(probs)])).tolist()


def _contiguous_extents(object_ids: np.ndarray, catalog: ObjectCatalog) -> List[ObjectExtent]:
    """Extents for ``object_ids`` laid end to end from position 0."""
    sizes = np.asarray(catalog.sizes_mb)[object_ids]
    # cumsum adds left to right, as a running ``position += size`` would.
    starts = np.concatenate(([0.0], np.cumsum(sizes)[:-1]))
    columns = zip(object_ids.tolist(), starts.tolist(), sizes.tolist())
    return [ObjectExtent(object_id, start, size) for object_id, start, size in columns]


def organ_pipe_extents(object_ids: Sequence[int], catalog: ObjectCatalog) -> List[ObjectExtent]:
    """Organ-pipe-align ``object_ids`` into contiguous extents from position 0."""
    ids = np.asarray(object_ids, dtype=np.int64)
    return _contiguous_extents(ids[organ_pipe_order(catalog.probabilities[ids])], catalog)


def clustered_organ_pipe_extents(
    groups: Sequence[Sequence[int]],
    catalog: ObjectCatalog,
    group_probabilities: Optional[Sequence[float]] = None,
) -> List[ObjectExtent]:
    """Organ-pipe whole groups; keep each group's members contiguous.

    Groups (clusters) are arranged organ-pipe by aggregate probability —
    hottest cluster in the middle of the tape — and within a group's
    segment members are organ-piped by their own probabilities.  For
    singleton groups this degenerates to plain per-object organ pipe; for
    cluster-structured tapes it additionally guarantees that co-requested
    objects are read as one contiguous run (minimal intra-request seek).
    ``group_probabilities`` defaults to each group's summed member
    probability.
    """
    if group_probabilities is None:
        probs = catalog.probability_values
        group_probabilities = [sum([probs[o] for o in group]) for group in groups]
    ordered = [groups[g] for g in organ_pipe_order(group_probabilities)]
    flat = np.array([o for group in ordered for o in group], dtype=np.int64)
    bounds = np.cumsum([0] + [len(group) for group in ordered])
    within = _organ_pipe_segments(catalog.probabilities[flat], bounds)
    return _contiguous_extents(flat[within], catalog)


def sequential_extents(object_ids: Sequence[int], catalog: ObjectCatalog) -> List[ObjectExtent]:
    """FIFO alignment (no organ pipe) — the ablation baseline."""
    return _contiguous_extents(np.asarray(object_ids, dtype=np.int64), catalog)
