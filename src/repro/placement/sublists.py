"""Steps 2–4 of the placement algorithm: density sort, sublist partition,
cluster-aware refinement (Sec. 5.3).

* **Step 2** sorts objects by probability density ``P(O)/size(O)``
  (decreasing), so each MB of always-mounted capacity buys the most
  probability.
* **Step 3** cuts the sorted list into capacity-bounded sublists: the first
  fits the always-mounted batch (``k·n·(d−m)·C_t``), the rest fit one switch
  batch each (``k·n·m·C_t``).
* **Step 4** moves whole clusters between sublists so strongly related
  objects land in the same batch (at most one switch round per library per
  request) while preserving the monotone probability skew across batches.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from ..catalog import ObjectCatalog
from .base import PlacementError
from .clustering import Clustering, group_by_cluster, group_sizes

__all__ = ["density_order", "partition_sublists", "refine_sublists"]


def density_order(catalog: ObjectCatalog) -> np.ndarray:
    """Object ids sorted by decreasing probability density (Step 2).

    Ties (e.g. the many zero-probability objects) break by object id for
    determinism.
    """
    densities = catalog.densities
    return np.lexsort((np.arange(len(catalog)), -densities))


def partition_sublists(
    order: Sequence[int],
    catalog: ObjectCatalog,
    first_capacity_mb: float,
    rest_capacity_mb: float,
) -> List[List[int]]:
    """Cut the density-ordered object list into capacity-bounded sublists
    (Step 3).  Each object goes to the earliest sublist with room; an object
    larger than a whole batch is unplaceable."""
    if first_capacity_mb <= 0 or rest_capacity_mb <= 0:
        raise ValueError("sublist capacities must be positive")
    sizes = catalog.size_values
    sublists: List[List[int]] = [[]]
    remaining = [first_capacity_mb]

    for object_id in np.asarray(order, dtype=np.int64).tolist():
        size = sizes[object_id]
        # The paper appends in order; a too-large object spills to the next
        # sublist.  Scanning earlier sublists (first-fit) would break the
        # probability skew, so only the tail sublist (and new ones) are used.
        if size <= remaining[-1] + 1e-9:
            sublists[-1].append(object_id)
            remaining[-1] -= size
        else:
            if size > rest_capacity_mb + 1e-9:
                raise PlacementError(
                    f"object {object_id} ({size:.0f} MB) exceeds the switch-batch "
                    f"capacity ({rest_capacity_mb:.0f} MB)"
                )
            sublists.append([object_id])
            remaining.append(rest_capacity_mb - size)
    return sublists


def refine_sublists(
    sublists: List[List[int]],
    clustering: Clustering,
    catalog: ObjectCatalog,
    first_capacity_mb: float,
    rest_capacity_mb: float,
) -> List[List[int]]:
    """Unify every cluster inside a single sublist (Step 4).

    The paper refines the Step-3 partition by moving related objects between
    adjacent sublists until "objects with a strong relationship fall into the
    same sublist … while maintaining the skewed tape probability
    distribution".  We compute the fixed point of that process directly:
    re-partition at whole-cluster granularity, visiting clusters in
    decreasing probability *density* (so each MB of always-mounted capacity
    still buys the most probability — the skew is preserved at cluster
    granularity) and packing each cluster first-fit into the earliest
    sublist with room.  Clusters are capped at batch capacity upstream, so
    every cluster fits some sublist.

    Postconditions: every object appears exactly once; no cluster spans two
    sublists; sublist capacities are respected; sublist mean density is
    (approximately) non-increasing.
    """
    groups = group_by_cluster(
        (o for sublist in sublists for o in sublist), clustering.labels.tolist()
    )
    sizes = group_sizes(groups, catalog)
    # Clusters in decreasing aggregate-density order, ties by first
    # appearance; members keep their original (density) order.
    labels = clustering.labels[[group[0] for group in groups]]
    density = clustering.probabilities[labels] / clustering.sizes_mb[labels]

    refined: List[List[int]] = [[]]
    remaining = [first_capacity_mb]
    for g in np.argsort(-density, kind="stable").tolist():
        group, size = groups[g], sizes[g]
        for s in range(len(refined)):
            if size <= remaining[s] + 1e-9:
                refined[s].extend(group)
                remaining[s] -= size
                break
        else:
            if size > rest_capacity_mb + 1e-9:
                raise PlacementError(
                    f"cluster of {size:.0f} MB exceeds the switch-batch capacity "
                    f"({rest_capacity_mb:.0f} MB); cap clusters at batch size upstream"
                )
            refined.append(group)
            remaining.append(rest_capacity_mb - size)
    return refined
