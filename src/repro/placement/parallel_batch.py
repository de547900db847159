"""Parallel batch placement — the paper's proposed scheme (Sec. 5).

Drives of each library are split into ``d − m`` *always-mounted* drives and
``m`` *switch* drives.  Tapes form batches: batch 0 (``n×(d−m)`` tapes, one
set of ``d−m`` per library) is mounted at startup and never unmounted;
every later batch has ``n×m`` tapes (``m`` per library) and is swapped
through the switch drives — because related objects are kept inside one
batch, the tapes of a batch tend to be swapped together, giving parallel
switches across libraries and parallel transfers across drives.

The placement follows Steps 1–6 of Sec. 5.3 exactly:

1. object probabilities from request probabilities (already maintained by
   :class:`~repro.workload.Workload`);
2. decreasing probability-density sort;
3. capacity-bounded sublists (k·n·(d−m)·C_t, then k·n·m·C_t each);
4. cluster-aware sublist refinement;
5. per-batch allocation with the Figure-3 greedy zig-zag (clusters split
   over ``ndrv`` tapes when big enough to benefit);
6. organ-pipe alignment within every tape.

Ablation switches (``refine``, ``use_zigzag``, ``alignment``,
``pin_first_batch``, ``detach_shared``) let the A1 benchmark quantify each
ingredient.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..hardware import DriveId, SystemSpec, TapeId
from ..workload import Workload
from .base import PlacementError, PlacementResult, PlacementScheme
from .clustering import cluster_objects, group_by_cluster, group_sizes
from .load_balance import TapeBin, choose_ndrv, round_robin_assign, zigzag_assign
from .organ_pipe import (
    clustered_organ_pipe_extents,
    organ_pipe_extents,
    sequential_extents,
)
from .sublists import density_order, partition_sublists, refine_sublists

__all__ = ["ParallelBatchPlacement"]


def default_split_unit_mb(spec: SystemSpec) -> float:
    """Bytes a drive streams during one average uncontended tape switch.

    Splitting a cluster share below this size cannot shorten the response:
    the extra tape's switch would outlast the transfer it saves (the Step-5
    "big enough" test).
    """
    lib = spec.library
    switch_s = (
        lib.tape.avg_rewind_s
        + lib.drive.unload_s
        + 2.0 * lib.cell_to_drive_s
        + lib.drive.load_s
    )
    return switch_s * lib.drive.transfer_rate_mb_s


@dataclass
class ParallelBatchPlacement(PlacementScheme):
    """The proposed scheme.  See module docstring."""

    #: Switch drives per library (the paper settles on 4 via Figure 5).
    m: int = 4
    #: Tape capacity utilization coefficient k < 1 (Step 3).
    k: float = 0.9
    #: Cluster-split granularity; ``None`` derives it from the spec.
    split_unit_mb: Optional[float] = None
    #: Clustering similarity threshold ("preset probability value").
    cluster_threshold: float = 0.0
    #: Clustering algorithm: "requests" (fast) or "pairs" (exact linkage).
    cluster_method: str = "requests"
    #: Cluster total-size cap.  ``None`` derives ``min(batch capacity,
    #: 2 × max request size)``: big enough that one request's working set
    #: usually stays in one cluster (⇒ one switch round per library), small
    #: enough that the density-greedy knapsack of Step 3/4 packs batch 0
    #: with the hottest mass (Sec. 5.1's cluster-size-control rule).
    cluster_cap_mb: Optional[float] = None
    # -- ablation switches -------------------------------------------------
    refine: bool = True
    use_zigzag: bool = True
    #: Step-6 within-tape alignment:
    #: "clustered" (default) — organ-pipe whole clusters, members contiguous
    #:   (a strict refinement of the paper's Step 6: co-requested objects
    #:   are additionally guaranteed a single contiguous run);
    #: "object" — the paper's literal Step 6, organ pipe by individual
    #:   object probability;
    #: "fifo" — no alignment (ablation baseline).
    alignment: str = "clustered"
    pin_first_batch: bool = True
    #: Keep multi-request objects out of clusters so the density sort can
    #: pull them into the always-mounted batch (see cluster_objects).
    detach_shared: bool = True

    name = "parallel_batch"

    def __post_init__(self) -> None:
        if not 0 < self.k <= 1:
            raise ValueError(f"k must be in (0, 1], got {self.k}")
        if self.alignment not in ("clustered", "object", "fifo"):
            raise ValueError(
                f"alignment must be 'clustered', 'object' or 'fifo', got {self.alignment!r}"
            )

    # ------------------------------------------------------------------
    def place(self, workload: Workload, spec: SystemSpec) -> PlacementResult:
        n, d, m = spec.num_libraries, spec.library.num_drives, self.m
        if not 1 <= m <= d - 1:
            raise PlacementError(
                f"m must be in 1..d-1 (= {d - 1}), got {m}: at least one drive per "
                "library must stay always-mounted and at least one must switch"
            )
        catalog = workload.catalog
        tape_capacity = spec.library.tape.capacity_mb
        first_capacity = self.k * n * (d - m) * tape_capacity
        rest_capacity = self.k * n * m * tape_capacity

        # Steps 1-3 -----------------------------------------------------
        order = density_order(catalog)
        sublists = partition_sublists(order, catalog, first_capacity, rest_capacity)

        # Clusters capped at roughly request scale (see cluster_cap_mb doc).
        batch_cap = min(first_capacity, rest_capacity)
        cluster_cap = self.cluster_cap_mb
        if cluster_cap is None:
            cluster_cap = min(batch_cap, 2.0 * workload.max_request_size_mb)
        cluster_cap = min(cluster_cap, batch_cap)
        clustering = cluster_objects(
            workload,
            threshold=self.cluster_threshold,
            max_size_mb=cluster_cap,
            method=self.cluster_method,
            detach_shared=self.detach_shared,
        )
        labels = clustering.labels.tolist()

        # Step 4 ---------------------------------------------------------
        if self.refine:
            sublists = refine_sublists(
                sublists, clustering, catalog, first_capacity, rest_capacity
            )

        # Batch -> tape ids ------------------------------------------------
        all_batches = self._batch_tapes(spec)
        if len(sublists) > len(all_batches):
            raise PlacementError(
                f"workload needs {len(sublists)} batches but the system only has "
                f"{len(all_batches)} (t={spec.library.num_tapes}, d-m={d - m}, m={m})"
            )

        # Step 5: allocate each sublist onto its batch.  Objects a batch's
        # tapes cannot fit (per-tape fragmentation; Step 3 only bounds the
        # aggregate) overflow to the next batch as singleton clusters.
        split_unit = self.split_unit_mb or default_split_unit_mb(spec)
        assignment: Dict[TapeId, TapeBin] = {}
        overflow: List[int] = []
        b = 0
        while b < len(sublists) or overflow:
            if b >= len(all_batches):
                # Past the last batch: scavenge free space anywhere (the
                # skew no longer matters for these last stragglers).
                for object_id in overflow:
                    size = catalog.size_values[object_id]
                    best = max(assignment.values(), key=lambda tb: tb.free_mb)
                    if not best.fits(size):  # the roomiest tape cannot: none can
                        raise PlacementError(
                            f"object {object_id} ({size:.0f} MB) fits nowhere; "
                            "system capacity exhausted"
                        )
                    best.add(object_id, size, catalog.probability_values[object_id] * size)
                overflow = []
                break
            sublist = sublists[b] if b < len(sublists) else []
            bins = [TapeBin(tid, tape_capacity) for tid in all_batches[b]]
            pending = [[o] for o in overflow] + group_by_cluster(sublist, labels)
            overflow = []
            for cluster_members, size in zip(pending, group_sizes(pending, catalog)):
                if b == 0:
                    # Sec. 5.1: always-mounted clusters spread over up to
                    # n×(d−m) tapes "for maximum parallelism" — those tapes
                    # never pay a switch, so width is free.
                    ndrv = min(len(cluster_members), len(bins))
                else:
                    # Step 5: switch-batch clusters split only when each
                    # share is worth a drive's switch ("big enough").
                    ndrv = choose_ndrv(size, len(cluster_members), len(bins), split_unit)
                if self.use_zigzag:
                    overflow += zigzag_assign(cluster_members, catalog, bins, ndrv)
                else:
                    overflow += round_robin_assign(cluster_members, catalog, bins)
            for tape_bin in bins:
                assignment[tape_bin.tape_id] = tape_bin
            b += 1
        batches = all_batches[:b]

        # Step 6: within-tape alignment (see the `alignment` field).
        layouts: Dict[TapeId, List] = {}
        for tid, tape_bin in assignment.items():
            if self.alignment == "clustered":
                layouts[tid] = clustered_organ_pipe_extents(
                    group_by_cluster(tape_bin.object_ids, labels), catalog
                )
            elif self.alignment == "object":
                layouts[tid] = organ_pipe_extents(tape_bin.object_ids, catalog)
            else:
                layouts[tid] = sequential_extents(tape_bin.object_ids, catalog)
        tape_priority = {
            tid: self.total_priority(extents, catalog) for tid, extents in layouts.items()
        }

        # Startup mounts: batch 0 on the pinned drives, batch 1 (if any) on
        # the switch drives ("the second batch is mounted during startup").
        initial_mounts: Dict[DriveId, TapeId] = {}
        pinned: set = set()
        for lib in range(n):
            batch0 = [tid for tid in batches[0] if tid.library == lib]
            for j, tape_id in enumerate(batch0):
                if layouts.get(tape_id):
                    initial_mounts[DriveId(lib, j)] = tape_id
                    if self.pin_first_batch:
                        pinned.add(tape_id)
            if len(batches) > 1:
                batch1 = [tid for tid in batches[1] if tid.library == lib]
                for j, tape_id in enumerate(batch1):
                    if layouts.get(tape_id):
                        initial_mounts[DriveId(lib, (d - m) + j)] = tape_id

        return PlacementResult(
            scheme=self.name,
            layouts=layouts,
            initial_mounts=initial_mounts,
            pinned=frozenset(pinned),
            tape_priority=tape_priority,
            metadata={
                "m": m,
                "k": self.k,
                "split_unit_mb": split_unit,
                "num_sublists": len(sublists),
                "batches": [list(b) for b in batches[: len(sublists)]],
                "num_clusters": len(clustering),
                "num_multi_clusters": len(clustering.multi_object_clusters()),
            },
        )

    # ------------------------------------------------------------------
    def _batch_tapes(self, spec: SystemSpec) -> List[List[TapeId]]:
        """Tape ids of every possible batch, interleaved across libraries.

        Batch 0 takes slots ``0..d-m-1`` of every library; batch ``b >= 1``
        takes slots ``(d-m) + (b-1)·m .. (d-m) + b·m - 1``.  The interleaved
        (library-major) order makes the zig-zag spread a cluster across
        libraries first, maximizing transfer *and* robot parallelism.
        """
        n, d, m = spec.num_libraries, spec.library.num_drives, self.m
        t = spec.library.num_tapes
        max_batches = 1 + (t - (d - m)) // m
        batches: List[List[TapeId]] = []
        batch0 = [TapeId(lib, slot) for slot in range(d - m) for lib in range(n)]
        batches.append(batch0)
        for b in range(1, max_batches):
            start = (d - m) + (b - 1) * m
            batches.append(
                [TapeId(lib, start + j) for j in range(m) for lib in range(n)]
            )
        return batches
