"""Incremental placement — the paper's open problem, implemented.

The conclusion of the paper: "In a real system, objects are moved to tapes
periodically.  When we place objects on tapes, we only have the local
knowledge of object probability and relationship.  How to make an optimal
or near-optimal solution for the long-term backup/retrieve operations
remains to be solved."

This module models exactly that regime and provides a heuristic answer:

* a workload is revealed in *epochs* (:func:`split_into_epochs`): each epoch
  brings new objects and the requests that reference them;
* tapes already written are immutable — rewriting tape is as expensive as
  the restore problem we are optimizing — so each epoch may only *append*
  into remaining free space;
* :class:`IncrementalParallelBatch` places epoch 0 with the full parallel
  batch scheme, then appends later epochs' objects **affinity-first**: a new
  object goes to the batch already holding most of its co-requested,
  already-placed peers, keeping each request's working set inside few
  batches even though placement decisions were made with partial knowledge;
* ``affinity=False`` degrades to the naive operator behaviour (fill free
  space in tape order), the natural baseline.

``benchmarks/bench_incremental.py`` (experiment A2 in DESIGN.md) measures
the cost of local knowledge: omniscient re-placement vs affinity-append vs
naive append.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..catalog import ObjectCatalog, Request, RequestSet
from ..hardware import SystemSpec, TapeId
from ..workload import Workload
from .base import PlacementError, PlacementResult, PlacementScheme
from .load_balance import TapeBin, zigzag_assign
from .organ_pipe import sequential_extents
from .parallel_batch import ParallelBatchPlacement

__all__ = [
    "Epoch",
    "split_into_epochs",
    "subset_workload",
    "IncrementalParallelBatch",
]


@dataclass(frozen=True)
class Epoch:
    """One reveal step of the workload."""

    index: int
    #: Objects first seen in this epoch (global ids).
    new_object_ids: Tuple[int, ...]
    #: Requests first submitted in this epoch (global request ids).
    new_request_ids: Tuple[int, ...]
    #: All requests known once this epoch has arrived.
    known_request_ids: Tuple[int, ...]


def split_into_epochs(workload: Workload, num_epochs: int) -> List[Epoch]:
    """Partition a workload into reveal epochs.

    Requests are dealt round-robin to epochs (epoch = request id mod n), an
    object belongs to the epoch of its earliest request, and objects
    referenced by no request are dealt round-robin as cold filler.
    """
    if num_epochs <= 0:
        raise ValueError(f"num_epochs must be positive, got {num_epochs}")
    n_obj = workload.num_objects
    first_epoch = np.full(n_obj, -1, dtype=np.int64)
    request_epoch: Dict[int, int] = {}
    for request in workload.requests:
        e = request.id % num_epochs
        request_epoch[request.id] = e
        for o in request.object_ids:
            if first_epoch[o] == -1 or e < first_epoch[o]:
                first_epoch[o] = e
    orphans = np.flatnonzero(first_epoch == -1)
    for i, o in enumerate(orphans):
        first_epoch[o] = i % num_epochs

    epochs: List[Epoch] = []
    known: List[int] = []
    for e in range(num_epochs):
        new_requests = tuple(r for r, ep in sorted(request_epoch.items()) if ep == e)
        known.extend(new_requests)
        epochs.append(
            Epoch(
                index=e,
                new_object_ids=tuple(int(o) for o in np.flatnonzero(first_epoch == e)),
                new_request_ids=new_requests,
                known_request_ids=tuple(known),
            )
        )
    return epochs


def subset_workload(
    workload: Workload,
    object_ids: Sequence[int],
    request_ids: Sequence[int],
) -> Tuple[Workload, np.ndarray]:
    """A self-contained sub-workload over ``object_ids`` / ``request_ids``.

    Returns ``(sub_workload, to_global)`` where ``to_global[local_id]`` maps
    the sub-catalog's dense ids back to the original catalog.  Requests are
    restricted to members inside ``object_ids``; requests left empty are
    dropped.
    """
    to_global = np.asarray(sorted(object_ids), dtype=np.int64)
    to_local = {int(g): i for i, g in enumerate(to_global)}
    sizes = np.asarray(workload.catalog.sizes_mb)[to_global]
    wanted = set(request_ids)
    requests: List[Request] = []
    for request in workload.requests:
        if request.id not in wanted:
            continue
        members = tuple(to_local[o] for o in request.object_ids if o in to_local)
        if members:
            requests.append(Request(request.id, members, request.probability))
    if not requests:
        raise ValueError("subset contains no usable requests")
    return Workload(ObjectCatalog(sizes), RequestSet(requests)), to_global


@dataclass
class IncrementalParallelBatch:
    """Epoch-by-epoch parallel batch placement with append-only tapes."""

    m: int = 4
    k: float = 0.9
    #: Route new objects to the batch of their already-placed co-requested
    #: peers; ``False`` = naive free-space fill in tape order.
    affinity: bool = True
    #: Fraction of each tape's usable capacity the epoch-0 placement leaves
    #: free for future arrivals.  Without headroom the initial placement
    #: packs its batches to ``k`` and affinity appends degenerate to naive
    #: (peers' batches are always full) — an operator provisioning an
    #: append-only archive reserves growth space up front.
    headroom: float = 0.35
    #: Scheme used for the initial (epoch-0) placement.
    base_scheme: Optional[ParallelBatchPlacement] = None

    def __post_init__(self) -> None:
        if not 0 <= self.headroom < 1:
            raise ValueError(f"headroom must be in [0, 1), got {self.headroom}")

    def place_incrementally(
        self, workload: Workload, epochs: Sequence[Epoch], spec: SystemSpec
    ) -> PlacementResult:
        """Replay all epochs; returns the final placement of every object."""
        if not epochs:
            raise ValueError("need at least one epoch")
        catalog = workload.catalog
        scheme = self.base_scheme or ParallelBatchPlacement(
            m=self.m, k=self.k * (1.0 - self.headroom)
        )

        # ---- epoch 0: full scheme on the visible sub-workload ----------
        first = epochs[0]
        sub, to_global = subset_workload(
            workload, first.new_object_ids, first.known_request_ids
        )
        base = scheme.place(sub, spec)

        # Re-key the epoch-0 layouts to global object ids and set up the
        # append state (object order per tape + used capacity).
        tape_objects: Dict[TapeId, List[int]] = {}
        used: Dict[TapeId, float] = {}
        for tid, extents in base.layouts.items():
            ordered = [int(to_global[e.object_id]) for e in extents]
            tape_objects[tid] = ordered
            used[tid] = sum(catalog.size_of(o) for o in ordered)

        batches: List[List[TapeId]] = [list(b) for b in base.metadata["batches"]]
        all_batches: List[List[TapeId]] = self._all_batches(spec)
        object_tape: Dict[int, TapeId] = {
            o: tid for tid, objs in tape_objects.items() for o in objs
        }

        # ---- later epochs: append-only placement ------------------------
        for epoch in epochs[1:]:
            self._append_epoch(
                workload, epoch, spec, catalog, tape_objects, used, all_batches,
                object_tape,
            )

        # Append-only tapes keep arrival order (no re-alignment possible).
        layouts = {
            tid: sequential_extents(objs, catalog)
            for tid, objs in tape_objects.items()
            if objs
        }
        priority = {
            tid: PlacementScheme.total_priority(extents, catalog)
            for tid, extents in layouts.items()
        }
        initial_mounts = {
            did: tid for did, tid in base.initial_mounts.items() if layouts.get(tid)
        }
        return PlacementResult(
            scheme=f"incremental_parallel_batch[{'affinity' if self.affinity else 'naive'}]",
            layouts=layouts,
            initial_mounts=initial_mounts,
            pinned=base.pinned,
            tape_priority=priority,
            metadata={
                "epochs": len(epochs),
                "m": self.m,
                "batches": batches,
                "affinity": self.affinity,
            },
        )

    # ------------------------------------------------------------------
    def _append_epoch(
        self,
        workload: Workload,
        epoch: Epoch,
        spec: SystemSpec,
        catalog: ObjectCatalog,
        tape_objects: Dict[TapeId, List[int]],
        used: Dict[TapeId, float],
        all_batches: List[List[TapeId]],
        object_tape: Dict[int, TapeId],
    ) -> None:
        """Append one epoch's new objects into remaining free space.

        The epoch's new objects are clustered among themselves with the
        same co-access machinery as epoch 0 (future requests will ask for
        them together), then each cluster is appended *whole* into one
        batch.  With ``affinity`` on, the preferred batch is the one
        holding most of the cluster's already-placed co-requested peers —
        provided it has room — otherwise the emptiest batch takes it
        (keeping the cluster united beats chasing full batches).
        """
        from .clustering import cluster_objects  # local: avoids cycle at import

        capacity = self.k * spec.library.tape.capacity_mb
        batch_of_tape: Dict[TapeId, int] = {
            tid: b for b, batch in enumerate(all_batches) for tid in batch
        }

        def batch_free(b: int) -> float:
            return sum(capacity - used.get(tid, 0.0) for tid in all_batches[b])

        # Cluster the epoch's new objects via its own requests.
        sub, to_global = subset_workload(
            workload, epoch.new_object_ids, epoch.new_request_ids
        )
        clustering = cluster_objects(
            sub, max_size_mb=capacity * len(all_batches[0]), detach_shared=True
        )
        groups: List[List[int]] = [
            [int(to_global[o]) for o in cluster.objects]
            for cluster in sorted(clustering, key=lambda c: -c.density)
        ]

        peer_votes = self._peer_batch_votes(
            workload, epoch, object_tape, batch_of_tape
        ) if self.affinity else {}

        for members in groups:
            size = catalog.total_size_mb(members)
            preferred: Optional[int] = None
            if self.affinity:
                tally: Dict[int, int] = {}
                for o in members:
                    for b, v in peer_votes.get(o, {}).items():
                        tally[b] = tally.get(b, 0) + v
                if tally:
                    preferred = max(tally, key=lambda b: (tally[b], -b))
                    if batch_free(preferred) < size:
                        preferred = None  # full: don't split the cluster for it
            if preferred is None:
                # Emptiest batch that can hold the whole cluster, else the
                # overall emptiest (the zig-zag overflow handles the rest).
                candidates = [b for b in range(len(all_batches)) if batch_free(b) >= size]
                pool = candidates or range(len(all_batches))
                preferred = max(pool, key=batch_free)

            order = [preferred] + [b for b in range(len(all_batches)) if b != preferred]
            remaining = members
            for b in order:
                if not remaining:
                    break
                bins = [
                    TapeBin(tid, capacity, used_mb=used.get(tid, 0.0), object_ids=[])
                    for tid in all_batches[b]
                ]
                remaining = zigzag_assign(remaining, catalog, bins)
                for tape_bin in bins:
                    if tape_bin.object_ids:
                        tape_objects.setdefault(tape_bin.tape_id, []).extend(
                            tape_bin.object_ids
                        )
                        used[tape_bin.tape_id] = tape_bin.used_mb
                        for o in tape_bin.object_ids:
                            object_tape[o] = tape_bin.tape_id
            if remaining:
                raise PlacementError(
                    f"epoch {epoch.index}: {len(remaining)} objects fit nowhere"
                )

    @staticmethod
    def _peer_batch_votes(
        workload: Workload,
        epoch: Epoch,
        object_tape: Dict[int, TapeId],
        batch_of_tape: Dict[TapeId, int],
    ) -> Dict[int, Dict[int, int]]:
        """For each new object: batch -> number of already-placed peers."""
        votes: Dict[int, Dict[int, int]] = {}
        new_set = set(epoch.new_object_ids)
        new_requests = set(epoch.new_request_ids)
        for request in workload.requests:
            if request.id not in new_requests:
                continue
            placed_batches = [
                batch_of_tape[object_tape[o]]
                for o in request.object_ids
                if o in object_tape and object_tape[o] in batch_of_tape
            ]
            if not placed_batches:
                continue
            counts = np.bincount(placed_batches)
            majority = int(counts.argmax())
            weight = int(counts.max())
            for o in request.object_ids:
                if o in new_set:
                    votes.setdefault(o, {}).setdefault(majority, 0)
                    votes[o][majority] += weight
        return votes

    def _all_batches(self, spec: SystemSpec) -> List[List[TapeId]]:
        return ParallelBatchPlacement(m=self.m, k=self.k)._batch_tapes(spec)
