"""Local-search placement optimization over the analytic cost model.

The paper argues the optimal placement is NP-hard and settles for a
heuristic (Sec. 3/5).  This module asks the natural follow-up: *how close
is the heuristic?*  Starting from any scheme's placement, a hill-climbing
search proposes object moves, scores each candidate with
:class:`~repro.model.cost.CostModel` (the paper's objective
``Σ P(R)·t(R)``), and keeps improvements.  Moves are popularity-biased —
hot requests' stray objects are pulled toward the tape group that already
serves most of the request — which is exactly the residual structure the
constructive heuristic leaves behind.

``benchmarks/bench_search.py`` (A7) reports how much objective the search
recovers for each scheme and verifies the model-driven improvements carry
over to the event-driven simulator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..hardware import ObjectExtent, SystemSpec, TapeId
from ..placement.base import PlacementResult
from ..placement.organ_pipe import sequential_extents
from ..workload import Workload
from .cost import CostModel

__all__ = ["SearchResult", "optimize_placement"]


@dataclass
class SearchResult:
    """Outcome of one optimization run."""

    placement: PlacementResult
    initial_objective_s: float
    final_objective_s: float
    moves_proposed: int = 0
    moves_accepted: int = 0
    #: Objective after each accepted move (for convergence plots).
    trajectory: List[float] = field(default_factory=list)

    @property
    def improvement(self) -> float:
        """Relative objective reduction (0.07 = 7 % faster)."""
        if self.initial_objective_s == 0:
            return 0.0
        return 1.0 - self.final_objective_s / self.initial_objective_s


class _State:
    """Mutable tape contents during the search."""

    def __init__(self, placement: PlacementResult, spec: SystemSpec, workload: Workload):
        self.capacity = spec.library.tape.capacity_mb
        self.catalog = workload.catalog
        self.order: Dict[TapeId, List[int]] = {
            tid: [e.object_id for e in sorted(extents, key=lambda e: e.start_mb)]
            for tid, extents in placement.layouts.items()
        }
        self.used: Dict[TapeId, float] = {
            tid: sum(self.catalog.size_of(o) for o in objs)
            for tid, objs in self.order.items()
        }
        self.home: Dict[int, TapeId] = {
            o: tid for tid, objs in self.order.items() for o in objs
        }

    def layouts(self) -> Dict[TapeId, List[ObjectExtent]]:
        return {tid: sequential_extents(objs, self.catalog) for tid, objs in self.order.items()}

    def can_move(self, object_id: int, target: TapeId) -> bool:
        if target == self.home[object_id]:
            return False
        size = self.catalog.size_of(object_id)
        return self.used.get(target, 0.0) + size <= self.capacity + 1e-9

    def move(self, object_id: int, target: TapeId) -> Tuple[TapeId, int]:
        """Move to the end of ``target``; returns (source tape, old index)
        so a rejected move can be undone *exactly* (position included)."""
        source = self.home[object_id]
        size = self.catalog.size_of(object_id)
        index = self.order[source].index(object_id)
        self.order[source].pop(index)
        self.used[source] -= size
        self.order.setdefault(target, []).append(object_id)
        self.used[target] = self.used.get(target, 0.0) + size
        self.home[object_id] = target
        return source, index

    def undo(self, object_id: int, source: TapeId, index: int) -> None:
        """Exact inverse of :meth:`move`."""
        target = self.home[object_id]
        size = self.catalog.size_of(object_id)
        self.order[target].remove(object_id)
        self.used[target] -= size
        self.order[source].insert(index, object_id)
        self.used[source] += size
        self.home[object_id] = source


def optimize_placement(
    placement: PlacementResult,
    workload: Workload,
    spec: SystemSpec,
    iterations: int = 200,
    seed: int = 0,
    sample_requests: Optional[int] = None,
) -> SearchResult:
    """Hill-climb object moves to minimize the model's expected response.

    Parameters
    ----------
    iterations:
        Move proposals (each scored with a full model rebuild — keep this
        modest at 30 000-object scale).
    sample_requests:
        Evaluate the objective over only the N most popular requests
        (None = all).  The objective stays popularity-weighted either way.
    """
    rng = np.random.default_rng(seed)
    requests = list(workload.requests)
    probs = np.asarray(workload.requests.probabilities, dtype=np.float64)
    if sample_requests is not None and sample_requests < len(requests):
        top = np.argsort(-probs)[:sample_requests]
        requests = [requests[i] for i in top]
        probs = probs[top]
    probs = probs / probs.sum()

    state = _State(placement, spec, workload)

    def objective() -> float:
        model = CostModel(
            _with_layouts(placement, state.layouts()), spec
        )
        return model.average_response(requests, probs)

    best = objective()
    result = SearchResult(
        placement=placement, initial_objective_s=best, final_objective_s=best
    )

    mounted = list(placement.initial_mounts.values())
    for _ in range(iterations):
        result.moves_proposed += 1
        # Popularity-biased proposal: pick a request, find the tape serving
        # most of it, and try pulling one stray member there (or to a
        # mounted tape — switch avoidance).
        request = requests[int(rng.choice(len(requests), p=probs))]
        homes = [state.home[o] for o in request.object_ids]
        values, counts = np.unique([str(h) for h in homes], return_counts=True)
        majority_name = values[int(np.argmax(counts))]
        majority = next(h for h in homes if str(h) == majority_name)
        strays = [o for o, h in zip(request.object_ids, homes) if h != majority]
        if not strays:
            continue
        object_id = int(strays[int(rng.integers(len(strays)))])
        target = majority if rng.random() < 0.7 or not mounted else mounted[
            int(rng.integers(len(mounted)))
        ]
        if not state.can_move(object_id, target):
            continue
        source, index = state.move(object_id, target)
        candidate = objective()
        if candidate < best - 1e-9:
            best = candidate
            result.moves_accepted += 1
            result.trajectory.append(best)
        else:
            state.undo(object_id, source, index)

    result.final_objective_s = best
    result.placement = _with_layouts(placement, state.layouts())
    result.placement.metadata = dict(placement.metadata)
    result.placement.metadata["search"] = {
        "iterations": iterations,
        "accepted": result.moves_accepted,
        "improvement": result.improvement,
    }
    return result


def _with_layouts(
    placement: PlacementResult, layouts: Dict[TapeId, List[ObjectExtent]]
) -> PlacementResult:
    """A copy of ``placement`` with replaced layouts (mounts/pins kept)."""
    return PlacementResult(
        scheme=placement.scheme + "+search",
        layouts=layouts,
        initial_mounts=dict(placement.initial_mounts),
        pinned=placement.pinned,
        tape_priority=dict(placement.tape_priority),
        metadata=dict(placement.metadata),
    )
