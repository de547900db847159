"""Shared experiment machinery: canonical workloads, scheme sets, sweeps.

Experiments run at the paper's scale by default (30 000 objects, 300
requests, Table-1 hardware, 200 sampled requests).  For quick smoke runs
(CI, laptops) pass ``scale="small"`` or set ``REPRO_SCALE=small`` — the
workload and sample counts shrink by roughly an order of magnitude while
keeping every structural property (several batches, capacity pressure,
co-access sharing).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..hardware import SystemSpec
from ..placement import (
    ClusterProbabilityPlacement,
    ObjectProbabilityPlacement,
    ParallelBatchPlacement,
    PlacementScheme,
)
from ..sim import EvaluationResult, OpenSystemResult, SimulationSession
from ..workload import Workload, WorkloadParams, generate_workload

__all__ = [
    "ExperimentSettings",
    "default_settings",
    "paper_workload",
    "default_schemes",
    "run_comparison",
    "run_open_comparison",
    "SCHEME_LABELS",
]

#: Display names used across tables (paper's terminology).
SCHEME_LABELS = {
    "parallel_batch": "parallel batch",
    "object_probability": "object probability",
    "cluster_probability": "cluster probability",
}

#: The paper keeps m = 4 after Figure 5.
DEFAULT_M = 4


@dataclass(frozen=True)
class ExperimentSettings:
    """Everything an experiment driver needs besides its own sweep axis."""

    scale: str = "paper"
    num_samples: int = 200
    eval_seed: int = 0
    workload_seed: int = 20060814
    m: int = DEFAULT_M
    #: Within-tape seek-planner name (a key of ``SEEK_PLANNERS``) threaded
    #: into every sweep point (``None`` = the default ``greedy-sweep``).
    seek_planner: Optional[str] = None
    #: Redundancy spec (``"r=2"`` / ``"k=4,n=6"``) wrapping every sweep
    #: point's scheme (``None`` = no redundancy).  A2's incremental points
    #: reject it — redundancy wraps static placements only.
    redundancy: Optional[str] = None

    @property
    def workload_params(self) -> WorkloadParams:
        if self.scale == "paper":
            return WorkloadParams(seed=self.workload_seed)
        if self.scale == "small":
            # One tenth of the paper in objects and tape capacity (see
            # spec()): the data-to-mounted-capacity pressure (~6x) and the
            # requests-span-tapes structure are preserved.
            return WorkloadParams(
                num_objects=2500,
                num_requests=60,
                request_size_bounds=(20, 40),
                # Narrower raw bounds than the paper scale: the small
                # system's 40 GB tapes must pack the largest object even
                # after F7's 1.5x size sweep at ~80% utilization (the paper
                # scale has the same object:tape ratio headroom).
                object_size_bounds_mb=(100.0, 3000.0),
                mean_object_size_mb=1780.0,
                seed=self.workload_seed,
            )
        raise ValueError(f"unknown scale {self.scale!r} (use 'paper' or 'small')")

    @property
    def samples(self) -> int:
        if self.scale == "small":
            return min(self.num_samples, 60)
        return self.num_samples

    def spec(self, num_libraries: Optional[int] = None) -> SystemSpec:
        spec = SystemSpec.table1()
        if self.scale == "small":
            # Tape capacity /10 so the small workload faces the same
            # switching pressure; timing constants stay Table-1 (the locate
            # rate scales with capacity, keeping the 98 s full rewind).
            spec = spec.scaled_technology(capacity_factor=0.1)
        if num_libraries is not None:
            spec = spec.with_libraries(num_libraries)
        return spec

    @property
    def figure8_num_objects(self) -> int:
        """Objects for the library-count sweep (DESIGN.md §5: the full data
        set cannot fit one library, so F8 uses 2/5 of the object count)."""
        return max(200, int(self.workload_params.num_objects * 2 / 5))


def default_settings(**overrides) -> ExperimentSettings:
    """Settings honoring the ``REPRO_SCALE`` / ``REPRO_SAMPLES`` env vars."""
    kwargs = {}
    if "REPRO_SCALE" in os.environ:
        kwargs["scale"] = os.environ["REPRO_SCALE"]
    if "REPRO_SAMPLES" in os.environ:
        kwargs["num_samples"] = int(os.environ["REPRO_SAMPLES"])
    kwargs.update(overrides)
    return ExperimentSettings(**kwargs)


def paper_workload(settings: ExperimentSettings, alpha: Optional[float] = None) -> Workload:
    """The Sec.-6 workload at the settings' scale (optionally re-skewed)."""
    workload = generate_workload(settings.workload_params)
    if alpha is not None:
        workload = workload.with_zipf_alpha(alpha)
    return workload


def default_schemes(m: int = DEFAULT_M) -> List[PlacementScheme]:
    """The three schemes the paper compares."""
    return [
        ParallelBatchPlacement(m=m),
        ObjectProbabilityPlacement(),
        ClusterProbabilityPlacement(),
    ]


def run_comparison(
    workload: Workload,
    spec: SystemSpec,
    schemes: Sequence[PlacementScheme],
    num_samples: int,
    seed: int = 0,
) -> Dict[str, EvaluationResult]:
    """Evaluate every scheme on the same workload/system/sample stream."""
    results: Dict[str, EvaluationResult] = {}
    for scheme in schemes:
        session = SimulationSession(workload, spec, scheme=scheme)
        results[scheme.name] = session.evaluate(num_samples=num_samples, seed=seed)
    return results


def run_open_comparison(
    workload: Workload,
    spec: SystemSpec,
    scheme: PlacementScheme,
    arrival_rate_per_hour: float,
    num_arrivals: int = 60,
    seed: int = 0,
    policies: Sequence[str] = ("serial-fcfs", "concurrent"),
) -> Dict[str, OpenSystemResult]:
    """Serve the *same* Poisson arrival stream under each scheduling policy.

    Every policy gets a freshly placed session (identical initial mounts)
    and an identical seeded arrival/sampling stream, so differences are
    attributable to scheduling alone.
    """
    results: Dict[str, OpenSystemResult] = {}
    for policy in policies:
        session = SimulationSession(workload, spec, scheme=scheme)
        results[policy] = session.open(policy=policy).run(
            arrival_rate_per_hour, num_arrivals=num_arrivals, seed=seed
        )
    return results
