"""High-level simulation sessions: place a workload, then serve requests.

This is the main user-facing entry point::

    from repro import SimulationSession, ParallelBatchPlacement, generate_workload
    from repro.hardware import SystemSpec

    workload = generate_workload()
    session = SimulationSession(workload, SystemSpec.table1(), ParallelBatchPlacement())
    result = session.evaluate(num_samples=200, seed=1)
    print(result.avg_bandwidth_mb_s)
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..catalog import Request
from ..des import Trace
from ..hardware import SystemSpec, TapeSystem
from ..placement.base import PlacementResult, PlacementScheme
from ..workload import Workload
from .engine import simulate_request
from .metrics import EvaluationResult, RequestMetrics
from .replacement import resolve_replacement_policy
from .seekplanner import resolve_seek_planner

__all__ = ["SimulationSession", "evaluate_scheme"]

#: The paper samples 200 requests per configuration.
DEFAULT_NUM_SAMPLES = 200


class SimulationSession:
    """A placed tape system ready to serve requests.

    Parameters
    ----------
    workload:
        Objects + requests to place and serve.
    spec:
        System configuration (defaults in :meth:`SystemSpec.table1`).
    scheme:
        A placement scheme; mutually exclusive with ``placement``.
    placement:
        A precomputed :class:`PlacementResult` (skips running the scheme).
    trace:
        Enable span-level telemetry (slower, but exposes every rewind /
        robot wait / seek / transfer for analysis).
    replacement_policy:
        Which mounted tape gets displaced first; see
        :mod:`repro.sim.replacement`.  Default: the paper's least-popular.
        An unknown name raises ``ValueError`` here, before anything runs.
    seek_planner:
        Within-tape retrieval-order strategy (a registered name or a
        :class:`~repro.sim.seekplanner.SeekPlanner` instance); ``None``
        resolves to the default ``greedy-sweep``, the paper's two-sweep
        heuristic.  See :mod:`repro.sim.seekplanner`.
    """

    def __init__(
        self,
        workload: Workload,
        spec: SystemSpec,
        scheme: Optional[PlacementScheme] = None,
        placement: Optional[PlacementResult] = None,
        trace: bool = False,
        replacement_policy: str = "least_popular",
        seek_planner=None,
    ) -> None:
        if (scheme is None) == (placement is None):
            raise ValueError("provide exactly one of `scheme` or `placement`")
        #: ``key(drive, priority)`` of the replacement policy, resolved once.
        self.displacement_key = resolve_replacement_policy(replacement_policy)
        self.workload = workload
        self.spec = spec
        self.placement = placement if placement is not None else scheme.place(workload, spec)
        self.placement.validate(workload.catalog, spec)
        self.system = TapeSystem(spec)
        self.index = self.placement.apply_to(self.system)
        #: True while the hardware is exactly as ``apply_to`` left it:
        #: ``evaluate(reset=True)`` then has nothing to restore.
        self._as_placed = True
        self.trace = Trace(enabled=trace)
        self.replacement_policy = replacement_policy
        self.seek_planner = resolve_seek_planner(seek_planner)

    @property
    def scheme_name(self) -> str:
        return self.placement.scheme

    def open(
        self,
        policy: str = "concurrent",
        faults: Optional[tuple] = None,
        fault_seed: int = 0,
        seek_planner=None,
        repair_policy: Optional[str] = None,
        read_selection: str = "least-loaded",
    ):
        """Open-system serving: concurrent in-flight requests on one clock.

        Returns an :class:`~repro.sim.opensystem.OpenSystem` owning a
        long-lived environment; its ``run(arrival_rate_per_hour, ...)``
        injects a Poisson stream of Zipf-sampled requests scheduled by
        ``policy`` (``"serial-fcfs"`` reproduces
        :func:`~repro.sim.queueing.simulate_fcfs_queue` seed-for-seed;
        ``"concurrent"`` overlaps requests across libraries and drives).

        ``faults`` arms declarative :class:`~repro.sim.faults.FaultSpec`s
        (one-shot or stochastic drive fail/repair, robot outages, transient
        errors, tape losses); they validate here, before any simulation
        starts.
        ``seek_planner`` overrides the session's planner for this open
        system only.  ``repair_policy`` selects how media-loss repair
        traffic competes with user restores (see
        :data:`~repro.sim.repair.REPAIR_POLICIES`); ``read_selection``
        switches redundant reads between ``"least-loaded"`` (default)
        and ``"cheapest"`` member ordering.
        """
        from .opensystem import OpenSystem

        return OpenSystem(
            self, policy=policy, faults=faults,
            fault_seed=fault_seed, seek_planner=seek_planner,
            repair_policy=repair_policy, read_selection=read_selection,
        )

    def serve(self, request: Request) -> RequestMetrics:
        """Serve one request to completion on an exclusive environment.

        This is the paper's closed-loop model (requests arrive "one by one
        with long time interval"): mounted tapes / head positions persist
        between calls, but no two requests are ever in flight together —
        use :meth:`open` for that, and for drive failures during service.
        """
        self._as_placed = False
        return simulate_request(
            self.system,
            self.index,
            request,
            self.placement.tape_priority,
            self.trace,
            self.replacement_policy,
            seek_planner=self.seek_planner,
        )

    def fail_drives(self, drive_names: "list[str]") -> None:
        """Permanently mark drives as failed (degraded-operation studies).

        A failed drive's mounted cartridge is pulled back to its cell; the
        scheduler will serve its content through the surviving drives.
        ``reset()`` restores the healthy state.
        """
        self._as_placed = False
        wanted = set(drive_names)
        found = set()
        for library in self.system.libraries:
            for drive in library.drives:
                if str(drive.id) in wanted:
                    drive.failed = True
                    drive.pinned = False
                    if drive.mounted is not None:
                        drive.unmount()
                    found.add(str(drive.id))
        missing = wanted - found
        if missing:
            raise ValueError(f"unknown drive names: {sorted(missing)}")

    def reset(self) -> None:
        """Restore the freshly-placed state (initial mounts, heads at BOT).

        Always rewrites the layouts and rebuilds the location index, after
        :meth:`serve`, :meth:`fail_drives` or an open-system run alike.
        """
        self.index = self.placement.apply_to(self.system)
        self._as_placed = True

    def evaluate(
        self,
        num_samples: int = DEFAULT_NUM_SAMPLES,
        seed: int = 0,
        warmup: int = 0,
        reset: bool = True,
    ) -> EvaluationResult:
        """Serve ``num_samples`` Zipf-sampled requests; average the metrics.

        ``warmup`` extra requests are served first and discarded (they bring
        mounted switching tapes / head positions to steady state).

        ``reset=True`` starts from the freshly placed state.  A session that
        has served nothing, failed no drive and run no open system since
        construction or its last :meth:`reset` is already there, so the
        layouts and location index are not built a second time.
        """
        if reset and not self._as_placed:
            self.reset()
        rng = np.random.default_rng(seed)
        sampled = self.workload.requests.sample(rng, warmup + num_samples)
        result = EvaluationResult(
            scheme=self.scheme_name,
            metadata={
                "num_samples": num_samples,
                "warmup": warmup,
                "seed": seed,
                "num_libraries": self.spec.num_libraries,
            },
        )
        for i, request in enumerate(sampled):
            metrics = self.serve(request)
            if i >= warmup:
                result.append(metrics)
        return result


def evaluate_scheme(
    workload: Workload,
    spec: SystemSpec,
    scheme: PlacementScheme,
    num_samples: int = DEFAULT_NUM_SAMPLES,
    seed: int = 0,
    warmup: int = 0,
) -> EvaluationResult:
    """One-shot convenience: place, serve, aggregate."""
    session = SimulationSession(workload, spec, scheme=scheme)
    return session.evaluate(num_samples=num_samples, seed=seed, warmup=warmup, reset=False)
