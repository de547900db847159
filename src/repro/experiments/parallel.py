"""Parallel sweep-execution engine with deterministic seeding and caching.

Every figure of EXPERIMENTS.md is a sweep of independent
``(scheme, axis-value, replicate)`` points.  This module turns such a sweep
into explicit :class:`PointSpec` jobs and executes them

* **reproducibly** — each point's evaluation seed is derived from the
  sweep's root seed with :class:`numpy.random.SeedSequence`, using a
  ``spawn_key`` computed from the point's *seed group* (its axis cell), so
  results are bit-identical for any worker count, any execution order, and
  any sub-selection of points.  Points in the same seed group (e.g. the
  three schemes at one axis value) share a seed, preserving the paper's
  paired-sample-stream comparisons;
* **in parallel** — points fan out over a
  :class:`concurrent.futures.ProcessPoolExecutor` (``workers`` argument or
  ``REPRO_WORKERS``), falling back to in-process serial execution for
  ``workers=1`` and whenever jobs or pool infrastructure fail to pickle;
* **memoized** — each point's result is stored in an on-disk
  content-addressed cache (:mod:`repro.experiments.cache`): the key hashes
  the complete point description plus its derived seed and a code-version
  salt, so editing one scheme's configuration invalidates only that
  scheme's points.  Cache lookups run *in the workers* (so a 10-worker
  sweep reads/writes the cache with 10-way parallelism) and every worker's
  hit/miss activity travels back in its telemetry snapshot — parent-side
  totals count the whole fleet, not just the parent process;
* **observably** — every job returns a compact mergeable telemetry
  snapshot (:func:`repro.obs.fleet.snapshot_of_result`) alongside its
  result; the parent folds them into :attr:`SweepResult.fleet`, a
  :class:`~repro.obs.FleetRegistry` whose counters and latency
  percentiles are identical for any worker count and execution order.  An
  optional :class:`~repro.obs.FleetFeed` streams point lifecycle and
  mid-point progress records live while the sweep runs.

Cache-hit statistics are also published through a parent-side
:class:`repro.obs.MetricsRegistry` (counters ``sweep.points``,
``sweep.cache_hits``, ``sweep.cache_misses``) and surfaced in
:attr:`SweepResult.stats`.  See ``docs/experiments.md`` and
``docs/observability.md``.
"""

from __future__ import annotations

import hashlib
import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..hardware import SystemSpec
from ..obs import FleetFeed, FleetRegistry, MetricsRegistry
from ..obs.fleet import snapshot_of_result
from ..workload import WorkloadParams, generate_workload
from .cache import (
    MISS,
    ResultCache,
    canonical_json,
    content_key,
    default_cache_dir,
)

__all__ = [
    "EngineOptions",
    "PointSpec",
    "SweepSpec",
    "PointResult",
    "SweepResult",
    "spawn_seed",
    "evaluate_point",
    "point_label",
    "run_sweep",
    "resolve_workers",
]

#: Hashable ``(key, value)`` pairs standing in for a kwargs dict.
KwargsTuple = Tuple[Tuple[str, Any], ...]


def as_kwargs(mapping: Optional[Dict[str, Any]] = None, **extra: Any) -> KwargsTuple:
    """Freeze a kwargs dict into a sorted, hashable tuple of pairs."""
    merged = dict(mapping or {})
    merged.update(extra)
    return tuple(sorted(merged.items()))


@dataclass(frozen=True)
class PointSpec:
    """One sweep point: everything a worker needs, as pure picklable data.

    The evaluation *seed* is deliberately absent — it is derived by the
    engine from the sweep's root seed and :attr:`seed_group` (defaulting to
    ``(axis, value, replicate)``), so that points sharing a group (the
    schemes compared at one axis value) sample identical request streams.
    """

    #: Sweep/figure id this point belongs to (e.g. ``"fig5"``).
    sweep: str
    #: Axis name and this point's value on it (table row key).
    axis: str
    value: Any
    #: Placement scheme registry name plus constructor kwargs.
    scheme: str
    workload: WorkloadParams
    spec: SystemSpec
    scheme_kwargs: KwargsTuple = ()
    #: Optional workload transforms (applied after generation, in order).
    alpha: Optional[float] = None
    size_scale: Optional[float] = None
    #: Closed-loop sampling parameters.
    num_samples: int = 200
    warmup: int = 0
    #: ``"closed"`` (paper model), ``"open"``, ``"fcfs"``, ``"incremental"``,
    #: ``"chaos"`` (open system under stochastic drive fail/repair).
    kind: str = "closed"
    #: Kind-specific parameters (policy, rate_per_hour, num_arrivals, …;
    #: for ``chaos`` also mtbf_h / mttr_h / distribution / shape — scalars,
    #: so existing kinds' cache keys are untouched).
    run_kwargs: KwargsTuple = ()
    #: Drives failed before serving (degraded-operation sweeps).
    failed_drives: Tuple[str, ...] = ()
    replicate: int = 0
    #: Series/variant label distinguishing points at the same axis value.
    label: Optional[str] = None
    #: Override for the seed-sharing cell; ``None`` = (axis, value, replicate).
    seed_group: Optional[Tuple[Any, ...]] = None
    #: Within-tape seek-planner name, a key of ``SEEK_PLANNERS`` (``None``
    #: = default ``greedy-sweep``).  A dataclass field, so it participates in
    #: :meth:`cache_key` — points never alias across planners.
    seek_planner: Optional[str] = None
    #: Redundancy spec string (``"r=2"`` / ``"k=4,n=6"``; ``None`` = the
    #: scheme unwrapped).  A dataclass field for the same reason: an r=2
    #: point can never alias an r=1 (or unwrapped) point in the cache.
    redundancy: Optional[str] = None

    def group(self) -> Tuple[Any, ...]:
        return (
            self.seed_group
            if self.seed_group is not None
            else (self.axis, self.value, self.replicate)
        )

    def cache_key(self, seed: int) -> str:
        """Content key over the full point description + derived seed."""
        return content_key({"point": self, "seed": seed})


def spawn_seed(root_seed: int, group: Sequence[Any]) -> int:
    """Derive a point seed from ``root_seed``, stable in the seed group.

    This is ``SeedSequence(root_seed).spawn()`` with a *content-derived*
    spawn key: instead of a sequential child index (which would make seeds
    depend on how many points a sweep has and in what order they were
    expanded), the key is the SHA-256 of the group's canonical JSON.  Two
    sweeps that share an axis cell therefore agree on its seed, and
    adding/removing points never reseeds the others.
    """
    digest = hashlib.sha256(canonical_json(list(group)).encode("utf-8")).digest()
    spawn_key = tuple(
        int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4)
    )
    sequence = np.random.SeedSequence(entropy=root_seed, spawn_key=spawn_key)
    return int(sequence.generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class SweepSpec:
    """A named collection of points evaluated under one root seed."""

    name: str
    points: Tuple[PointSpec, ...]
    root_seed: int = 0

    def jobs(self) -> List[Tuple[PointSpec, int]]:
        """Points paired with their derived seeds, in declaration order."""
        return [(p, spawn_seed(self.root_seed, p.group())) for p in self.points]

    def __len__(self) -> int:
        return len(self.points)


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------

#: Per-process memo of generated workloads: points of one sweep often share
#: the workload (e.g. the m-sweep at one alpha), and regeneration is a
#: noticeable fraction of a small point's cost.  Keyed by canonical JSON of
#: the generation parameters; bounded to stay small under long sweeps.
_WORKLOAD_MEMO: Dict[str, Any] = {}
_WORKLOAD_MEMO_MAX = 16


def _point_workload(point: PointSpec):
    key = canonical_json(
        {"params": point.workload, "alpha": point.alpha, "scale": point.size_scale}
    )
    workload = _WORKLOAD_MEMO.get(key)
    if workload is None:
        workload = generate_workload(point.workload)
        if point.alpha is not None:
            workload = workload.with_zipf_alpha(point.alpha)
        if point.size_scale is not None:
            workload = workload.with_scaled_sizes(point.size_scale)
        if len(_WORKLOAD_MEMO) >= _WORKLOAD_MEMO_MAX:
            _WORKLOAD_MEMO.clear()
        _WORKLOAD_MEMO[key] = workload
    return workload


def evaluate_point(point: PointSpec, seed: int):
    """Evaluate one point to its result object (runs in a worker process).

    Returns an :class:`~repro.sim.EvaluationResult` for ``closed`` /
    ``incremental`` points, an :class:`~repro.sim.OpenSystemResult` for
    ``open`` points, and a :class:`~repro.sim.QueueingResult` for ``fcfs``
    points — all plain picklable dataclasses.
    """
    from ..placement import make_scheme
    from ..sim import SimulationSession

    workload = _point_workload(point)
    run_kwargs = dict(point.run_kwargs)

    if point.kind == "incremental":
        if point.redundancy:
            raise ValueError(
                "redundancy is not supported for incremental points (epoch "
                "reveal already rewrites layouts; wrap the final placement "
                "instead)"
            )
        session = _incremental_session(point, workload, run_kwargs)
    else:
        scheme = make_scheme(point.scheme, **dict(point.scheme_kwargs))
        if point.redundancy:
            from ..redundancy import wrap_scheme

            scheme = wrap_scheme(scheme, point.redundancy)
        session = SimulationSession(
            workload, point.spec, scheme=scheme, seek_planner=point.seek_planner
        )

    if point.failed_drives:
        session.fail_drives(list(point.failed_drives))

    if point.kind in ("closed", "incremental"):
        return session.evaluate(
            num_samples=point.num_samples,
            seed=seed,
            warmup=point.warmup,
            # fail_drives must survive into evaluation: reset() would remount.
            reset=not point.failed_drives,
        )
    if point.kind == "open":
        opensys = session.open(policy=run_kwargs["policy"])
        _wire_progress(opensys, point)
        return opensys.run(
            run_kwargs["rate_per_hour"],
            num_arrivals=run_kwargs["num_arrivals"],
            seed=seed,
        )
    if point.kind == "chaos":
        from ..sim import DriveFaultProcess, TapeFailure

        # The fault streams get their own root derived from the point seed,
        # so arrival sampling stays paired with the non-chaos twin of this
        # cell while fault timing is decorrelated from it.
        fault_seed = spawn_seed(seed, ("faults",))
        faults = (
            DriveFaultProcess(
                mtbf_s=run_kwargs["mtbf_h"] * 3600.0,
                mttr_s=run_kwargs["mttr_h"] * 3600.0,
                distribution=run_kwargs.get("distribution", "exponential"),
                shape=run_kwargs.get("shape", 1.0),
            ),
        )
        # Media faults (A13): optional keys read with .get so every
        # pre-existing chaos point keeps its cache key AND its exact code
        # path — absent keys arm nothing and pass the historical kwargs.
        fail_tape = run_kwargs.get("fail_tape")
        if fail_tape is not None:
            faults = faults + (
                TapeFailure(fail_tape, at_s=run_kwargs.get("fail_tape_at_s", 0.0)),
            )
        open_kwargs: Dict[str, Any] = {}
        if run_kwargs.get("repair_policy") is not None:
            open_kwargs["repair_policy"] = run_kwargs["repair_policy"]
        if run_kwargs.get("read_selection") is not None:
            open_kwargs["read_selection"] = run_kwargs["read_selection"]
        opensys = session.open(
            policy=run_kwargs["policy"], faults=faults, fault_seed=fault_seed,
            **open_kwargs,
        )
        _wire_progress(opensys, point)
        return opensys.run(
            run_kwargs["rate_per_hour"],
            num_arrivals=run_kwargs["num_arrivals"],
            seed=seed,
        )
    if point.kind == "fcfs":
        from ..sim import simulate_fcfs_queue

        return simulate_fcfs_queue(
            session,
            run_kwargs["rate_per_hour"],
            num_arrivals=run_kwargs["num_arrivals"],
            seed=seed,
        )
    raise ValueError(f"unknown point kind {point.kind!r}")


def _incremental_session(point: PointSpec, workload, run_kwargs: Dict[str, Any]):
    """A2's epoch-revealed placements (strategy in ``run_kwargs``)."""
    from ..placement import IncrementalParallelBatch, split_into_epochs
    from ..sim import SimulationSession

    strategy = run_kwargs["strategy"]
    epochs = split_into_epochs(workload, run_kwargs["num_epochs"])
    placement = IncrementalParallelBatch(
        m=run_kwargs["m"], affinity=(strategy == "affinity")
    ).place_incrementally(workload, epochs, point.spec)
    return SimulationSession(
        workload, point.spec, placement=placement, seek_planner=point.seek_planner
    )


def point_label(point: PointSpec) -> str:
    """Human-readable point id for feeds, logs, and dashboards."""
    series = point.label if point.label is not None else point.scheme
    return f"{point.sweep}/{point.axis}={point.value}/{series}#r{point.replicate}"


#: Live-feed queue of this process (a Manager-queue proxy), installed by the
#: pool initializer (or directly for serial runs).  ``None`` = streaming off,
#: and every producer site pays one global read + None check.
_FEED_QUEUE = None

#: Emit one mid-point progress record per this many completed requests.
_FEED_EVERY = 20


def _install_feed(queue) -> None:
    global _FEED_QUEUE
    _FEED_QUEUE = queue


def _feed_emit(record: Dict[str, Any]) -> None:
    queue = _FEED_QUEUE
    if queue is None:
        return
    try:
        queue.put_nowait(record)
    except Exception:  # noqa: BLE001 - a dead feed must not kill the point
        pass


def _wire_progress(opensys, point: PointSpec) -> None:
    """Attach a throttled feed emitter to an open system's completion hook.

    Only when a feed is armed: the no-feed path leaves ``on_complete`` as
    ``None``, keeping the simulation hot loop allocation-free.
    """
    if _FEED_QUEUE is None:
        return
    label = point_label(point)
    completed = 0

    def hook(os_, outcome) -> None:
        nonlocal completed
        completed += 1
        if completed % _FEED_EVERY == 0:
            _feed_emit(
                {
                    "type": "progress",
                    "point": label,
                    "completed": completed,
                    "t_s": os_.env.now,
                }
            )

    opensys.on_complete = hook


#: One job as shipped to a worker: the point, its derived seed, its cache
#: key (``None`` when caching is off), the cache root, and the refresh flag.
_Task = Tuple[PointSpec, int, Optional[str], Optional[str], bool]

#: Per-process cache handles, keyed by root path (workers serve many jobs).
_WORKER_CACHES: Dict[str, ResultCache] = {}


def _run_job(task: _Task) -> Tuple[Any, Dict[str, Any], bool]:
    """Evaluate (or replay from cache) one job in the current process.

    Returns ``(result, snapshot, cached)``.  The snapshot is the point's
    mergeable telemetry (:func:`repro.obs.fleet.snapshot_of_result`) with
    this job's ``sweep.points`` / ``sweep.cache_hits`` /
    ``sweep.cache_misses`` contributions folded in — cache I/O happens
    *here*, in the worker, so fleet-level cache counters reflect every
    process's activity, and a big sweep reads the cache in parallel.

    The snapshot is a pure function of ``(point, result, cached)``: a
    cached replay produces byte-identical telemetry to the evaluation that
    populated it, which is what keeps fleet aggregates independent of
    worker count and cache state.
    """
    point, seed, key, cache_root, refresh = task
    label = point_label(point)
    _feed_emit({"type": "point_start", "point": label, "kind": point.kind})

    cache: Optional[ResultCache] = None
    if key is not None and cache_root is not None:
        cache = _WORKER_CACHES.get(cache_root)
        if cache is None:
            cache = _WORKER_CACHES.setdefault(cache_root, ResultCache(cache_root))

    result: Any = MISS
    if cache is not None and not refresh:
        result = cache.get(key)
    cached = result is not MISS
    if not cached:
        result = evaluate_point(point, seed)
        if cache is not None:
            cache.put(key, result)

    snapshot = snapshot_of_result(
        result,
        point_meta={
            "sweep": point.sweep,
            "axis": point.axis,
            "value": point.value,
            "scheme": point.scheme,
            "label": point_label(point),
            "kind": point.kind,
            "replicate": point.replicate,
            "cached": cached,
        },
    )
    counters = snapshot["counters"]
    counters["sweep.points"] = counters.get("sweep.points", 0.0) + 1.0
    cache_counter = "sweep.cache_hits" if cached else "sweep.cache_misses"
    counters[cache_counter] = counters.get(cache_counter, 0.0) + 1.0

    _feed_emit(
        {
            "type": "point_done",
            "point": label,
            "cached": cached,
            "completed": counters.get("requests.completed", 0.0),
        }
    )
    return result, snapshot, cached


# ---------------------------------------------------------------------------
# Engine
# ---------------------------------------------------------------------------


def resolve_workers(workers: Optional[int] = None) -> int:
    """Explicit argument, else ``$REPRO_WORKERS``, else 1 (serial)."""
    if workers is None:
        workers = int(os.environ.get("REPRO_WORKERS", "1") or "1")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return workers


@dataclass(frozen=True)
class EngineOptions:
    """How a sweep executes — never *what* it computes.

    ``workers=None`` defers to ``$REPRO_WORKERS`` (default 1);
    ``cache_dir=None`` disables the on-disk cache unless
    ``$REPRO_CACHE_DIR`` is set; ``refresh=True`` ignores existing entries
    but still stores fresh results.  ``feed``/``on_feed`` arm the live
    telemetry stream for callers (like the CLI) that reach
    :func:`run_sweep` through an experiment wrapper and cannot pass the
    feed positionally.
    """

    workers: Optional[int] = None
    cache_dir: Optional[str] = None
    refresh: bool = False
    feed: Optional["FleetFeed"] = field(default=None, compare=False, repr=False)
    on_feed: Optional[Callable[[Dict[str, Any]], None]] = field(
        default=None, compare=False, repr=False
    )

    @classmethod
    def from_env(cls) -> "EngineOptions":
        return cls(cache_dir=os.environ.get("REPRO_CACHE_DIR") or None)


@dataclass(frozen=True)
class PointResult:
    """One evaluated point: spec, derived seed, result, provenance."""

    point: PointSpec
    seed: int
    result: Any
    cached: bool = False

    def matches(self, **filters: Any) -> bool:
        for name, wanted in filters.items():
            if getattr(self.point, name) != wanted:
                return False
        return True


@dataclass
class SweepResult:
    """All point results of one sweep run, plus execution statistics."""

    spec: SweepSpec
    results: List[PointResult]
    stats: Dict[str, Any] = field(default_factory=dict)
    registry: Optional[MetricsRegistry] = None
    #: Merged fleet telemetry: every worker's counters, gauges, histograms
    #: and latency digests folded order-insensitively into one registry.
    fleet: Optional[FleetRegistry] = None

    def __iter__(self) -> Iterator[PointResult]:
        return iter(self.results)

    def __len__(self) -> int:
        return len(self.results)

    def select(self, **filters: Any) -> List[PointResult]:
        """Point results whose spec fields equal the given filters."""
        return [r for r in self.results if r.matches(**filters)]

    def one(self, **filters: Any):
        """The unique matching point's *result object* (raises otherwise)."""
        matching = self.select(**filters)
        if len(matching) != 1:
            raise KeyError(
                f"{len(matching)} points match {filters!r} in sweep "
                f"{self.spec.name!r} (expected exactly 1)"
            )
        return matching[0].result


def run_sweep(
    spec: SweepSpec,
    options: Optional[EngineOptions] = None,
    registry: Optional[MetricsRegistry] = None,
    on_result: Optional[Callable[[PointResult], None]] = None,
    feed: Optional[FleetFeed] = None,
    on_feed: Optional[Callable[[Dict[str, Any]], None]] = None,
) -> SweepResult:
    """Execute every point of ``spec``; return results in point order.

    ``on_result`` (e.g. a progress callback or debug hook) always runs in
    the parent process, so it may be any callable — picklability of hooks
    never forces a serial run.  Worker processes execute only
    :func:`_run_job` on pure-data jobs (cache lookup + evaluation +
    telemetry snapshot); if those jobs (or the pool itself) cannot be
    shipped, the engine degrades to in-process serial execution and records
    ``fallback: "serial"`` in the stats.

    ``feed`` arms live streaming: workers emit point lifecycle and
    mid-point progress records into the feed's queue, and the parent drains
    them to ``on_feed`` while futures are still pending.  Without a feed,
    nothing is allocated and workers pay one global-read + None check per
    emit site.
    """
    options = options or EngineOptions.from_env()
    if feed is None:
        feed = options.feed
    if on_feed is None:
        on_feed = options.on_feed
    workers = resolve_workers(options.workers)
    registry = registry if registry is not None else MetricsRegistry()
    cache = ResultCache(options.cache_dir) if options.cache_dir else None
    cache_root = str(cache.root) if cache is not None else None

    points_counter = registry.counter("sweep.points")
    hits_counter = registry.counter("sweep.cache_hits")
    misses_counter = registry.counter("sweep.cache_misses")

    start = perf_counter()
    jobs = spec.jobs()
    tasks: List[_Task] = [
        (
            point,
            seed,
            point.cache_key(seed) if cache is not None else None,
            cache_root,
            options.refresh,
        )
        for point, seed in jobs
    ]

    outputs, fallback = _execute(tasks, workers, feed=feed, on_feed=on_feed)

    fleet = FleetRegistry()
    results: List[PointResult] = []
    for (point, seed), (result, snapshot, cached) in zip(jobs, outputs):
        fleet.fold(snapshot)
        slot = PointResult(point, seed, result, cached=cached)
        points_counter.inc()
        (hits_counter if cached else misses_counter).inc()
        if on_result is not None:
            on_result(slot)
        results.append(slot)

    wall_s = perf_counter() - start
    stats: Dict[str, Any] = {
        "sweep": spec.name,
        "points": len(jobs),
        "cache_hits": sum(1 for r in results if r.cached),
        "cache_misses": sum(1 for r in results if not r.cached),
        "workers": workers,
        "wall_s": wall_s,
        "points_per_s": len(jobs) / wall_s if wall_s > 0 else float("inf"),
        "cache_dir": cache_root,
        "refresh": options.refresh,
    }
    if fallback:
        stats["fallback"] = fallback
    if feed is not None:
        stats["feed"] = True
    return SweepResult(
        spec=spec, results=results, stats=stats, registry=registry, fleet=fleet
    )


def _run_serial(
    tasks: List[_Task],
    feed: Optional[FleetFeed],
    on_feed: Optional[Callable[[Dict[str, Any]], None]],
) -> List[Tuple[Any, Dict[str, Any], bool]]:
    """In-process execution path (workers=1 and the pool-failure fallback)."""
    previous = _FEED_QUEUE
    if feed is not None:
        _install_feed(feed.queue)
    try:
        outputs = []
        for task in tasks:
            outputs.append(_run_job(task))
            _drain_feed(feed, on_feed)
        return outputs
    finally:
        _install_feed(previous)


def _drain_feed(
    feed: Optional[FleetFeed],
    on_feed: Optional[Callable[[Dict[str, Any]], None]],
) -> None:
    if feed is None:
        return
    records = feed.drain()
    if on_feed is not None:
        for record in records:
            on_feed(record)


def _execute(
    tasks: List[_Task],
    workers: int,
    feed: Optional[FleetFeed] = None,
    on_feed: Optional[Callable[[Dict[str, Any]], None]] = None,
) -> Tuple[List[Tuple[Any, Dict[str, Any], bool]], Optional[str]]:
    """Evaluate ``tasks``, fanning out over processes when ``workers > 1``.

    Returns ``(outputs_in_task_order, fallback_reason)`` where each output
    is ``(result, snapshot, cached)``.  Pool-level failures (unpicklable
    payloads, a broken pool) degrade to serial in-process execution;
    genuine evaluation errors propagate unchanged.
    """
    if workers <= 1 or len(tasks) <= 1:
        return _run_serial(tasks, feed, on_feed), None

    try:
        initializer = _install_feed if feed is not None else None
        initargs = (feed.queue,) if feed is not None else ()
        with ProcessPoolExecutor(
            max_workers=min(workers, len(tasks)),
            initializer=initializer,
            initargs=initargs,
        ) as pool:
            futures = [pool.submit(_run_job, task) for task in tasks]
            if feed is not None:
                # Drain the live feed while points are still running, so
                # progress streams mid-point instead of arriving at the end.
                from concurrent.futures import wait as futures_wait

                not_done = set(futures)
                while not_done:
                    _, not_done = futures_wait(not_done, timeout=0.2)
                    _drain_feed(feed, on_feed)
            outputs = [f.result() for f in futures]
            _drain_feed(feed, on_feed)
            return outputs, None
    except (pickle.PicklingError, TypeError, AttributeError, BrokenProcessPool, OSError):
        # Non-picklable job payloads / a dead pool: degrade gracefully and
        # keep the results bit-identical (seeds are already fixed per job).
        return _run_serial(tasks, feed, on_feed), "serial"
