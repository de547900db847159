"""The sweep-path performance ledger: one workload, cold and warm, in one process.

A *pass* reproduces what a user pays for one cold sweep point, step by step
through the public entry points that
:func:`repro.experiments.parallel.evaluate_point` chains together:

1. ``generate_workload`` (plus the Fig. 6 ``with_zipf_alpha`` re-skew);
2. ``make_scheme(...)`` / ``redundancy.wrap_scheme`` and ``.place``;
3. ``SimulationSession(placement=...)`` (validate + catalog index);
4. ``session.evaluate`` or ``session.open(...).run``;
5. ``obs.fleet.snapshot_of_result``;
6. ``ResultCache.put`` into a private cache directory.

It then replays the same points through ``run_sweep`` against that cache
(every point a hit: the warm sweep point) and checks the outputs.  Host
times are CPU time of this process (``time.process_time``); end-to-end ones
are reported in reference seconds, divided by the host's slowdown as
measured by :func:`reference_sample`.  ``sim_*`` values are simulated
quantities and depend on the seed only.

The benchmark is a closed loop over sweep points: one pass at a time, the
next starting when the previous one (and its checks) finished.  The
open-system workloads' arrivals are Poisson in *simulated* time, so there is
no generator that could run late on the host.
"""

from __future__ import annotations

import gc
import pickle
import resource
import shutil
import statistics
import tempfile
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.experiments.cache import ResultCache
from repro.experiments.parallel import (
    EngineOptions,
    PointSpec,
    SweepSpec,
    point_label,
    run_sweep,
    spawn_seed,
)
from repro.experiments.runner import ExperimentSettings
from repro.obs.fleet import snapshot_of_result
from repro.placement import make_scheme
from repro.redundancy import wrap_scheme
from repro.sim import DriveFaultProcess, SimulationSession, TapeFailure
from repro.workload import generate_workload

CPU = time.process_time

#: Plain ``--seed n`` values live below this offset; ``--held-out`` seeds
#: live at or above it, so a held-out run never reuses a tuning seed.
HELD_OUT_OFFSET = 2**32

#: CPU seconds of one :func:`reference_sample` on the 2-core VM this
#: benchmark was built on, in its fast state.  End-to-end host times are
#: reported in these reference seconds (see :func:`run`).
REFERENCE_S = 0.026


def reference_sample() -> float:
    """CPU seconds of a fixed piece of Python work: build 20k small tuples,
    pickle and unpickle them, index them in a dict.

    It allocates and walks a few MB like the simulator's result handling
    does; a purely CPU-bound loop tracked the memory-heavy ``open-knee``
    passes worse (per-pass correlation 0.52 against 0.60).  The work
    belongs to the benchmark, so no change to the package under test can
    make it faster or slower; only the host's speed moves it.
    """
    t0 = CPU()
    rows = [(i, i * 0.5, str(i & 255), (i, i + 1)) for i in range(20000)]
    copy = pickle.loads(pickle.dumps(rows, protocol=pickle.HIGHEST_PROTOCOL))
    index = {row[0]: row for row in copy}
    elapsed = CPU() - t0
    del rows, copy, index
    return elapsed


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: which sweep point(s) a pass evaluates."""

    name: str
    scale: str
    #: ``PointSpec.kind``: ``closed``, ``open`` or ``chaos``.
    kind: str
    #: (registry name, constructor kwargs) per placed scheme.
    schemes: Tuple[Tuple[str, Tuple], ...]
    alpha: Optional[float] = None
    redundancy: Optional[str] = None
    run_kwargs: Tuple[Tuple[str, Any], ...] = ()
    #: chaos only: the busiest tape (most bytes placed) is lost at this time.
    fail_busiest_at_s: Optional[float] = None
    repair_policy: Optional[str] = None
    #: Independent archives (catalog + placement + point) per pass.  A
    #: catalog's dispatcher cost under repair differs by up to 1.3x from
    #: the next catalog's, so chaos-repair averages three.
    archives: int = 1

    def settings(self, seed: int, archive: int = 0) -> ExperimentSettings:
        """The seed draws the archive (object sizes, request membership and
        hence the placement).  Arrival and fault streams derive from the
        experiments' fixed evaluation seed, so every seed sees the same
        traffic shape; letting the seed also redraw the traffic made the
        near-saturation sojourns vary by over 20% between seeds."""
        if archive:
            seed = spawn_seed(seed, ("archive", archive))
        return ExperimentSettings(scale=self.scale, workload_seed=seed)


_PARALLEL_BATCH = ("parallel_batch", (("m", 4),))

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        # Fig. 6 base cell: placement is over half the pass and the
        # open-system dispatcher is never entered.  Moves with placement and
        # catalog gains; bypasses dispatch.
        Workload(
            name="paper-closed",
            scale="paper",
            kind="closed",
            schemes=(
                _PARALLEL_BATCH,
                ("object_probability", ()),
                ("cluster_probability", ()),
            ),
            alpha=0.3,
        ),
        # Near saturation (utilization ~0.95): the DES kernel, drive service
        # and seek planning dominate.  Moves with kernel and dispatch gains;
        # placement gains show only in setup_s.
        Workload(
            name="open-knee",
            scale="paper",
            kind="open",
            schemes=(_PARALLEL_BATCH,),
            run_kwargs=(
                ("num_arrivals", 600),
                ("policy", "concurrent"),
                ("rate_per_hour", 8.0),
            ),
        ),
        # Repair writes share drives with user reads, redundancy placement
        # runs its anti-affinity rules, and the fault paths the other two
        # skip are taken; the arrival backlog loads the dispatcher.
        Workload(
            name="chaos-repair",
            scale="small",
            kind="chaos",
            schemes=(_PARALLEL_BATCH,),
            redundancy="r=2",
            # A13's churn and repair parameters at a 40/h arrival rate.
            run_kwargs=(
                ("mtbf_h", 4.0),
                ("mttr_h", 0.5),
                ("num_arrivals", 100),
                ("policy", "concurrent"),
                ("rate_per_hour", 40.0),
            ),
            fail_busiest_at_s=900.0,
            repair_policy="fair-share",
            archives=3,
        ),
    )
}


# ---------------------------------------------------------------------------
# Metric catalogue: name -> (unit, better)
# ---------------------------------------------------------------------------

END_TO_END: Dict[str, Tuple[str, str]] = {
    "setup_s": ("s", "lower"),
    "point_s": ("s", "lower"),
    "requests_per_s": ("1/s", "higher"),
    "warm_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "sim_bandwidth_mb_s": ("MB/s", "higher"),
    "sim_availability": ("fraction", "higher"),
}

#: End-to-end host-time metrics: reported as their mean over the run's passes.
HOST_TIMES = ("setup_s", "point_s", "requests_per_s", "warm_s")

PER_LAYER: Dict[str, Tuple[str, str]] = {
    "workload.generate_s": ("s", "lower"),
    "placement.place_s.parallel_batch": ("s", "lower"),
    "placement.place_s.object_probability": ("s", "lower"),
    "placement.place_s.cluster_probability": ("s", "lower"),
    "placement.cluster_s": ("s", "lower"),
    "placement.zigzag_s": ("s", "lower"),
    "placement.zigzag_calls": ("count", "lower"),
    "placement.organ_pipe_s": ("s", "lower"),
    "placement.refine_s": ("s", "lower"),
    "placement.validate_s": ("s", "lower"),
    "redundancy.place_s": ("s", "lower"),
    "catalog.index_s": ("s", "lower"),
    "sim.serve_s": ("s", "lower"),
    "sim.closed_request_s": ("s", "lower"),
    "des.events": ("count", "lower"),
    "des.events_per_s": ("1/s", "higher"),
    "des.events_per_request": ("count", "lower"),
    "sim.seek_plan_s": ("s", "lower"),
    "sim.seek_plans": ("count", "lower"),
    "sim.sojourn_p50_s": ("s", "lower"),
    "sim.sojourn_p95_s": ("s", "lower"),
    "sim.peak_in_flight": ("count", "lower"),
    "sim.robot_grants": ("count", "lower"),
    "repair.rebuild_jobs": ("count", "lower"),
    "repair.members_rebuilt": ("count", "lower"),
    "repair.backlog_s": ("s", "lower"),
    "obs.snapshot_s": ("s", "lower"),
    "cache.put_s": ("s", "lower"),
    "cache.get_s": ("s", "lower"),
    "cache.entry_mb": ("MB", "lower"),
    "cache.hit_ratio": ("fraction", "higher"),
    "gc.pause_s": ("s", "lower"),
    "gc.collections": ("count", "lower"),
    "trace.overhead_frac": ("fraction", "lower"),
    "point.untimed_s": ("s", "lower"),
    "share.placement": ("fraction", "lower"),
    "share.serve": ("fraction", "lower"),
}


class CheckFailed(Exception):
    """An output check failed: the pass counts as an error."""


# ---------------------------------------------------------------------------
# Layer timers (traced passes only)
# ---------------------------------------------------------------------------


class LayerTimers:
    """CPU time and call counts at layer boundaries, by wrapping public names.

    Wrappers are installed for one traced pass and removed afterwards, so
    untraced passes run the unmodified code.  Nothing is timed per event.
    """

    def __init__(self) -> None:
        self.s: Dict[str, float] = {}
        self.n: Dict[str, int] = {}
        self._gc_start = 0.0

    def reset(self) -> None:
        self.s.clear()
        self.n.clear()

    def add(self, name: str, seconds: float) -> None:
        self.s[name] = self.s.get(name, 0.0) + seconds
        self.n[name] = self.n.get(name, 0) + 1

    def timed(self, name: str, fn: Callable) -> Callable:
        add = self.add

        def wrapper(*args, **kwargs):
            t0 = CPU()
            try:
                return fn(*args, **kwargs)
            finally:
                add(name, CPU() - t0)

        return wrapper

    def _redundant_place(self, fn: Callable) -> Callable:
        """``redundancy.place_s``: the wrapped place minus its inner place."""
        s, add = self.s, self.add

        def inner_total() -> float:
            return sum(v for k, v in s.items() if k.startswith("placement.place_s."))

        def wrapper(*args, **kwargs):
            t0, inner0 = CPU(), inner_total()
            try:
                return fn(*args, **kwargs)
            finally:
                add("redundancy.place_s", CPU() - t0 - (inner_total() - inner0))

        return wrapper

    def _env_run(self, fn: Callable) -> Callable:
        add = self.add

        def wrapper(env, *args, **kwargs):
            before = env.events_processed
            try:
                return fn(env, *args, **kwargs)
            finally:
                add("des.events", env.events_processed - before)

        return wrapper

    def _gc_callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = CPU()
        else:
            self.add("gc.pause_s", CPU() - self._gc_start)

    def _targets(self) -> List[Tuple[Any, str, Callable]]:
        import repro.placement.parallel_batch as parallel_batch
        from repro.des import Environment
        from repro.placement import (
            ClusterProbabilityPlacement,
            ObjectProbabilityPlacement,
            ParallelBatchPlacement,
            PlacementResult,
        )
        from repro.redundancy import ErasureCodedPlacement, ReplicatedPlacement
        from repro.sim.seekplanner import resolve_seek_planner

        t = self.timed
        targets = [
            (parallel_batch, "cluster_objects", lambda f: t("placement.cluster_s", f)),
            (parallel_batch, "zigzag_assign", lambda f: t("placement.zigzag_s", f)),
            (
                parallel_batch,
                "clustered_organ_pipe_extents",
                lambda f: t("placement.organ_pipe_s", f),
            ),
            (parallel_batch, "refine_sublists", lambda f: t("placement.refine_s", f)),
            (PlacementResult, "validate", lambda f: t("placement.validate_s", f)),
            (PlacementResult, "apply_to", lambda f: t("catalog.index_s", f)),
            (ReplicatedPlacement, "place", self._redundant_place),
            (ErasureCodedPlacement, "place", self._redundant_place),
            (SimulationSession, "serve", lambda f: t("sim.closed_request_s", f)),
            (Environment, "run", self._env_run),
            (
                type(resolve_seek_planner(None)),
                "plan",
                lambda f: t("sim.seek_plan_s", f),
            ),
            (ResultCache, "get", lambda f: t("cache.get_s", f)),
        ]
        for cls in (
            ParallelBatchPlacement,
            ObjectProbabilityPlacement,
            ClusterProbabilityPlacement,
        ):
            targets.append(
                (cls, "place", lambda f, n=cls.name: t(f"placement.place_s.{n}", f))
            )
        return targets

    @contextmanager
    def installed(self):
        saved = []
        try:
            for owner, attr, make in self._targets():
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, make(original))
            gc.callbacks.append(self._gc_callback)
            yield self
        finally:
            if self._gc_callback in gc.callbacks:
                gc.callbacks.remove(self._gc_callback)
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


class _Segments:
    """Contiguous CPU-time segments of one pass (always on, cheap)."""

    def __init__(self) -> None:
        self.s: Dict[str, float] = {}
        self._t = CPU()

    def lap(self, name: str) -> None:
        now = CPU()
        self.s[name] = self.s.get(name, 0.0) + now - self._t
        self._t = now


# ---------------------------------------------------------------------------
# One pass
# ---------------------------------------------------------------------------


@dataclass
class PassOutcome:
    #: End-to-end host times of this pass.
    segments: Dict[str, float]
    #: Simulated values: identical in every pass of a run.
    sim: Dict[str, float]
    #: Per-layer values (traced passes only).
    layers: Dict[str, float] = field(default_factory=dict)


def _busiest_tape(session: SimulationSession) -> str:
    """A13's doomed cartridge: the tape with the most bytes placed."""
    return str(max(session.system.all_tapes(), key=lambda t: (t.used_mb, t.id)).id)


def _serve(session: SimulationSession, point: PointSpec, seed: int):
    """Step 4, exactly as ``evaluate_point`` runs it for ``point.kind``."""
    rk = dict(point.run_kwargs)
    if point.kind == "closed":
        return session.evaluate(
            num_samples=point.num_samples, seed=seed, warmup=point.warmup, reset=True
        )
    open_kwargs: Dict[str, Any] = {}
    if point.kind == "chaos":
        faults = (
            DriveFaultProcess(mtbf_s=rk["mtbf_h"] * 3600.0, mttr_s=rk["mttr_h"] * 3600.0),
            TapeFailure(rk["fail_tape"], at_s=rk["fail_tape_at_s"]),
        )
        open_kwargs = dict(
            faults=faults,
            fault_seed=spawn_seed(seed, ("faults",)),
            repair_policy=rk["repair_policy"],
        )
    opensys = session.open(policy=rk["policy"], **open_kwargs)
    return opensys.run(rk["rate_per_hour"], num_arrivals=rk["num_arrivals"], seed=seed)


def _point_meta(point: PointSpec) -> Dict[str, Any]:
    """The ``point_meta`` that ``run_sweep``'s jobs attach to a cold point."""
    return {
        "sweep": point.sweep,
        "axis": point.axis,
        "value": point.value,
        "scheme": point.scheme,
        "label": point_label(point),
        "kind": point.kind,
        "replicate": point.replicate,
        "cached": False,
    }


def cold_pass(wl: Workload, seed: int, cache: ResultCache):
    """Steps 1-6 for every point of the workload.

    Returns ``(segments, sweep, jobs)``: CPU seconds per step, the points
    as a :class:`SweepSpec` for the warm replay, and one
    ``(point, point_seed, result, workload)`` tuple per point.
    """
    seg = _Segments()
    jobs = []
    for archive in range(wl.archives):
        settings = wl.settings(seed, archive)
        spec = settings.spec()
        seg.lap("untimed")
        workload = generate_workload(settings.workload_params)
        if wl.alpha is not None:
            workload = workload.with_zipf_alpha(wl.alpha)
        seg.lap("generate")
        for name, kwargs in wl.schemes:
            scheme = make_scheme(name, **dict(kwargs))
            if wl.redundancy:
                scheme = wrap_scheme(scheme, wl.redundancy)
            seg.lap("untimed")
            placement = scheme.place(workload, spec)
            seg.lap("place")
            session = SimulationSession(workload, spec, placement=placement)
            seg.lap("session")
            run_kwargs = wl.run_kwargs
            if wl.fail_busiest_at_s is not None:
                run_kwargs = run_kwargs + (
                    ("fail_tape", _busiest_tape(session)),
                    ("fail_tape_at_s", wl.fail_busiest_at_s),
                    ("repair_policy", wl.repair_policy),
                )
            point = PointSpec(
                sweep="perfbench",
                axis="workload",
                value=wl.name,
                scheme=name,
                scheme_kwargs=kwargs,
                workload=settings.workload_params,
                spec=spec,
                alpha=wl.alpha,
                num_samples=settings.samples,
                kind=wl.kind,
                run_kwargs=run_kwargs,
                replicate=archive,
                redundancy=wl.redundancy,
            )
            point_seed = spawn_seed(settings.eval_seed, point.group())
            seg.lap("untimed")
            result = _serve(session, point, point_seed)
            seg.lap("serve")
            snapshot_of_result(result, point_meta=_point_meta(point))
            seg.lap("snapshot")
            cache.put(point.cache_key(point_seed), result)
            seg.lap("put")
            jobs.append((point, point_seed, result, workload))
    sweep = SweepSpec(
        name="perfbench", points=tuple(job[0] for job in jobs), root_seed=settings.eval_seed
    )
    return seg.s, sweep, jobs


def warm_replay(sweep: SweepSpec, cache_dir: Path, min_cpu_s: float = 0.2):
    """Replay ``sweep`` through ``run_sweep`` until ``min_cpu_s`` accumulates.

    Returns ``(mean seconds per replay, last SweepResult, replays)``.  A
    paper-closed replay takes milliseconds, so one sample would be noise.
    """
    options = EngineOptions(workers=1, cache_dir=str(cache_dir))
    samples: List[float] = []
    while True:
        t0 = CPU()
        res = run_sweep(sweep, options)
        samples.append(CPU() - t0)
        if sum(samples) >= min_cpu_s or len(samples) >= 50:
            return statistics.mean(samples), res, len(samples)


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def _equal(a: Any, b: Any, seen: set) -> bool:
    """Structural equality that also descends into objects without ``__eq__``
    (traces, registries, digests) and treats NaN as equal to NaN."""
    if a is b:
        return True
    if type(a) is not type(b):
        return False
    try:
        if a == b:
            return True
    except ValueError:  # numpy arrays: truth value of an elementwise compare
        pass
    if isinstance(a, float):
        return a != a and b != b
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b, equal_nan=a.dtype.kind == "f")
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_equal(v, b[k], seen) for k, v in a.items())
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(_equal(x, y, seen) for x, y in zip(a, b))
    if (id(a), id(b)) in seen:
        return True
    seen.add((id(a), id(b)))
    slots = [n for c in type(a).__mro__ for n in getattr(c, "__slots__", ())]
    state_a = [getattr(a, n, None) for n in slots] + [getattr(a, "__dict__", None)]
    state_b = [getattr(b, n, None) for n in slots] + [getattr(b, "__dict__", None)]
    return _equal(state_a, state_b, seen)


def _same_fields(cold: Any, warm: Any, label: str) -> None:
    """The warm result equals the cold one field for field."""
    if type(cold) is not type(warm):
        raise CheckFailed(f"{label}: warm result is {type(warm).__name__}")
    for f in fields(cold):
        if not _equal(getattr(cold, f.name), getattr(warm, f.name), set()):
            raise CheckFailed(f"{label}: warm field {f.name!r} differs from cold")


def _check_delivery(point: PointSpec, workload, result, label: str) -> int:
    """Arrivals complete or abort exactly once; completed ones deliver their
    request's bytes.  Returns the number of completed (non-aborted) requests.
    """
    catalog = workload.catalog
    size_of = {r.id: r.total_size_mb(catalog) for r in workload.requests}
    if point.kind == "closed":
        served = result.samples
        if len(served) != point.num_samples:
            raise CheckFailed(f"{label}: {len(served)} of {point.num_samples} samples")
        for m in served:
            if m.aborted or abs(m.size_mb - size_of[m.request_id]) > 1e-6 * m.size_mb:
                raise CheckFailed(f"{label}: request {m.request_id} delivered {m.size_mb} MB")
        return len(served)

    arrivals = dict(point.run_kwargs)["num_arrivals"]
    counters = result.registry.counters
    aborted = sum(1 for r in result.records if r.aborted)
    completed = len(result.records) - aborted
    if not (
        len(result.records) == len(result.metrics) == arrivals
        and counters["requests.arrived"].value == arrivals
        and counters["requests.completed"].value == arrivals
        and counters["requests.aborted"].value == aborted
    ):
        raise CheckFailed(f"{label}: arrivals do not complete or abort exactly once")
    for record, m in zip(result.records, result.metrics):
        if record.aborted != m.aborted or record.request_id != m.request_id:
            raise CheckFailed(f"{label}: record/metrics mismatch for {record.request_id}")
        if not m.aborted and abs(m.size_mb - size_of[m.request_id]) > 1e-6 * m.size_mb:
            raise CheckFailed(f"{label}: request {m.request_id} delivered {m.size_mb} MB")
    # Bytes the drives actually moved, from the run's transfer spans (the
    # open system traces by default).  Arrival tokens number the arrivals in
    # order, as ``records`` are sorted; repair traffic uses negative tokens.
    roots: Dict[int, int] = {}
    moved: Dict[int, float] = {}
    for span in result.spans():
        if span.name == "request":
            roots[span.request_id] = span.attrs["catalog_id"]
        elif span.name == "transfer" and not span.attrs.get("aborted"):
            token = span.request_id
            moved[token] = moved.get(token, 0.0) + catalog.size_of(span.attrs["object"])
    if sorted(roots) != list(range(arrivals)):
        raise CheckFailed(f"{label}: {len(roots)} request spans for {arrivals} arrivals")
    for token, catalog_id in roots.items():
        record = result.records[token]
        expected = size_of[catalog_id]
        if record.request_id != catalog_id:
            raise CheckFailed(f"{label}: arrival {token} is not request {catalog_id}")
        if not record.aborted and abs(moved.get(token, 0.0) - expected) > 1e-6 * expected:
            raise CheckFailed(
                f"{label}: arrival {token} moved {moved.get(token, 0.0)} of {expected} MB"
            )
    return completed


# ---------------------------------------------------------------------------
# Metrics of one pass
# ---------------------------------------------------------------------------


def _simulated(wl: Workload, jobs) -> Dict[str, float]:
    """Deterministic simulated values, pooled over parallel-batch points.

    ``sim_*`` are end-to-end metrics; the sojourn percentiles are per-layer
    only, because near saturation and under repair they differ by over 15%
    between seeds (the bandwidth mean and availability stay within 6%).
    The counts set the dispatcher's scan cost and the repair load.
    """
    results = [job[2] for job in jobs if job[0].scheme == "parallel_batch"]
    if wl.kind == "closed":
        served = [m for r in results for m in r.samples]
        return {
            "sim_bandwidth_mb_s": float(np.mean([m.bandwidth_mb_s for m in served])),
            "sim_availability": 1.0,
            "sim.sojourn_p50_s": float(np.percentile([m.response_s for m in served], 50)),
            "sim.sojourn_p95_s": float(np.percentile([m.response_s for m in served], 95)),
            "sim.peak_in_flight": 1.0,
        }
    served = [m for r in results for rec, m in zip(r.records, r.metrics) if not rec.aborted]
    repairs = [r.repair or {} for r in results]
    return {
        "sim_bandwidth_mb_s": float(np.mean([m.bandwidth_mb_s for m in served])),
        "sim_availability": statistics.mean(r.availability for r in results),
        "sim.sojourn_p50_s": float(np.percentile([m.response_s for m in served], 50)),
        "sim.sojourn_p95_s": float(np.percentile([m.response_s for m in served], 95)),
        "sim.peak_in_flight": float(max(r.peak_in_flight for r in results)),
        "sim.robot_grants": float(
            sum(
                v["grants"]
                for r in results
                for k, v in r.resources.items()
                if k.endswith(".robot")
            )
        ),
        "repair.rebuild_jobs": float(sum(r.get("rebuild_jobs", 0.0) for r in repairs)),
        "repair.members_rebuilt": float(sum(r.get("members_rebuilt", 0.0) for r in repairs)),
        "repair.backlog_s": float(sum(r.get("backlog_s", 0.0) for r in repairs)),
    }


def run_pass(wl: Workload, seed: int, cache_dir: Path, timers: Optional[LayerTimers]):
    """One cold pass, its warm replay and every output check.

    With ``timers`` the pass is traced: layer wrappers are installed for
    its duration and ``PassOutcome.layers`` holds the per-layer values.
    """
    cache = ResultCache(cache_dir)
    if timers is not None:
        timers.reset()
    with timers.installed() if timers is not None else nullcontext():
        t_start = CPU()
        segments, sweep, jobs = cold_pass(wl, seed, cache)
        point_s = CPU() - t_start
        warm_s, replay, replays = warm_replay(sweep, cache_dir)

    # -- checks (outside every timed region) -----------------------------
    if replay.stats["cache_hits"] != len(jobs):
        raise CheckFailed(
            f"warm replay hit {replay.stats['cache_hits']} of {len(jobs)} points"
        )
    completed = 0
    for (point, point_seed, cold, workload), warm in zip(jobs, replay.results):
        label = f"{wl.name}/{point.scheme}#{point.replicate}"
        if warm.seed != point_seed or warm.point != point:
            raise CheckFailed(f"{label}: replay point or seed differs")
        _same_fields(cold, warm.result, label)
        completed += _check_delivery(point, workload, cold, label)

    serve_s = segments.get("serve", 0.0)
    outcome = PassOutcome(
        segments={
            "setup_s": sum(segments.get(k, 0.0) for k in ("generate", "place", "session")),
            "point_s": point_s,
            "requests_per_s": completed / serve_s,
            "warm_s": warm_s,
        },
        sim=_simulated(wl, jobs),
    )
    if timers is not None:
        layers = dict(timers.s)
        events = layers.get("des.events", 0.0)
        requests = sum(
            len(r.samples) if wl.kind == "closed" else len(r.records) for _, _, r, _ in jobs
        )
        layers.update(
            {
                "workload.generate_s": segments.get("generate", 0.0),
                "placement.zigzag_calls": float(timers.n.get("placement.zigzag_s", 0)),
                "sim.serve_s": serve_s,
                "des.events_per_s": events / serve_s,
                "des.events_per_request": events / requests,
                "sim.seek_plans": float(timers.n.get("sim.seek_plan_s", 0)),
                "obs.snapshot_s": segments.get("snapshot", 0.0),
                "cache.put_s": segments.get("put", 0.0),
                "cache.get_s": layers.get("cache.get_s", 0.0) / replays,
                "cache.entry_mb": sum(
                    f.stat().st_size for f in cache_dir.rglob("*.pkl")
                ) / 1e6,
                "cache.hit_ratio": replay.stats["cache_hits"] / len(jobs),
                "gc.collections": float(timers.n.get("gc.pause_s", 0)),
                "point.untimed_s": segments.get("untimed", 0.0)
                + (point_s - sum(segments.values())),
                "share.placement": segments.get("place", 0.0) / point_s,
                "share.serve": serve_s / point_s,
            }
        )
        outcome.layers = layers
    return outcome


# ---------------------------------------------------------------------------
# A whole run
# ---------------------------------------------------------------------------


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class RunReport:
    attempted: int
    #: Mean reference sample over the run divided by :data:`REFERENCE_S`:
    #: how much slower than its fast state the host ran.
    host_slowdown: float
    failed: int
    errors: List[str]
    #: metric -> its value in every successful pass that measured it.
    samples: Dict[str, List[float]]
    metrics: Dict[str, float]


def run(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    tmp_root: Path,
    min_passes: int = 4,
    log: Callable[[str], None] = lambda line: None,
) -> RunReport:
    """Measure ``workload`` pass by pass for about ``seconds`` of wall time.

    A new pass starts only while the previous pass's wall time still fits
    before the deadline (after ``min_passes``).  The first pass is a
    warm-up: it is checked but not timed, because a fresh process pays
    one-off costs there (first-pass ``point_s`` ran up to 1.5x the rest on
    ``open-knee``) that a sweep pays once, not per point.  Untraced runs
    report each host time's mean over the timed passes in reference
    seconds (divided by the run's host slowdown), plus the
    (pass-invariant) simulated values.  Traced runs alternate traced and
    untraced passes after the warm-up, at least two of each, and report
    per-layer medians over the traced passes plus ``trace.overhead_frac``:
    traced over untraced ``point_s``, both as means over passes.  A pass
    that raises or fails a check counts in ``failed`` and contributes no
    samples.
    """
    wl = WORKLOADS[workload]
    if trace:
        min_passes = max(min_passes, 5)
    tmp_root.mkdir(parents=True, exist_ok=True)
    cache_dir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=tmp_root))
    timers = LayerTimers() if trace else None
    samples: Dict[str, List[float]] = {}
    traced: Dict[str, List[float]] = {}
    errors: List[str] = []
    first_sim: Optional[Dict[str, float]] = None
    attempted = 0
    reference: List[float] = []
    deadline = time.monotonic() + seconds
    last_wall = 0.0
    try:
        while attempted < min_passes or time.monotonic() + last_wall <= deadline:
            gc.collect()
            reference.extend(reference_sample() for _ in range(3))
            traced_pass = timers is not None and attempted % 2 == 1
            attempted += 1
            started = time.monotonic()
            try:
                out = run_pass(wl, seed, cache_dir, timers if traced_pass else None)
                if first_sim is None:
                    first_sim = out.sim
                elif out.sim != first_sim:
                    raise CheckFailed("simulated values differ between passes")
            except Exception as exc:  # noqa: BLE001 - counted, reported, run continues
                errors.append(f"pass {attempted}: {type(exc).__name__}: {exc}")
                continue
            finally:
                last_wall = time.monotonic() - started
            log(
                f"pass {attempted}{' traced' if traced_pass else ''}"
                f"{' warm-up' if attempted == 1 else ''}: "
                f"point {out.segments['point_s']:.3f} s, setup "
                f"{out.segments['setup_s']:.3f} s, warm {out.segments['warm_s']:.4f} s"
            )
            if attempted == 1:
                continue
            into = traced if traced_pass else samples
            for k, v in {**out.segments, **out.layers}.items():
                into.setdefault(k, []).append(v)
        reference.extend(reference_sample() for _ in range(3))
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:  # another run's cache is still in there
            pass

    slowdown = statistics.mean(reference) / REFERENCE_S
    metrics: Dict[str, float] = {}
    if samples and (traced or not trace):
        # Host times are means over the timed passes, divided by how much
        # slower than its fast state the host ran during this run.  The
        # host's CPU speed switches between two levels about 1.5x apart,
        # for seconds to minutes at a time, so whole runs land in the slow
        # or the fast state; the reference sample, taken before every pass
        # and after the last, sees the same states.  A median over passes would
        # jump between the levels; the mean moves in proportion to the
        # share of slow time, which the reference measures.
        raw = {k: statistics.mean(samples[k]) for k in HOST_TIMES}
        metrics = {
            k: v * slowdown if END_TO_END[k][1] == "higher" else v / slowdown
            for k, v in raw.items()
        }
        metrics.update(first_sim)
        metrics["peak_rss_mb"] = peak_rss_mb()
        if trace:
            metrics["trace.overhead_frac"] = statistics.mean(traced["point_s"]) / raw["point_s"]
            metrics.update(
                {k: statistics.median(v) for k, v in traced.items() if k in PER_LAYER}
            )
        metrics = {k: metrics.get(k, 0.0) for k in (PER_LAYER if trace else END_TO_END)}
    return RunReport(
        attempted=attempted,
        host_slowdown=slowdown,
        failed=len(errors),
        errors=errors,
        samples={**samples, **{f"traced.{k}": v for k, v in traced.items()}},
        metrics=metrics,
    )
