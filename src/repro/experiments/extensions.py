"""Beyond-paper experiment drivers (A2–A10 of DESIGN.md's index).

These complement :mod:`repro.experiments.figures` (the paper's own
artifacts) with studies the paper motivates but does not run:

* A2 — incremental placement (the conclusion's open problem);
* A3 — queueing under a Poisson restore stream;
* A4 — disk-stage bandwidth (assumption-6 validation);
* A5 — object striping (the related-work baseline the paper declines);
* A10 — open-system scheduling: serial-FCFS vs concurrent in-flight requests;
* A11 — availability under stochastic drive fail/repair (fault injection).

Like the figure drivers, every driver expands to
:class:`~repro.experiments.parallel.PointSpec` jobs and runs through
:func:`~repro.experiments.parallel.run_sweep`, inheriting worker fan-out,
per-cell seed derivation, and the on-disk result cache.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

from ..sim import available_scheduling_policies, available_seek_planners
from .parallel import EngineOptions, PointSpec, SweepSpec, run_sweep
from .report import ExperimentTable
from .runner import (
    ExperimentSettings,
    default_settings,
)

__all__ = [
    "incremental",
    "queueing",
    "disk_stage",
    "striping",
    "robots",
    "degraded",
    "seek_model",
    "open_system",
    "availability",
    "seek_planning",
    "redundancy",
    "repair",
]


def _scheme_configs(m: int) -> List[Tuple[str, Tuple]]:
    return [
        ("parallel_batch", (("m", m),)),
        ("object_probability", ()),
        ("cluster_probability", ()),
    ]


def incremental(
    settings: Optional[ExperimentSettings] = None,
    num_epochs: int = 3,
    engine: Optional[EngineOptions] = None,
) -> ExperimentTable:
    """A2 — omniscient vs affinity-append vs naive-append placement."""
    settings = settings or default_settings()
    strategies = [
        ("omniscient re-placement", "omniscient"),
        ("affinity append", "affinity"),
        ("naive append", "naive"),
    ]
    points = []
    for label, strategy in strategies:
        common = dict(
            sweep="incremental",
            axis="strategy",
            value=label,
            workload=settings.workload_params,
            spec=settings.spec(),
            num_samples=settings.samples,
            seed_group=("incremental",),
            seek_planner=settings.seek_planner,
            # settings.redundancy deliberately not threaded: redundancy
            # wraps static placements, and A2's points replay epochs.
        )
        if strategy == "omniscient":
            points.append(
                PointSpec(
                    scheme="parallel_batch",
                    scheme_kwargs=(("m", settings.m),),
                    **common,
                )
            )
        else:
            points.append(
                PointSpec(
                    scheme="parallel_batch",
                    kind="incremental",
                    run_kwargs=(
                        ("m", settings.m),
                        ("num_epochs", num_epochs),
                        ("strategy", strategy),
                    ),
                    **common,
                )
            )
    spec = SweepSpec(name="incremental", points=tuple(points), root_seed=settings.eval_seed)
    res = run_sweep(spec, engine)

    table = ExperimentTable(
        "A2",
        f"Incremental placement over {num_epochs} reveal epochs",
        ["strategy", "bandwidth (MB/s)", "response (s)", "switches/req"],
    )
    bws = {}
    for label, _ in strategies:
        r = res.one(value=label)
        bws[label] = r.avg_bandwidth_mb_s
        table.add_row(
            label, r.avg_bandwidth_mb_s, r.avg_response_s, r.avg_switches_per_request
        )
    table.data["bandwidths"] = bws
    table.data["sweep"] = res.stats
    table.data["fleet"] = res.fleet
    table.notes.append(
        "paper (conclusion): optimal placement under periodic arrival with "
        "local knowledge 'remains to be solved' — this quantifies the gap"
    )
    return table


def queueing(
    settings: Optional[ExperimentSettings] = None,
    arrival_rates_per_hour: Sequence[float] = (1.0, 2.0, 4.0, 6.0),
    num_arrivals: int = 60,
    engine: Optional[EngineOptions] = None,
) -> ExperimentTable:
    """A3 — mean sojourn time vs Poisson restore arrival rate, FCFS."""
    settings = settings or default_settings()
    schemes = _scheme_configs(settings.m)
    points = tuple(
        PointSpec(
            sweep="queueing",
            axis="rate",
            value=rate,
            scheme=name,
            scheme_kwargs=kwargs,
            workload=settings.workload_params,
            spec=settings.spec(),
            kind="fcfs",
            run_kwargs=(("num_arrivals", num_arrivals), ("rate_per_hour", rate)),
            seek_planner=settings.seek_planner,
            redundancy=settings.redundancy,
        )
        for rate in arrival_rates_per_hour
        for name, kwargs in schemes
    )
    res = run_sweep(
        SweepSpec(name="queueing", points=points, root_seed=settings.eval_seed), engine
    )

    table = ExperimentTable(
        "A3",
        "Mean sojourn time (s) vs restore arrival rate (per hour), FCFS",
        ["arrivals/h"] + [name for name, _ in schemes] + ["pb utilization"],
    )
    series = {name: [] for name, _ in schemes}
    service = {}
    for rate in arrival_rates_per_hour:
        row = [rate]
        pb_util = 0.0
        for name, _ in schemes:
            result = res.one(value=rate, scheme=name)
            row.append(result.mean_sojourn_s)
            series[name].append(result.mean_sojourn_s)
            service.setdefault(name, result.mean_service_s)
            if name == "parallel_batch":
                pb_util = result.utilization
        row.append(pb_util)
        table.add_row(*row)
    table.data["series"] = series
    table.data["mean_service_s"] = service
    table.data["rates"] = list(arrival_rates_per_hour)
    table.data["sweep"] = res.stats
    table.data["fleet"] = res.fleet
    table.notes.append("beyond-paper extension: the paper's model has zero queueing time")
    return table


def disk_stage(
    settings: Optional[ExperimentSettings] = None,
    disk_caps_mb_s: Sequence[Optional[float]] = (320.0, 640.0, 1280.0, 1920.0, None),
    engine: Optional[EngineOptions] = None,
) -> ExperimentTable:
    """A4 — parallel-batch bandwidth vs the disk staging bandwidth cap."""
    settings = settings or default_settings()
    specs = {
        cap: dataclasses.replace(settings.spec(), disk_bandwidth_mb_s=cap)
        for cap in disk_caps_mb_s
    }
    points = tuple(
        PointSpec(
            sweep="disk",
            axis="disk_cap_mb_s",
            value=cap,
            scheme="parallel_batch",
            scheme_kwargs=(("m", settings.m),),
            workload=settings.workload_params,
            spec=specs[cap],
            num_samples=settings.samples,
            seek_planner=settings.seek_planner,
            redundancy=settings.redundancy,
        )
        for cap in disk_caps_mb_s
    )
    res = run_sweep(
        SweepSpec(name="disk", points=points, root_seed=settings.eval_seed), engine
    )
    table = ExperimentTable(
        "A4",
        "Parallel-batch bandwidth (MB/s) vs disk-stage bandwidth cap",
        ["disk cap (MB/s)", "admitted streams", "bandwidth (MB/s)"],
    )
    series = []
    for cap in disk_caps_mb_s:
        r = res.one(value=cap)
        series.append(r.avg_bandwidth_mb_s)
        spec = specs[cap]
        table.add_row(
            cap if cap is not None else "unlimited",
            spec.disk_streams if spec.disk_streams is not None else "all",
            r.avg_bandwidth_mb_s,
        )
    table.data["series"] = series
    table.data["caps"] = list(disk_caps_mb_s)
    table.data["sweep"] = res.stats
    table.data["fleet"] = res.fleet
    table.notes.append("assumption 6 of the paper holds once the disk admits all drives")
    return table


def striping(
    settings: Optional[ExperimentSettings] = None,
    stripe_widths: Sequence[int] = (2, 4, 8),
    min_stripe_mb: float = 1000.0,
    engine: Optional[EngineOptions] = None,
) -> ExperimentTable:
    """A5 — object striping vs non-striped placement (Sec.-2 claim)."""
    settings = settings or default_settings()
    variants: List[Tuple[str, str, Tuple]] = [
        ("parallel batch", "parallel_batch", (("m", settings.m),)),
        ("non-striped (object probability)", "object_probability", ()),
    ]
    variants += [
        (
            f"striped, width {w}",
            "striped",
            (("min_stripe_mb", min_stripe_mb), ("stripe_width", w)),
        )
        for w in stripe_widths
    ]
    points = tuple(
        PointSpec(
            sweep="striping",
            axis="variant",
            value=label,
            scheme=scheme,
            scheme_kwargs=kwargs,
            workload=settings.workload_params,
            spec=settings.spec(),
            num_samples=settings.samples,
            seed_group=("striping",),
            seek_planner=settings.seek_planner,
            redundancy=settings.redundancy,
        )
        for label, scheme, kwargs in variants
    )
    res = run_sweep(
        SweepSpec(name="striping", points=points, root_seed=settings.eval_seed), engine
    )
    table = ExperimentTable(
        "A5",
        "Object striping vs non-striped placement",
        ["scheme", "bandwidth (MB/s)", "transfer (s)", "switches/req", "response (s)"],
    )
    rows = {}
    for label, _, _ in variants:
        r = res.one(value=label)
        rows[label] = {
            "bandwidth": r.avg_bandwidth_mb_s,
            "transfer": r.avg_transfer_s,
            "switches": r.avg_switches_per_request,
            "response": r.avg_response_s,
        }
        table.add_row(
            label, r.avg_bandwidth_mb_s, r.avg_transfer_s,
            r.avg_switches_per_request, r.avg_response_s,
        )
    table.data["rows"] = rows
    table.data["stripe_widths"] = list(stripe_widths)
    table.data["sweep"] = res.stats
    table.data["fleet"] = res.fleet
    table.notes.append(
        "paper (Sec. 2): striping trades transfer time for synchronization/"
        "switch cost and 'may perform worse than non-striping'"
    )
    return table


def robots(
    settings: Optional[ExperimentSettings] = None,
    robot_counts: Sequence[int] = (1, 2, 4),
    engine: Optional[EngineOptions] = None,
) -> ExperimentTable:
    """A6 — relax assumption 5: multiple robot arms per library.

    The single arm serializes all mount/unmount work within a library, so
    switch-heavy schemes should gain the most from a second arm; schemes
    that rarely switch should barely notice.
    """
    settings = settings or default_settings()
    schemes = _scheme_configs(settings.m)
    base = settings.spec()
    points = tuple(
        PointSpec(
            sweep="robots",
            axis="robots_per_library",
            value=count,
            scheme=name,
            scheme_kwargs=kwargs,
            workload=settings.workload_params,
            spec=dataclasses.replace(
                base, library=dataclasses.replace(base.library, num_robots=count)
            ),
            num_samples=settings.samples,
            seek_planner=settings.seek_planner,
            redundancy=settings.redundancy,
        )
        for count in robot_counts
        for name, kwargs in schemes
    )
    res = run_sweep(
        SweepSpec(name="robots", points=points, root_seed=settings.eval_seed), engine
    )
    table = ExperimentTable(
        "A6",
        "Effective bandwidth (MB/s) vs robot arms per library",
        ["robots/library"] + [name for name, _ in schemes],
    )
    series = {name: [] for name, _ in schemes}
    for count in robot_counts:
        row = [count]
        for name, _ in schemes:
            bw = res.one(value=count, scheme=name).avg_bandwidth_mb_s
            row.append(bw)
            series[name].append(bw)
        table.add_row(*row)
    table.data["series"] = series
    table.data["robot_counts"] = list(robot_counts)
    table.data["sweep"] = res.stats
    table.data["fleet"] = res.fleet
    table.notes.append(
        "beyond-paper what-if: the paper's assumption 5 fixes one arm per library"
    )
    return table


def degraded(
    settings: Optional[ExperimentSettings] = None,
    failed_per_library: Sequence[int] = (0, 1, 2, 4),
    engine: Optional[EngineOptions] = None,
) -> ExperimentTable:
    """A8 — degraded operation: bandwidth with failed drives.

    Permanently fails the highest-numbered ``k`` drives of every library
    (for parallel batch these are switch drives first) and measures the
    surviving bandwidth.  Every byte must still be served.
    """
    settings = settings or default_settings()
    spec = settings.spec()
    schemes = _scheme_configs(settings.m)
    d = spec.library.num_drives
    points = []
    for k in failed_per_library:
        if k >= d:
            raise ValueError(f"cannot fail all {d} drives of a library")
        names = tuple(
            f"L{lib}.D{d - 1 - j}"
            for lib in range(spec.num_libraries)
            for j in range(k)
        )
        for name, kwargs in schemes:
            points.append(
                PointSpec(
                    sweep="degraded",
                    axis="failed_per_library",
                    value=k,
                    scheme=name,
                    scheme_kwargs=kwargs,
                    workload=settings.workload_params,
                    spec=spec,
                    num_samples=settings.samples,
                    failed_drives=names,
                    seek_planner=settings.seek_planner,
                    redundancy=settings.redundancy,
                )
            )
    res = run_sweep(
        SweepSpec(name="degraded", points=tuple(points), root_seed=settings.eval_seed),
        engine,
    )
    table = ExperimentTable(
        "A8",
        "Effective bandwidth (MB/s) with k failed drives per library",
        ["failed/library"] + [name for name, _ in schemes],
    )
    series = {name: [] for name, _ in schemes}
    for k in failed_per_library:
        row = [k]
        for name, _ in schemes:
            bw = res.one(value=k, scheme=name).avg_bandwidth_mb_s
            row.append(bw)
            series[name].append(bw)
        table.add_row(*row)
    table.data["series"] = series
    table.data["failed_per_library"] = list(failed_per_library)
    table.data["sweep"] = res.stats
    table.data["fleet"] = res.fleet
    table.notes.append(
        "beyond-paper: graceful degradation — all requested bytes are still "
        "served through the surviving drives"
    )
    return table


def seek_model(
    settings: Optional[ExperimentSettings] = None,
    startups_s: Sequence[float] = (0.0, 2.0, 5.0),
    engine: Optional[EngineOptions] = None,
) -> ExperimentTable:
    """A9 — robustness to the positioning model.

    The paper uses the pure linear locate model of Johnson & Miller; their
    measurements also show a constant per-positioning startup cost.  Adding
    it penalizes every seek equally; the scheme ranking should not move.
    """
    settings = settings or default_settings()
    schemes = _scheme_configs(settings.m)
    base = settings.spec()
    points = []
    for startup in startups_s:
        tape = dataclasses.replace(base.library.tape, locate_startup_s=startup)
        spec = dataclasses.replace(
            base, library=dataclasses.replace(base.library, tape=tape)
        )
        for name, kwargs in schemes:
            points.append(
                PointSpec(
                    sweep="seek_model",
                    axis="locate_startup_s",
                    value=startup,
                    scheme=name,
                    scheme_kwargs=kwargs,
                    workload=settings.workload_params,
                    spec=spec,
                    num_samples=settings.samples,
                    seek_planner=settings.seek_planner,
                    redundancy=settings.redundancy,
                )
            )
    res = run_sweep(
        SweepSpec(name="seek_model", points=tuple(points), root_seed=settings.eval_seed),
        engine,
    )
    table = ExperimentTable(
        "A9",
        "Effective bandwidth (MB/s) vs locate startup latency (affine model)",
        ["startup (s)"] + [name for name, _ in schemes] + ["winner"],
    )
    series = {name: [] for name, _ in schemes}
    winners = []
    for startup in startups_s:
        row = [startup]
        bws = {}
        for name, _ in schemes:
            bw = res.one(value=startup, scheme=name).avg_bandwidth_mb_s
            row.append(bw)
            series[name].append(bw)
            bws[name] = bw
        winner = max(bws, key=bws.get)
        winners.append(winner)
        row.append(winner)
        table.add_row(*row)
    table.data["series"] = series
    table.data["winners"] = winners
    table.data["startups_s"] = list(startups_s)
    table.data["sweep"] = res.stats
    table.data["fleet"] = res.fleet
    table.notes.append(
        "robustness check: the paper's linear positioning model is startup-free; "
        "adding an affine start cost must not change the scheme ranking"
    )
    return table


def open_system(
    settings: Optional[ExperimentSettings] = None,
    arrival_rates_per_hour: Sequence[float] = (2.0, 4.0, 8.0, 16.0),
    num_arrivals: int = 60,
    engine: Optional[EngineOptions] = None,
) -> ExperimentTable:
    """A10 — open-system scheduling: serial-FCFS vs concurrent requests.

    Same Poisson arrival stream, same placement, one shared clock; only the
    request-scheduling policy differs.  The concurrent policy overlaps
    in-flight requests across libraries and drives, so its sojourn-time
    advantage over serial FCFS grows with the offered load.
    """
    settings = settings or default_settings()
    policies = list(available_scheduling_policies())
    points = tuple(
        PointSpec(
            sweep="open_system",
            axis="rate",
            value=rate,
            scheme="parallel_batch",
            scheme_kwargs=(("m", settings.m),),
            workload=settings.workload_params,
            spec=settings.spec(),
            kind="open",
            run_kwargs=(
                ("num_arrivals", num_arrivals),
                ("policy", policy),
                ("rate_per_hour", rate),
            ),
            label=policy,
            # Policies at one rate share the seed: identical arrival streams.
            seek_planner=settings.seek_planner,
            redundancy=settings.redundancy,
        )
        for rate in arrival_rates_per_hour
        for policy in policies
    )
    res = run_sweep(
        SweepSpec(name="open_system", points=points, root_seed=settings.eval_seed),
        engine,
    )

    table = ExperimentTable(
        "A10",
        "Mean sojourn time (s) vs arrival rate: request-scheduling policies",
        ["arrivals/h"] + policies + ["speedup", "peak in flight"],
    )
    series: Dict[str, List[float]] = {policy: [] for policy in policies}
    peaks = []
    for rate in arrival_rates_per_hour:
        row = [rate]
        results = {p: res.one(value=rate, label=p) for p in policies}
        for policy in policies:
            row.append(results[policy].mean_sojourn_s)
            series[policy].append(results[policy].mean_sojourn_s)
        serial = results["serial-fcfs"].mean_sojourn_s
        concurrent = results["concurrent"].mean_sojourn_s
        peak = results["concurrent"].peak_in_flight
        peaks.append(peak)
        row.append(serial / concurrent if concurrent > 0 else float("nan"))
        row.append(peak)
        table.add_row(*row)
    table.data["series"] = series
    table.data["rates"] = list(arrival_rates_per_hour)
    table.data["peak_in_flight"] = peaks
    table.data["sweep"] = res.stats
    table.data["fleet"] = res.fleet
    table.notes.append(
        "beyond-paper extension: one persistent environment serves overlapping "
        "requests; serial-fcfs reproduces the A3 closed-loop model seed-for-seed"
    )
    return table


def availability(
    settings: Optional[ExperimentSettings] = None,
    mtbf_hours: Sequence[float] = (1.0, 2.0, 4.0, 10.0),
    mttr_hours: float = 0.5,
    arrival_rate_per_hour: float = 8.0,
    num_arrivals: int = 60,
    engine: Optional[EngineOptions] = None,
) -> ExperimentTable:
    """A11 — placement schemes under stochastic drive failures/repairs.

    Every drive runs an independent exponential fail/repair process whose
    MTBF sweeps over a decade while MTTR stays fixed; the three placement
    schemes serve the *same* Poisson arrival stream at each cell (schemes
    share the cell seed) with paired fault-timing substreams, so response
    time and availability differences isolate the placement decision.
    Parallel batch is differently fragile: a failed pinned drive forces
    batch-0 tapes through the switch drives (degraded parallel-batch mode)
    until repair restores the pinned mount.
    """
    settings = settings or default_settings()
    schemes = _scheme_configs(settings.m)
    points = tuple(
        PointSpec(
            sweep="availability",
            axis="mtbf_h",
            value=mtbf,
            scheme=scheme,
            scheme_kwargs=scheme_kwargs,
            workload=settings.workload_params,
            spec=settings.spec(),
            kind="chaos",
            run_kwargs=(
                ("mtbf_h", mtbf),
                ("mttr_h", mttr_hours),
                ("num_arrivals", num_arrivals),
                ("policy", "concurrent"),
                ("rate_per_hour", arrival_rate_per_hour),
            ),
            label=scheme,
            # Schemes at one MTBF share the seed: identical arrival streams
            # and identical per-drive fault-timing substreams.
            seek_planner=settings.seek_planner,
            redundancy=settings.redundancy,
        )
        for mtbf in mtbf_hours
        for scheme, scheme_kwargs in schemes
    )
    res = run_sweep(
        SweepSpec(name="availability", points=points, root_seed=settings.eval_seed),
        engine,
    )

    scheme_names = [name for name, _ in schemes]
    table = ExperimentTable(
        "A11",
        "Mean sojourn (s) and availability vs drive MTBF "
        f"(MTTR {mttr_hours} h, {arrival_rate_per_hour}/h arrivals)",
        ["MTBF (h)"]
        + [f"{s} sojourn" for s in scheme_names]
        + [f"{s} avail" for s in scheme_names]
        + ["aborted"],
    )
    sojourns: Dict[str, List[float]] = {s: [] for s in scheme_names}
    availabilities: Dict[str, List[float]] = {s: [] for s in scheme_names}
    aborted: List[int] = []
    for mtbf in mtbf_hours:
        results = {s: res.one(value=mtbf, label=s) for s in scheme_names}
        row: List[object] = [mtbf]
        for s in scheme_names:
            sojourns[s].append(results[s].mean_sojourn_s)
            row.append(results[s].mean_sojourn_s)
        for s in scheme_names:
            availabilities[s].append(results[s].availability)
            row.append(results[s].availability)
        aborted.append(sum(results[s].aborted_requests for s in scheme_names))
        row.append(aborted[-1])
        table.add_row(*row)
    table.data["series"] = sojourns
    table.data["availability"] = availabilities
    table.data["mtbf_hours"] = list(mtbf_hours)
    table.data["aborted"] = aborted
    table.data["sweep"] = res.stats
    table.data["fleet"] = res.fleet
    table.notes.append(
        "beyond-paper extension: stochastic fault injection "
        "(repro.sim.faults); availability = 1 - drive downtime / "
        "(drives x horizon); schemes at one MTBF share arrival and "
        "fault-timing streams"
    )
    return table


def redundancy(
    settings: Optional[ExperimentSettings] = None,
    levels: Sequence[str] = ("r=1", "k=2,n=3", "r=2"),
    mtbf_hours: float = 4.0,
    mttr_hours: float = 0.5,
    arrival_rate_per_hour: float = 8.0,
    num_arrivals: int = 60,
    engine: Optional[EngineOptions] = None,
) -> ExperimentTable:
    """A12 — availability/durability/sojourn vs redundancy level under churn.

    Parallel-batch placement is wrapped at each redundancy level
    (replication ``r=...`` or erasure ``k=...,n=...``) and serves the same
    Poisson stream under the same per-drive fail/repair churn as A11's
    fixed-MTBF cell: every level shares A11's ``("mtbf_h", mtbf, 0)``
    seed group, so the ``r=1`` level *is* A11's parallel-batch point
    seed-for-seed (pass-through wrapping is bit-identical) and differences
    across levels isolate redundancy.  Reported per level:

    * request availability — 1 − aborted/served (redundant dispatch falls
      back across failed drives, so this is where extra members pay off);
    * drive availability — A11's uptime metric, a placement-independent
      control column (the same fault streams hit every level);
    * analytic durability — P(≥ needed of n members available) with
      member unavailability MTTR/(MTBF+MTTR), the Aktas-Soljanin
      (arXiv:2312.10360) steady-state view of the same churn.

    Levels whose storage overhead (r, or n/k) cannot fit the system's
    capacity are skipped with a table note rather than failing the sweep
    (at the paper scale, utilization 0.56 rules out full 2x replication).
    """
    import math

    from ..redundancy import parse_redundancy
    from ..workload import generate_workload

    settings = settings or default_settings()
    spec = settings.spec()
    capacity_mb = (
        spec.num_libraries * spec.library.num_tapes * spec.library.tape.capacity_mb
    )
    data_mb = float(sum(generate_workload(settings.workload_params).catalog.sizes_mb))

    def overhead_of(level: str) -> float:
        parsed = parse_redundancy(level)
        if parsed["mode"] == "replicated":
            return float(parsed["r"])
        return parsed["n"] / parsed["k"]

    skipped: List[str] = []
    feasible: List[str] = []
    for level in levels:
        if data_mb * overhead_of(level) <= capacity_mb:
            feasible.append(level)
        else:
            skipped.append(level)

    points = tuple(
        PointSpec(
            sweep="redundancy",
            axis="redundancy",
            value=level,
            scheme="parallel_batch",
            scheme_kwargs=(("m", settings.m),),
            workload=settings.workload_params,
            spec=spec,
            kind="chaos",
            run_kwargs=(
                ("mtbf_h", mtbf_hours),
                ("mttr_h", mttr_hours),
                ("num_arrivals", num_arrivals),
                ("policy", "concurrent"),
                ("rate_per_hour", arrival_rate_per_hour),
            ),
            label=level,
            # A11's cell group at this MTBF: all levels share its arrival
            # and fault-timing streams, and the r=1 level reproduces A11's
            # parallel-batch numbers exactly.
            seed_group=("mtbf_h", mtbf_hours, 0),
            seek_planner=settings.seek_planner,
            redundancy=level,
        )
        for level in feasible
    )
    res = run_sweep(
        SweepSpec(name="redundancy", points=points, root_seed=settings.eval_seed),
        engine,
    )

    member_avail = mtbf_hours / (mtbf_hours + mttr_hours)

    def durability_of(level: str) -> float:
        parsed = parse_redundancy(level)
        if parsed["mode"] == "replicated":
            k, n = 1, parsed["r"]
        else:
            k, n = parsed["k"], parsed["n"]
        return float(
            sum(
                math.comb(n, i)
                * member_avail**i
                * (1.0 - member_avail) ** (n - i)
                for i in range(k, n + 1)
            )
        )

    table = ExperimentTable(
        "A12",
        "Availability, durability, and sojourn vs redundancy level "
        f"(MTBF {mtbf_hours} h, MTTR {mttr_hours} h, "
        f"{arrival_rate_per_hour}/h arrivals)",
        [
            "level",
            "overhead",
            "sojourn (s)",
            "request avail",
            "drive avail",
            "durability",
            "aborted",
            "fallbacks",
        ],
    )
    sojourns: List[float] = []
    request_avail: List[float] = []
    drive_avail: List[float] = []
    durabilities: List[float] = []
    aborted: List[int] = []
    fallbacks: List[float] = []
    for level in feasible:
        result = res.one(value=level, label=level)
        served = len(result.records)
        req_avail = 1.0 - result.aborted_requests / served if served else 0.0
        counter = result.registry.counters.get("redundancy.fallbacks")
        level_fallbacks = float(counter.value) if counter is not None else 0.0
        sojourns.append(result.mean_sojourn_s)
        request_avail.append(req_avail)
        drive_avail.append(result.availability)
        durabilities.append(durability_of(level))
        aborted.append(result.aborted_requests)
        fallbacks.append(level_fallbacks)
        table.add_row(
            level,
            round(overhead_of(level), 3),
            result.mean_sojourn_s,
            req_avail,
            result.availability,
            durabilities[-1],
            result.aborted_requests,
            level_fallbacks,
        )
    table.data["levels"] = feasible
    table.data["overhead"] = [overhead_of(level) for level in feasible]
    table.data["series"] = {"sojourn_s": sojourns}
    table.data["request_availability"] = request_avail
    table.data["drive_availability"] = drive_avail
    table.data["durability"] = durabilities
    table.data["aborted"] = aborted
    table.data["fallbacks"] = fallbacks
    table.data["mtbf_hours"] = mtbf_hours
    table.data["mttr_hours"] = mttr_hours
    table.data["sweep"] = res.stats
    table.data["fleet"] = res.fleet
    table.notes.append(
        "beyond-paper extension: repro.redundancy over parallel_batch; "
        "levels share A11's fixed-MTBF cell seed (r=1 matches A11's "
        "parallel-batch point seed-for-seed); request availability = "
        "1 - aborted/served; durability = P(>=k of n members up) at "
        "member availability MTBF/(MTBF+MTTR)"
    )
    if skipped:
        table.notes.append(
            "skipped (storage overhead exceeds capacity at this scale): "
            + ", ".join(skipped)
        )
    return table


def repair(
    settings: Optional[ExperimentSettings] = None,
    levels: Sequence[str] = ("r=1", "k=2,n=3", "r=2"),
    policies: Sequence[str] = ("user-first", "repair-first", "fair-share"),
    mtbf_hours: float = 4.0,
    mttr_hours: float = 0.5,
    arrival_rate_per_hour: float = 8.0,
    num_arrivals: int = 60,
    fail_tape_at_hours: float = 0.25,
    engine: Optional[EngineOptions] = None,
) -> ExperimentTable:
    """A13 — simulated MTTDL and sojourn inflation vs repair policy.

    Each redundancy level's *busiest* tape (most bytes placed) is
    destroyed early in the run (:class:`~repro.sim.faults.TapeFailure`),
    on top of A12's per-drive fail/repair churn, and the repair manager
    re-replicates the lost members through the same drives that serve
    user restores — once per :data:`~repro.sim.repair.REPAIR_POLICIES`
    entry.  Reported per (level, policy):

    * simulated MTTDL — horizon x objects / objects lost (infinite when
      the level rebuilds everything, as r>=2 should);
    * restore-sojourn inflation — mean sojourn over the same level's
      *no-media-fault* baseline, which shares A12's
      ``("mtbf_h", mtbf, 0)`` seed group and run parameters, so the
      baseline rows are A12's rows seed-for-seed (and cache-hit
      identical: the PointSpecs are byte-equal);
    * repair backlog — at-risk x seconds integrated over the run.

    ``r=1`` is the control: no survivors to rebuild from, so its media
    loss lands entirely in ``objects_lost`` and finite MTTDL.
    """
    import math

    from ..placement import ParallelBatchPlacement
    from ..redundancy import parse_redundancy, wrap_scheme
    from ..sim import SimulationSession
    from ..workload import generate_workload

    settings = settings or default_settings()
    spec = settings.spec()
    capacity_mb = (
        spec.num_libraries * spec.library.num_tapes * spec.library.tape.capacity_mb
    )
    workload = generate_workload(settings.workload_params)
    data_mb = float(sum(workload.catalog.sizes_mb))

    def overhead_of(level: str) -> float:
        parsed = parse_redundancy(level)
        if parsed["mode"] == "replicated":
            return float(parsed["r"])
        return parsed["n"] / parsed["k"]

    skipped: List[str] = []
    feasible: List[str] = []
    for level in levels:
        if data_mb * overhead_of(level) <= capacity_mb:
            feasible.append(level)
        else:
            skipped.append(level)

    # The doomed cartridge, per level: the placement is deterministic, so
    # picking the max-bytes tape here matches what every worker will build.
    def busiest_tape(level: str) -> str:
        scheme = wrap_scheme(ParallelBatchPlacement(m=settings.m), level)
        session = SimulationSession(workload, spec, scheme=scheme)
        return str(max(session.system.all_tapes(), key=lambda t: (t.used_mb, t.id)).id)

    doomed = {level: busiest_tape(level) for level in feasible}

    base_run_kwargs = (
        ("mtbf_h", mtbf_hours),
        ("mttr_h", mttr_hours),
        ("num_arrivals", num_arrivals),
        ("policy", "concurrent"),
        ("rate_per_hour", arrival_rate_per_hour),
    )
    common = dict(
        scheme="parallel_batch",
        scheme_kwargs=(("m", settings.m),),
        workload=settings.workload_params,
        spec=spec,
        kind="chaos",
        seed_group=("mtbf_h", mtbf_hours, 0),
        seek_planner=settings.seek_planner,
    )
    # Baseline points are byte-identical to A12's (same sweep/axis/labels),
    # so a cached A12 run is reused outright and the inflation denominator
    # is exactly A12's sojourn column.
    baselines = tuple(
        PointSpec(
            sweep="redundancy",
            axis="redundancy",
            value=level,
            run_kwargs=base_run_kwargs,
            label=level,
            redundancy=level,
            **common,
        )
        for level in feasible
    )
    fault_points = tuple(
        PointSpec(
            sweep="repair",
            axis="repair",
            value=f"{level}|{policy}",
            run_kwargs=base_run_kwargs
            + (
                ("fail_tape", doomed[level]),
                ("fail_tape_at_s", fail_tape_at_hours * 3600.0),
                ("repair_policy", policy),
            ),
            label=policy,
            redundancy=level,
            **common,
        )
        for level in feasible
        for policy in policies
    )
    res = run_sweep(
        SweepSpec(
            name="repair",
            points=baselines + fault_points,
            root_seed=settings.eval_seed,
        ),
        engine,
    )

    def mttdl_hours(result) -> float:
        lost = result.objects_lost
        if lost <= 0:
            return math.inf
        total = float(result.repair.get("objects_total", 0.0))
        return result.horizon_s / 3600.0 * total / lost

    table = ExperimentTable(
        "A13",
        "Simulated MTTDL, durability, and sojourn inflation vs repair "
        f"policy (busiest tape lost at {fail_tape_at_hours} h, MTBF "
        f"{mtbf_hours} h churn, {arrival_rate_per_hour}/h arrivals)",
        [
            "level",
            "policy",
            "sojourn (s)",
            "inflation",
            "durability",
            "objects lost",
            "rebuilt",
            "backlog (h)",
            "MTTDL (h)",
        ],
    )
    series: Dict[str, Dict[str, float]] = {}
    durabilities: Dict[str, Dict[str, float]] = {}
    mttdl: Dict[str, Dict[str, float]] = {}
    inflation: Dict[str, Dict[str, float]] = {}
    for level in feasible:
        base = res.one(value=level, label=level)
        table.add_row(
            level, "none", base.mean_sojourn_s, 1.0, base.durability,
            base.objects_lost, 0, 0.0, mttdl_hours(base),
        )
        series[level] = {"none": base.mean_sojourn_s}
        durabilities[level] = {"none": base.durability}
        mttdl[level] = {"none": mttdl_hours(base)}
        inflation[level] = {"none": 1.0}
        for policy in policies:
            result = res.one(value=f"{level}|{policy}", label=policy)
            ratio = (
                result.mean_sojourn_s / base.mean_sojourn_s
                if base.mean_sojourn_s
                else math.inf
            )
            backlog_h = result.repair_backlog_seconds / 3600.0
            table.add_row(
                level,
                policy,
                result.mean_sojourn_s,
                ratio,
                result.durability,
                result.objects_lost,
                int(result.repair.get("members_rebuilt", 0)),
                backlog_h,
                mttdl_hours(result),
            )
            series[level][policy] = result.mean_sojourn_s
            durabilities[level][policy] = result.durability
            mttdl[level][policy] = mttdl_hours(result)
            inflation[level][policy] = ratio
    table.data["levels"] = feasible
    table.data["policies"] = list(policies)
    table.data["doomed"] = doomed
    table.data["series"] = series
    table.data["durability"] = durabilities
    table.data["mttdl_h"] = mttdl
    table.data["inflation"] = inflation
    table.data["sweep"] = res.stats
    table.data["fleet"] = res.fleet
    table.notes.append(
        "beyond-paper extension: media-loss repair (repro.sim.repair); "
        "baseline rows share A12's seed group and PointSpecs (cache-hit "
        "identical); MTTDL = horizon x objects / objects_lost; backlog "
        "integrates group-at-risk seconds until each member is rebuilt"
    )
    if skipped:
        table.notes.append(
            "skipped (storage overhead exceeds capacity at this scale): "
            + ", ".join(skipped)
        )
    return table


def seek_planning(
    settings: Optional[ExperimentSettings] = None,
    batch_scales: Sequence[float] = (1.0, 2.0, 4.0),
    locate_startup_s: float = 4.0,
    arrival_rate_per_hour: float = 8.0,
    num_arrivals: int = 40,
    planners: Optional[Sequence[str]] = None,
    engine: Optional[EngineOptions] = None,
) -> ExperimentTable:
    """E4 — greedy-sweep vs exact sojourn time vs request batch size (LTSP).

    Both seek planners serve the *same* open-system arrival stream
    (planners at one batch scale share the cell seed and the planner
    name rides in each point's cache key, so cached cells never alias
    across planners).  The batch scale multiplies the workload's
    objects-per-request bounds: larger batches put more objects on each
    tape visit, which is exactly where retrieval-order optimization can
    beat the paper's two-sweep heuristic.  The system spec uses an affine
    locate model (``locate_startup_s`` > 0): turning around at the right
    points then saves whole startup latencies by chaining nearby extents,
    so the ``exact`` LTSP plan can strictly undercut ``greedy-sweep``.
    """
    settings = settings or default_settings()
    names = list(planners) if planners is not None else list(available_seek_planners())
    base = settings.spec()
    tape = dataclasses.replace(base.library.tape, locate_startup_s=locate_startup_s)
    spec = dataclasses.replace(
        base, library=dataclasses.replace(base.library, tape=tape)
    )
    lo, hi = settings.workload_params.request_size_bounds
    workloads = {
        scale: dataclasses.replace(
            settings.workload_params,
            request_size_bounds=(max(1, round(lo * scale)), max(1, round(hi * scale))),
        )
        for scale in batch_scales
    }
    points = tuple(
        PointSpec(
            sweep="seekplan",
            axis="batch_scale",
            value=scale,
            scheme="parallel_batch",
            scheme_kwargs=(("m", settings.m),),
            workload=workloads[scale],
            spec=spec,
            kind="open",
            run_kwargs=(
                ("num_arrivals", num_arrivals),
                ("policy", "concurrent"),
                ("rate_per_hour", arrival_rate_per_hour),
            ),
            label=planner,
            # Planners at one batch scale share the seed: identical arrival
            # streams, so sojourn differences isolate the retrieval order.
            seek_planner=planner,
        )
        for scale in batch_scales
        for planner in names
    )
    res = run_sweep(
        SweepSpec(name="seekplan", points=points, root_seed=settings.eval_seed),
        engine,
    )

    table = ExperimentTable(
        "E4",
        "Mean sojourn (s) per seek planner vs request batch scale "
        f"(affine locate, startup {locate_startup_s} s, "
        f"{arrival_rate_per_hour}/h arrivals)",
        ["batch scale"]
        + names
        + ["exact vs greedy (%)"],
    )
    sojourns: Dict[str, List[float]] = {name: [] for name in names}
    seeks: Dict[str, List[float]] = {name: [] for name in names}
    gains: List[float] = []
    for scale in batch_scales:
        results = {name: res.one(value=scale, label=name) for name in names}
        row: List[object] = [scale]
        for name in names:
            r = results[name]
            sojourns[name].append(r.mean_sojourn_s)
            mean_seek = (
                sum(m.seek_s for m in r.metrics) / len(r.metrics)
                if r.metrics
                else 0.0
            )
            seeks[name].append(mean_seek)
            row.append(r.mean_sojourn_s)
        greedy = results["greedy-sweep"].mean_sojourn_s if "greedy-sweep" in results else None
        exact = results["exact"].mean_sojourn_s if "exact" in results else None
        gain = (
            100.0 * (greedy - exact) / greedy
            if greedy and exact is not None
            else float("nan")
        )
        gains.append(gain)
        row.append(gain)
        table.add_row(*row)
    table.data["series"] = sojourns
    table.data["seek_series"] = seeks
    table.data["batch_scales"] = list(batch_scales)
    table.data["exact_gain_pct"] = gains
    table.data["sweep"] = res.stats
    table.data["fleet"] = res.fleet
    table.notes.append(
        "beyond-paper extension: paper sweep vs exact LTSP seek planner "
        "(repro.sim.seekplanner); planners at one cell share arrival "
        "streams, planner names participate in sweep-cache keys"
    )
    return table
