"""Command-line interface: ``repro-tape`` / ``python -m repro``.

Subcommands
-----------
``experiment <id>``  run one of the paper's experiments (T1, F5–F9, E1–E3, A1)
``sweep <id>``       run an experiment through the parallel sweep engine
                     (worker processes + on-disk result cache)
``run``              evaluate one scheme on one configuration
``open``             open-system serving: Poisson arrivals on one shared clock
``chaos``            open-system run under stochastic drive fail/repair faults
``profile``          run an open-system workload under cProfile; print hot spots
``trace``            run a workload and export telemetry (Perfetto trace + metrics)
``report``           render the self-contained HTML fleet dashboard from JSONL
``metrics``          print (or ``--follow``) fleet telemetry JSONL records
``schemes``          list registered placement schemes
``workload``         generate and dump/inspect a workload trace

Status and diagnostic output goes through :mod:`logging` (stderr) so it is
separable from result tables and dashboards on stdout; ``--verbose`` /
``--quiet`` on the top-level parser adjust the level.

Examples::

    repro-tape experiment fig6 --scale small
    repro-tape sweep fig5 --workers 4 --scale small
    repro-tape sweep fig6 --workers 2 --metrics-out fleet.jsonl \
        --report sweep.html --slo "p99_sojourn <= 600"
    repro-tape run --scheme parallel_batch --m 4 --alpha 0.3 --samples 200
    repro-tape open --policy concurrent --rate 8 --arrivals 60 --scale small
    repro-tape open --fail L0.D0=1800 --fail L0.D1=3600 --scale small
    repro-tape chaos --mtbf 4 --mttr 0.5 --seed 7 --scale small
    repro-tape chaos --mtbf 2 --slo "availability >= 0.95" --report chaos.html
    repro-tape trace --requests 50 --policy concurrent --out-dir telemetry
    repro-tape report fleet.jsonl --out report.html --slo "aborted_requests == 0"
    repro-tape metrics feed.jsonl --follow
    repro-tape workload --out trace.json --alpha 0.6
"""

from __future__ import annotations

import argparse
import logging
import math
import sys
from typing import List, Optional

from .experiments import (
    ALL_EXPERIMENTS,
    SWEEP_EXPERIMENTS,
    EngineOptions,
    ExperimentSettings,
    chart_table,
    default_cache_dir,
    default_settings,
)
from .placement import available_schemes, make_scheme
from .sim import (
    READ_SELECTIONS,
    REPAIR_POLICIES,
    SimulationSession,
    available_scheduling_policies,
    available_seek_planners,
)
from .workload import dump_workload, generate_workload

__all__ = ["main", "build_parser"]

logger = logging.getLogger("repro.cli")


def _configure_logging(args: argparse.Namespace) -> None:
    """Route status/diagnostic output through :mod:`logging` on stderr.

    Result tables, dashboards, and machine-readable artifacts stay on
    stdout; everything narrational (sweep stats, artifact paths, progress)
    is INFO, silenced by ``--quiet``, and joined by DEBUG detail under
    ``--verbose``.
    """
    if getattr(args, "quiet", False):
        level = logging.WARNING
    elif getattr(args, "verbose", False):
        level = logging.DEBUG
    else:
        level = logging.INFO
    logging.basicConfig(
        level=level, stream=sys.stderr, format="%(message)s", force=True
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-tape",
        description=(
            "Reproduction of 'Object Placement in Parallel Tape Storage "
            "Systems' (ICPP 2006)"
        ),
    )
    parser.add_argument(
        "-v",
        "--verbose",
        action="store_true",
        help="debug-level status output on stderr",
    )
    parser.add_argument(
        "-q",
        "--quiet",
        action="store_true",
        help="suppress status output (warnings and errors only)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    exp = sub.add_parser("experiment", help="run a paper experiment and print its table")
    exp.add_argument(
        "id",
        choices=sorted(ALL_EXPERIMENTS),
        help="experiment id (see DESIGN.md §3)",
    )
    exp.add_argument(
        "--chart", action="store_true", help="also draw the series as a terminal chart"
    )
    exp.add_argument("--csv", metavar="PATH", help="also write the table as CSV")
    _add_settings_args(exp)

    sw = sub.add_parser(
        "sweep",
        help="run an experiment through the parallel sweep engine",
        description=(
            "Expands the experiment into (scheme, axis-value, replicate) "
            "point jobs, fans them out over worker processes, and memoizes "
            "each point in an on-disk content-addressed cache keyed by the "
            "full point configuration — re-running after editing one scheme "
            "recomputes only that scheme's points.  Results are bit-identical "
            "for any worker count and point order (per-point seeds derive "
            "from the root seed via SeedSequence).  See docs/experiments.md."
        ),
    )
    sw.add_argument(
        "id",
        choices=sorted(SWEEP_EXPERIMENTS),
        help="experiment id (every sweep experiment; table1 has no sweep)",
    )
    sw.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="worker processes (default: $REPRO_WORKERS, else 1 = in-process)",
    )
    sw.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="result cache directory (default: $REPRO_CACHE_DIR, else "
        "~/.cache/repro-tape/sweeps)",
    )
    sw.add_argument(
        "--no-cache", action="store_true", help="disable the on-disk result cache"
    )
    sw.add_argument(
        "--refresh",
        action="store_true",
        help="ignore cached results but store fresh ones",
    )
    sw.add_argument(
        "--chart", action="store_true", help="also draw the series as a terminal chart"
    )
    sw.add_argument("--csv", metavar="PATH", help="also write the table as CSV")
    sw.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="write the merged fleet telemetry as JSONL "
        "(render later with `repro-tape report`)",
    )
    sw.add_argument(
        "--report",
        default=None,
        metavar="PATH",
        help="render the sweep's fleet dashboard to this HTML file",
    )
    sw.add_argument(
        "--slo",
        action="append",
        default=None,
        metavar="SPEC",
        help="service-level objective to evaluate against the merged fleet, "
        "e.g. 'p99_sojourn <= 600' (repeatable; non-zero exit on failure)",
    )
    sw.add_argument(
        "--feed",
        default=None,
        metavar="PATH",
        help="stream live point/progress records to this JSONL file while "
        "the sweep runs (tail with `repro-tape metrics PATH --follow`)",
    )
    _add_seek_planner_arg(sw)
    _add_redundancy_arg(sw)
    _add_settings_args(sw)

    run = sub.add_parser("run", help="evaluate one scheme on one configuration")
    run.add_argument("--scheme", default="parallel_batch", choices=sorted(available_schemes()))
    run.add_argument("--m", type=int, default=4, help="switch drives per library (parallel_batch)")
    run.add_argument("--alpha", type=float, default=0.3, help="Zipf popularity skew")
    run.add_argument("--libraries", type=int, default=3)
    run.add_argument("--samples", type=int, default=200)
    run.add_argument("--seed", type=int, default=0, help="evaluation sampling seed")
    run.add_argument("--workload-seed", type=int, default=20060814)
    _add_settings_args(run)

    op = sub.add_parser(
        "open", help="serve a Poisson arrival stream on one persistent environment"
    )
    op.add_argument(
        "--policy",
        default="concurrent",
        choices=sorted(available_scheduling_policies()),
        help="request-scheduling policy (serial-fcfs reproduces the closed loop)",
    )
    op.add_argument("--scheme", default="parallel_batch", choices=sorted(available_schemes()))
    op.add_argument("--m", type=int, default=4, help="switch drives per library (parallel_batch)")
    op.add_argument(
        "--rate", type=_positive(float), default=4.0, help="Poisson arrival rate per hour"
    )
    op.add_argument(
        "--arrivals", type=_positive(int), default=60, help="number of arrivals to serve"
    )
    op.add_argument("--seed", type=int, default=0, help="arrival/sampling seed")
    op.add_argument(
        "--window",
        type=float,
        default=None,
        metavar="SECONDS",
        help="also print tumbling-window stats of this width",
    )
    op.add_argument(
        "--fail",
        action="append",
        default=None,
        metavar="DRIVE=TIME",
        help="fail a drive permanently at an absolute time in seconds, e.g. "
        "--fail L0.D0=1800 (repeatable; requires --policy concurrent)",
    )
    _add_media_fault_args(op)
    _add_seek_planner_arg(op)
    _add_redundancy_arg(op)
    _add_settings_args(op)

    ch = sub.add_parser(
        "chaos",
        help="open-system run under stochastic drive fail/repair faults",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        description=(
            "Serves a Poisson arrival stream while every drive runs an\n"
            "independent stochastic fail/repair process (exponential or\n"
            "Weibull MTBF/MTTR), optionally with transient mount/read errors\n"
            "retried with capped exponential backoff.  Fault timing draws\n"
            "from substreams of --fault-seed, so runs are bit-reproducible.\n"
            "Prints availability, degraded time, and fault counters next to\n"
            "the usual sojourn statistics.  See docs/robustness.md.\n"
            "\n"
            "Examples:\n"
            "  repro-tape chaos --mtbf 4 --mttr 0.5 --seed 7 --scale small\n"
            "  repro-tape chaos --mtbf 2 --mttr 0.25 --distribution weibull \\\n"
            "      --shape 1.5 --scheme object_probability --scale small\n"
            "  repro-tape chaos --mtbf 8 --transient-prob 0.05 --retries 3 \\\n"
            "      --out-dir chaos-telemetry --scale small\n"
            "  repro-tape chaos --fail L0.D0=1800 --mtbf 1e9 --scale small"
        ),
    )
    ch.add_argument("--scheme", default="parallel_batch", choices=sorted(available_schemes()))
    ch.add_argument("--m", type=int, default=4, help="switch drives per library (parallel_batch)")
    ch.add_argument(
        "--rate", type=_positive(float), default=8.0, help="Poisson arrival rate per hour"
    )
    ch.add_argument(
        "--arrivals", type=_positive(int), default=60, help="number of arrivals to serve"
    )
    ch.add_argument("--seed", type=int, default=0, help="arrival/sampling seed")
    ch.add_argument(
        "--mtbf", type=float, default=4.0, metavar="HOURS",
        help="mean time between drive failures (default: 4 h)",
    )
    ch.add_argument(
        "--mttr", type=float, default=0.5, metavar="HOURS",
        help="mean time to repair a failed drive (default: 0.5 h)",
    )
    ch.add_argument(
        "--distribution", default="exponential", choices=["exponential", "weibull"],
        help="time-to-failure/repair distribution",
    )
    ch.add_argument(
        "--shape", type=float, default=1.0,
        help="Weibull shape k (>1 wear-out, <1 infant mortality)",
    )
    ch.add_argument(
        "--transient-prob", type=float, default=0.0, metavar="P",
        help="per-attempt transient mount/read error probability",
    )
    ch.add_argument(
        "--retries", type=int, default=4, metavar="N",
        help="transient retries before escalating to a hard failure",
    )
    ch.add_argument(
        "--fault-seed", type=int, default=None,
        help="root seed of the fault-timing substreams (default: --seed)",
    )
    ch.add_argument(
        "--fail",
        action="append",
        default=None,
        metavar="DRIVE=TIME",
        help="additionally fail a drive permanently at an absolute time "
        "in seconds (repeatable)",
    )
    _add_media_fault_args(ch)
    ch.add_argument(
        "--out-dir", default=None, metavar="DIR",
        help="also export trace.json + metrics.jsonl telemetry artifacts",
    )
    ch.add_argument(
        "--slo",
        action="append",
        default=None,
        metavar="SPEC",
        help="service-level objective to evaluate against the run, e.g. "
        "'availability >= 0.99' (repeatable; 'default' expands to the "
        "chaos defaults; non-zero exit on failure)",
    )
    ch.add_argument(
        "--report",
        default=None,
        metavar="PATH",
        help="render the run's fleet dashboard to this HTML file",
    )
    ch.add_argument(
        "--sample-period",
        type=float,
        default=None,
        metavar="SECONDS",
        help="periodic registry snapshot period feeding the dashboard's "
        "drives-down timeline (default: 300 when --report is set)",
    )
    _add_redundancy_arg(ch)
    _add_settings_args(ch)

    tr = sub.add_parser(
        "trace",
        help="serve an open-system workload and export its telemetry artifacts",
        description=(
            "Runs a Poisson arrival stream (like `open`) with full telemetry: "
            "writes a Chrome/Perfetto trace_event JSON (load it at "
            "https://ui.perfetto.dev) and a metrics JSONL time series, then "
            "prints the critical-path stage-attribution table and a text "
            "flame of the slowest request.  See docs/observability.md."
        ),
    )
    tr.add_argument(
        "--policy",
        default="concurrent",
        choices=sorted(available_scheduling_policies()),
        help="request-scheduling policy",
    )
    tr.add_argument("--scheme", default="parallel_batch", choices=sorted(available_schemes()))
    tr.add_argument("--m", type=int, default=4, help="switch drives per library (parallel_batch)")
    tr.add_argument(
        "--rate", type=_positive(float), default=8.0, help="Poisson arrival rate per hour"
    )
    tr.add_argument(
        "--requests", type=_positive(int), default=50, help="number of arrivals to serve"
    )
    tr.add_argument("--seed", type=int, default=0, help="arrival/sampling seed")
    tr.add_argument(
        "--sample-period",
        type=float,
        default=300.0,
        metavar="SECONDS",
        help="metrics snapshot period in simulated seconds",
    )
    tr.add_argument(
        "--out-dir", default="telemetry", help="artifact directory (default: telemetry/)"
    )
    tr.add_argument(
        "--flames", type=int, default=1, metavar="N",
        help="print text flame trees of the N slowest requests",
    )
    tr.add_argument(
        "--validate",
        action="store_true",
        help="validate the exported trace against the trace_event schema; "
        "non-zero exit on problems",
    )
    _add_settings_args(tr)

    pf = sub.add_parser(
        "profile",
        help="profile an open-system run under cProfile and print the hot spots",
        description=(
            "Serves a Poisson arrival stream (like `open`) with the Python "
            "profiler attached to the simulation run only (placement and "
            "session construction are excluded), then prints events/sec and "
            "the top functions by the chosen sort key.  This is the harness "
            "behind docs/performance.md: use it before and after touching "
            "the DES kernel or engine hot paths."
        ),
    )
    pf.add_argument(
        "--policy",
        default="serial-fcfs",
        choices=sorted(available_scheduling_policies()),
        help="request-scheduling policy to profile",
    )
    pf.add_argument("--scheme", default="parallel_batch", choices=sorted(available_schemes()))
    pf.add_argument("--m", type=int, default=4, help="switch drives per library (parallel_batch)")
    pf.add_argument(
        "--rate", type=_positive(float), default=8.0, help="Poisson arrival rate per hour"
    )
    pf.add_argument(
        "--arrivals", type=_positive(int), default=60, help="number of arrivals to serve"
    )
    pf.add_argument("--seed", type=int, default=0, help="arrival/sampling seed")
    pf.add_argument(
        "--top", type=int, default=25, metavar="N",
        help="rows of the profile table to print (default: 25)",
    )
    pf.add_argument(
        "--sort", default="tottime", choices=["tottime", "cumulative", "calls"],
        help="pstats sort key (default: tottime)",
    )
    pf.add_argument(
        "--stats-out", default=None, metavar="PATH",
        help="also dump the raw profile for snakeviz/pstats post-processing",
    )
    pf.add_argument(
        "--trace-out", default=None, metavar="DIR",
        help="also export trace.json + metrics.jsonl telemetry from the "
        "profiled run (requires tracing enabled)",
    )
    _add_seek_planner_arg(pf)
    _add_settings_args(pf)

    cmp_p = sub.add_parser(
        "compare", help="paired statistical comparison of two schemes"
    )
    cmp_p.add_argument("scheme_a", choices=sorted(available_schemes()))
    cmp_p.add_argument("scheme_b", choices=sorted(available_schemes()))
    cmp_p.add_argument("--metric", default="response_s",
                       choices=["response_s", "bandwidth_mb_s", "switch_s", "seek_s", "transfer_s"])
    cmp_p.add_argument("--alpha", type=float, default=0.3)
    cmp_p.add_argument("--samples", type=int, default=200)
    cmp_p.add_argument("--seed", type=int, default=0)
    _add_settings_args(cmp_p)

    rep = sub.add_parser(
        "reproduce",
        help="run every experiment (T1, F5-F9, E1-E3, A1-A8) and write a results directory",
    )
    rep.add_argument("--out", default="results", help="output directory (default: results/)")
    rep.add_argument(
        "--only",
        nargs="*",
        choices=sorted(ALL_EXPERIMENTS),
        help="restrict to these experiment ids",
    )
    _add_settings_args(rep)

    rpt = sub.add_parser(
        "report",
        help="render the self-contained HTML fleet dashboard from saved JSONL",
        description=(
            "Rebuilds a FleetRegistry from saved telemetry — either fleet "
            "JSONL (`sweep --metrics-out`) or metrics JSONL (`chaos/trace "
            "--out-dir`, whose trailing registry_export record carries the "
            "full mergeable state) — evaluates any --slo objectives against "
            "it, and writes one dependency-free HTML page: KPI tiles, sweep "
            "progress, per-stage latency percentiles, the drives-down "
            "timeline, and the SLO verdict table.  See docs/observability.md."
        ),
    )
    rpt.add_argument(
        "input",
        metavar="JSONL",
        help="fleet JSONL (sweep --metrics-out) or metrics JSONL (chaos/trace)",
    )
    rpt.add_argument(
        "--out", default="report.html", metavar="PATH",
        help="dashboard HTML path (default: report.html)",
    )
    rpt.add_argument(
        "--slo",
        action="append",
        default=None,
        metavar="SPEC",
        help="objective to evaluate and render, e.g. 'p95_sojourn <= 300' "
        "(repeatable; 'default' expands to the chaos defaults; non-zero "
        "exit on failure)",
    )
    rpt.add_argument("--title", default=None, help="dashboard title override")

    mt = sub.add_parser(
        "metrics",
        help="print (or --follow) fleet telemetry JSONL records",
        description=(
            "Pretty-prints fleet/feed/metrics JSONL records one per line; "
            "--follow keeps the file open and tails records as a running "
            "sweep appends them (pair with `sweep --feed PATH`)."
        ),
    )
    mt.add_argument("input", metavar="JSONL", help="fleet / feed / metrics JSONL file")
    mt.add_argument(
        "--follow",
        action="store_true",
        help="keep tailing for records appended by a live sweep",
    )
    mt.add_argument(
        "--interval",
        type=float,
        default=0.5,
        metavar="SECONDS",
        help="poll interval while following (default: 0.5)",
    )

    sub.add_parser("schemes", help="list registered placement schemes")

    wl = sub.add_parser("workload", help="generate a workload; print stats or dump JSON")
    wl.add_argument("--out", help="path for the JSON trace (omit to just print stats)")
    wl.add_argument("--alpha", type=float, default=0.3)
    wl.add_argument("--seed", type=int, default=20060814)
    _add_settings_args(wl)

    return parser


def _positive(convert):
    """argparse ``type=``: ``convert`` the text, then require finite and > 0.

    Arrival rates and counts are checked here so a bad value is a usage
    error (exit 2) before any workload is generated or placed.
    """

    def parse(text: str):
        value = convert(text)
        if not (math.isfinite(value) and value > 0):
            raise argparse.ArgumentTypeError(
                f"must be a finite number > 0, got {text!r}"
            )
        return value

    parse.__name__ = convert.__name__  # argparse names it in "invalid ... value"
    return parse


def _add_seek_planner_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--seek-planner",
        default=None,
        choices=sorted(available_seek_planners()),
        help="within-tape retrieval-order planner (default: greedy-sweep; "
        "see docs/seek_planning.md)",
    )


def _add_media_fault_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--fail-tape",
        action="append",
        default=None,
        metavar="TAPE=TIME",
        help="destroy a cartridge (whole-tape media loss) at an absolute "
        "time in seconds, e.g. --fail-tape L0.T3=1800 (repeatable; the "
        "repair manager re-replicates redundant data, see "
        "docs/robustness.md)",
    )
    parser.add_argument(
        "--repair-policy",
        default=None,
        choices=sorted(REPAIR_POLICIES),
        help="how media-loss repair traffic competes with user restores "
        "(default: user-first)",
    )
    parser.add_argument(
        "--read-selection",
        default=None,
        choices=sorted(READ_SELECTIONS),
        help="redundant-read member ordering: least-loaded library "
        "(default) or cheapest member (mounted tape first, then lowest "
        "estimated drive time)",
    )


def _add_redundancy_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--redundancy",
        default=None,
        metavar="SPEC",
        help="wrap the scheme in a redundancy layer: 'r=<copies>' for "
        "replication or 'k=<data>,n=<total>' for erasure coding "
        "(see docs/redundancy.md)",
    )


def _add_settings_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scale",
        choices=["paper", "small"],
        default=None,
        help="paper = 30k objects / Table-1 system; small = ~10x smaller",
    )
    parser.add_argument(
        "--num-samples",
        type=int,
        default=None,
        help="sampled requests per configuration (paper uses 200)",
    )


def _settings(args: argparse.Namespace) -> ExperimentSettings:
    overrides = {}
    if getattr(args, "scale", None):
        overrides["scale"] = args.scale
    if getattr(args, "num_samples", None):
        overrides["num_samples"] = args.num_samples
    if getattr(args, "seek_planner", None):
        overrides["seek_planner"] = args.seek_planner
    if getattr(args, "redundancy", None):
        overrides["redundancy"] = args.redundancy
    return default_settings(**overrides)


def _cmd_experiment(args: argparse.Namespace) -> int:
    settings = _settings(args)
    table = ALL_EXPERIMENTS[args.id](settings)
    print(table.format())
    if getattr(args, "chart", False):
        chart = chart_table(table)
        print()
        print(chart if chart else "(no numeric series to chart)")
    if getattr(args, "csv", None):
        from pathlib import Path

        Path(args.csv).write_text(table.to_csv())
        logger.info("CSV written to %s", args.csv)
    return 0


def _parse_slo_args(specs: Optional[List[str]]):
    """Expand repeated ``--slo`` values (and the ``default`` shorthand)."""
    from .obs import DEFAULT_CHAOS_SLOS, parse_slos

    texts: List[str] = []
    for spec in specs or []:
        if spec.strip().lower() == "default":
            texts.extend(DEFAULT_CHAOS_SLOS)
        else:
            texts.append(spec)
    return parse_slos(";".join(texts)) if texts else ()


def _cmd_sweep(args: argparse.Namespace) -> int:
    settings = _settings(args)
    if args.no_cache:
        cache_dir = None
    else:
        cache_dir = args.cache_dir or str(default_cache_dir())

    feed = None
    feed_fh = None
    on_feed = None
    if args.feed:
        import json

        from .obs import FleetFeed

        feed = FleetFeed()
        feed_fh = open(args.feed, "w")

        def on_feed(record, _fh=feed_fh):
            _fh.write(json.dumps(record) + "\n")
            _fh.flush()

    engine = EngineOptions(
        workers=args.workers,
        cache_dir=cache_dir,
        refresh=args.refresh,
        feed=feed,
        on_feed=on_feed,
    )
    try:
        table = SWEEP_EXPERIMENTS[args.id](settings, engine=engine)
    finally:
        if feed is not None:
            feed.close()
        if feed_fh is not None:
            feed_fh.close()
            logger.info("feed:              %s", args.feed)
    print(table.format())
    stats = table.data.get("sweep", {})
    if stats:
        cache_note = (
            f"cache {stats['cache_hits']} hits / {stats['cache_misses']} misses "
            f"({stats['cache_dir']})"
            if stats.get("cache_dir")
            else "cache disabled"
        )
        logger.info(
            "  sweep: %d points in %.2f s (%.1f points/s, workers=%d); %s",
            stats["points"],
            stats["wall_s"],
            stats["points_per_s"],
            stats["workers"],
            cache_note,
        )
    if getattr(args, "chart", False):
        chart = chart_table(table)
        print()
        print(chart if chart else "(no numeric series to chart)")
    if getattr(args, "csv", None):
        from pathlib import Path

        Path(args.csv).write_text(table.to_csv())
        logger.info("CSV written to %s", args.csv)

    fleet = table.data.get("fleet")
    status = 0
    if fleet is not None:
        from .obs import write_fleet_jsonl

        if args.metrics_out:
            lines = write_fleet_jsonl(fleet, args.metrics_out)
            logger.info("fleet metrics:     %s  (%d lines)", args.metrics_out, lines)
        slos = _parse_slo_args(args.slo)
        verdicts = ()
        if slos:
            from .obs import evaluate_slos

            verdicts = evaluate_slos(slos, fleet)
        if args.report:
            from .obs import write_dashboard

            write_dashboard(
                fleet,
                args.report,
                verdicts=verdicts,
                title=f"repro-tape sweep: {args.id}",
                subtitle=f"{stats.get('points', len(fleet.points))} points, "
                f"workers={stats.get('workers', '?')}",
            )
            logger.info("dashboard:         %s", args.report)
        if verdicts:
            from .obs import format_verdicts

            print()
            print(format_verdicts(verdicts))
            status = 0 if all(v.passed for v in verdicts) else 1
    elif args.metrics_out or args.slo or args.report:
        logger.warning(
            "no fleet telemetry available for this experiment; "
            "--metrics-out/--slo/--report skipped"
        )
    return status


def _cmd_run(args: argparse.Namespace) -> int:
    settings = _settings(args)
    params = settings.workload_params
    workload = generate_workload(params, seed=args.workload_seed, zipf_alpha=args.alpha)
    spec = settings.spec(num_libraries=args.libraries)
    kwargs = {"m": args.m} if args.scheme == "parallel_batch" else {}
    scheme = make_scheme(args.scheme, **kwargs)
    session = SimulationSession(workload, spec, scheme=scheme)
    result = session.evaluate(num_samples=args.samples, seed=args.seed)
    print(f"scheme:            {args.scheme}")
    print(f"workload:          {workload!r}")
    print(f"system:            {spec!r}")
    print(f"samples:           {len(result)}")
    print(f"avg bandwidth:     {result.avg_bandwidth_mb_s:10.1f} MB/s")
    print(f"avg response:      {result.avg_response_s:10.1f} s")
    print(f"  avg switch:      {result.avg_switch_s:10.1f} s")
    print(f"  avg seek:        {result.avg_seek_s:10.1f} s")
    print(f"  avg transfer:    {result.avg_transfer_s:10.1f} s")
    print(f"avg switches/req:  {result.avg_switches_per_request:10.1f}")
    print(f"avg drives/req:    {result.avg_drives_per_request:10.1f}")
    return 0


def _parse_fail_args(
    pairs: Optional[List[str]], flag: str = "--fail", what: str = "DRIVE"
) -> dict:
    """``["L0.D0=1800", ...]`` -> ``{"L0.D0": 1800.0, ...}``.

    A malformed value is a usage error: one stderr line, exit 2.
    """
    failures = {}
    for pair in pairs or []:
        name, sep, at_s = pair.partition("=")
        if not sep or not name:
            problem = f"expects {what}=TIME"
        else:
            try:
                at = float(at_s)
            except ValueError:
                at = math.nan
            if math.isfinite(at) and at >= 0:
                failures[name] = at
                continue
            problem = "time must be a number, finite and >= 0"
        print(f"error: {flag} {problem}, got {pair!r}", file=sys.stderr)
        raise SystemExit(2)
    return failures


def _check_fault_ids(session, drive_failures: dict, tape_failures: dict) -> None:
    """Validate ``--fail`` / ``--fail-tape`` ids against the configuration.

    An unknown id exits 2 (usage error) with the known-id list, *before*
    any simulation starts — a typo'd drive or tape name must not silently
    run a fault-free experiment.
    """
    from .sim import known_drive_names, known_tape_names

    known_drives = known_drive_names(session.system)
    bad = sorted(set(drive_failures) - set(known_drives))
    if bad:
        print(
            f"error: --fail: unknown drive id(s): {', '.join(bad)}\n"
            f"known drives: {', '.join(known_drives)}",
            file=sys.stderr,
        )
        raise SystemExit(2)
    known_tapes = known_tape_names(session.system)
    bad = sorted(set(tape_failures) - set(known_tapes))
    if bad:
        print(
            f"error: --fail-tape: unknown tape id(s): {', '.join(bad)}\n"
            f"known tapes: {', '.join(known_tapes)}",
            file=sys.stderr,
        )
        raise SystemExit(2)


def _cmd_open(args: argparse.Namespace) -> int:
    from .experiments import paper_workload
    from .sim.opensystem import SCHEDULING_POLICIES

    failures = _parse_fail_args(getattr(args, "fail", None))
    tape_failures = _parse_fail_args(
        getattr(args, "fail_tape", None), flag="--fail-tape", what="TAPE"
    )
    if (failures or tape_failures) and not getattr(
        SCHEDULING_POLICIES[args.policy], "supports_faults", False
    ):
        # Reject before the workload and placement are built.
        flag = "--fail" if failures else "--fail-tape"
        print(
            f"error: {flag} requires --policy concurrent, not {args.policy!r}",
            file=sys.stderr,
        )
        raise SystemExit(2)
    settings = _settings(args)
    workload = paper_workload(settings)
    spec = settings.spec()
    kwargs = {"m": args.m} if args.scheme == "parallel_batch" else {}
    scheme = make_scheme(args.scheme, **kwargs)
    if args.redundancy:
        from .redundancy import wrap_scheme

        scheme = wrap_scheme(scheme, args.redundancy)
    session = SimulationSession(workload, spec, scheme=scheme)
    _check_fault_ids(session, failures, tape_failures)
    faults = None
    if tape_failures:
        from .sim import TapeFailure

        faults = tuple(
            TapeFailure(tape, at_s=at_s)
            for tape, at_s in sorted(tape_failures.items())
        )
    opensys = session.open(
        policy=args.policy,
        failures=failures or None,
        faults=faults,
        seek_planner=args.seek_planner,
        repair_policy=args.repair_policy,
        read_selection=args.read_selection or "least-loaded",
    )
    result = opensys.run(args.rate, num_arrivals=args.arrivals, seed=args.seed)
    print(f"policy:            {result.policy}")
    print(f"seek planner:      {opensys.seek_planner.name}")
    print(f"scheme:            {result.scheme}")
    print(f"arrival rate:      {result.arrival_rate_per_hour:10.1f} /h")
    print(f"arrivals served:   {len(result):10d}")
    if failures or tape_failures:
        print(f"  aborted:         {result.aborted_requests:10d}")
        print(f"availability:      {result.availability:10.2%}")
    if tape_failures:
        repair_summary = result.repair
        print(f"tape losses:       {result.faults.get('tape_losses', 0):10.0f}")
        print(f"objects lost:      {result.objects_lost:10d}")
        print(f"durability:        {result.durability:10.4%}")
        print(f"members rebuilt:   {repair_summary.get('members_rebuilt', 0):10.0f}")
        print(f"repair backlog:    {result.repair_backlog_seconds:10.1f} s")
    print(f"horizon:           {result.horizon_s:10.1f} s")
    print(f"mean sojourn:      {result.mean_sojourn_s:10.1f} s")
    print(f"  mean wait:       {result.mean_wait_s:10.1f} s")
    print(f"  mean service:    {result.mean_service_s:10.1f} s")
    print(f"p50 sojourn:       {result.sojourn_percentile(50):10.1f} s")
    print(f"p95 sojourn:       {result.sojourn_percentile(95):10.1f} s")
    print(f"utilization:       {result.utilization:10.2%}")
    print(f"peak in flight:    {result.peak_in_flight:10d}")
    for name in sorted(result.resources):
        summary = result.resources[name]
        print(
            f"resource {name:<10s} grants={summary['grants']:<6.0f}"
            f" max_in_use={summary['max_in_use']:<4.0f}"
            f" busy={summary['busy_s']:10.1f} s"
        )
    if args.window is not None:
        print()
        print(f"{'window':>20s} {'arr':>4s} {'done':>4s} {'in-flight':>9s} "
              f"{'p50':>8s} {'p95':>8s}")
        for w in result.windowed(args.window):
            print(
                f"[{w.start_s:8.0f},{w.end_s:8.0f}) {w.arrivals:4d} {w.completions:4d} "
                f"{w.mean_in_flight:9.2f} {w.p50_sojourn_s:8.1f} {w.p95_sojourn_s:8.1f}"
            )
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from .experiments import paper_workload
    from .sim import DriveFaultProcess, RetryPolicy, TapeFailure, TransientFaults

    failures = _parse_fail_args(getattr(args, "fail", None))
    tape_failures = _parse_fail_args(
        getattr(args, "fail_tape", None), flag="--fail-tape", what="TAPE"
    )
    settings = _settings(args)
    workload = paper_workload(settings)
    spec = settings.spec()
    kwargs = {"m": args.m} if args.scheme == "parallel_batch" else {}
    scheme = make_scheme(args.scheme, **kwargs)
    if args.redundancy:
        from .redundancy import wrap_scheme

        scheme = wrap_scheme(scheme, args.redundancy)
    session = SimulationSession(workload, spec, scheme=scheme)

    faults: List = [
        DriveFaultProcess(
            mtbf_s=args.mtbf * 3600.0,
            mttr_s=args.mttr * 3600.0,
            distribution=args.distribution,
            shape=args.shape,
        )
    ]
    if args.transient_prob > 0:
        faults.append(
            TransientFaults(
                probability=args.transient_prob,
                retry=RetryPolicy(max_retries=args.retries),
            )
        )
    _check_fault_ids(session, failures, tape_failures)
    for tape, at_s in sorted(tape_failures.items()):
        faults.append(TapeFailure(tape, at_s=at_s))
    fault_seed = args.fault_seed if args.fault_seed is not None else args.seed
    sample_period = args.sample_period
    if sample_period is None and args.report:
        sample_period = 300.0
    result = session.open(
        policy="concurrent",
        failures=failures or None,
        faults=tuple(faults),
        fault_seed=fault_seed,
        repair_policy=args.repair_policy,
        read_selection=args.read_selection or "least-loaded",
    ).run(
        args.rate,
        num_arrivals=args.arrivals,
        seed=args.seed,
        sample_period_s=sample_period,
    )

    faults_summary = result.faults
    print(f"scheme:            {result.scheme}")
    print(f"arrival rate:      {result.arrival_rate_per_hour:10.1f} /h")
    print(f"drive MTBF/MTTR:   {args.mtbf:.2f} h / {args.mttr:.2f} h "
          f"({args.distribution}, seed {fault_seed})")
    print(f"arrivals served:   {len(result):10d}")
    print(f"  aborted:         {result.aborted_requests:10d}")
    print(f"horizon:           {result.horizon_s:10.1f} s")
    print(f"availability:      {result.availability:10.2%}")
    print(f"degraded time:     {result.degraded_time_s:10.1f} s "
          f"({result.degraded_time_s / result.horizon_s:.1%} of horizon)")
    print(f"drive failures:    {faults_summary['drive_failures']:10.0f}")
    print(f"drive repairs:     {faults_summary['drive_repairs']:10.0f}")
    print(f"transient errors:  {faults_summary['transient_errors']:10.0f}")
    print(f"  retries:         {faults_summary['retries']:10.0f}")
    print(f"  escalations:     {faults_summary['escalations']:10.0f}")
    if tape_failures:
        repair_summary = result.repair
        print(f"tape losses:       {faults_summary.get('tape_losses', 0):10.0f}")
        print(f"repair policy:     {repair_summary.get('policy', 'user-first'):>10s}")
        print(f"objects lost:      {result.objects_lost:10d}")
        print(f"durability:        {result.durability:10.4%}")
        print(f"members rebuilt:   {repair_summary.get('members_rebuilt', 0):10.0f}")
        print(f"groups degraded:   {repair_summary.get('groups_degraded', 0):10.0f}")
        print(f"repair backlog:    {result.repair_backlog_seconds:10.1f} s")
    if args.redundancy and result.registry is not None:
        counters = result.registry.counters
        fallbacks = counters.get("redundancy.fallbacks")
        unservable = counters.get("redundancy.unservable")
        print(f"redundancy:        {args.redundancy:>10s}")
        print(f"  replica fallbacks: {fallbacks.value if fallbacks else 0:8.0f}")
        print(f"  unservable groups: {unservable.value if unservable else 0:8.0f}")
    print(f"mean sojourn:      {result.mean_sojourn_s:10.1f} s")
    print(f"p95 sojourn:       {result.sojourn_percentile(95):10.1f} s")

    if args.out_dir:
        from pathlib import Path

        out = Path(args.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        trace_path = out / "trace.json"
        metrics_path = out / "metrics.jsonl"
        result.write_trace(trace_path)
        lines = result.write_metrics(metrics_path)
        logger.info("trace:             %s  (open at https://ui.perfetto.dev)",
                    trace_path)
        logger.info("metrics:           %s  (%d lines)", metrics_path, lines)

    status = 0
    if args.slo or args.report:
        from .obs import FleetRegistry
        from .obs.fleet import snapshot_of_result

        fleet = FleetRegistry()
        fleet.fold(snapshot_of_result(result, point_meta={
            "sweep": "chaos",
            "scheme": result.scheme,
            "kind": "chaos",
        }))
        slos = _parse_slo_args(args.slo)
        verdicts = ()
        if slos:
            from .obs import evaluate_slos

            verdicts = evaluate_slos(slos, fleet)
        if args.report:
            from .obs import write_dashboard

            snapshots = result.registry.snapshots if result.registry else None
            write_dashboard(
                fleet,
                args.report,
                verdicts=verdicts,
                snapshots=snapshots,
                title="repro-tape chaos run",
                subtitle=f"MTBF {args.mtbf:g} h / MTTR {args.mttr:g} h "
                f"({args.distribution}), {len(result)} arrivals",
            )
            logger.info("dashboard:         %s", args.report)
        if verdicts:
            from .obs import format_verdicts

            print()
            print(format_verdicts(verdicts))
            status = 0 if all(v.passed for v in verdicts) else 1
    return status


def _cmd_profile(args: argparse.Namespace) -> int:
    import cProfile
    import pstats
    from time import perf_counter

    from .experiments import paper_workload

    settings = _settings(args)
    workload = paper_workload(settings)
    spec = settings.spec()
    kwargs = {"m": args.m} if args.scheme == "parallel_batch" else {}
    session = SimulationSession(workload, spec, scheme=make_scheme(args.scheme, **kwargs))
    opensys = session.open(policy=args.policy, seek_planner=args.seek_planner)

    profiler = cProfile.Profile()
    start = perf_counter()
    profiler.enable()
    result = opensys.run(args.rate, num_arrivals=args.arrivals, seed=args.seed)
    profiler.disable()
    wall = perf_counter() - start

    events = opensys.env.events_processed
    print(f"policy:            {result.policy}")
    print(f"scheme:            {result.scheme}")
    print(f"seek planner:      {opensys.seek_planner.name}")
    print(f"arrivals served:   {len(result):10d}")
    print(f"horizon:           {result.horizon_s:10.1f} s")
    print(f"wall time:         {wall:10.3f} s")
    print(f"events processed:  {events:10d}")
    print(f"events/sec:        {events / wall:10,.0f}")
    print(f"spans recorded:    {len(result.spans()):10d}")
    print()

    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.sort_stats(args.sort).print_stats(args.top)

    if args.stats_out:
        stats.dump_stats(args.stats_out)
        print(f"raw profile:       {args.stats_out}")
    if args.trace_out:
        from pathlib import Path

        if not result.spans():
            print(
                "warning: no spans recorded (tracing disabled?); skipping "
                "--trace-out export",
                file=sys.stderr,
            )
        else:
            out = Path(args.trace_out)
            out.mkdir(parents=True, exist_ok=True)
            trace_path = out / "trace.json"
            metrics_path = out / "metrics.jsonl"
            result.write_trace(trace_path)
            lines = result.write_metrics(metrics_path)
            print(f"trace:             {trace_path}  (open at https://ui.perfetto.dev)")
            print(f"metrics:           {metrics_path}  ({lines} lines)")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .des import trace_enabled_by_env
    from .experiments import paper_workload
    from .obs import render_request_flame, validate_chrome_trace

    if not trace_enabled_by_env():
        print(
            "error: tracing is disabled by REPRO_TRACE in the environment; "
            "unset it (or set REPRO_TRACE=1) to export a trace",
            file=sys.stderr,
        )
        return 2

    settings = _settings(args)
    workload = paper_workload(settings)
    spec = settings.spec()
    kwargs = {"m": args.m} if args.scheme == "parallel_batch" else {}
    session = SimulationSession(workload, spec, scheme=make_scheme(args.scheme, **kwargs))
    result = session.open(policy=args.policy).run(
        args.rate,
        num_arrivals=args.requests,
        seed=args.seed,
        sample_period_s=args.sample_period,
    )

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    trace_path = out / "trace.json"
    metrics_path = out / "metrics.jsonl"
    doc = result.write_trace(trace_path)
    lines = result.write_metrics(metrics_path)
    print(f"policy:            {result.policy}")
    print(f"scheme:            {result.scheme}")
    print(f"requests served:   {len(result):10d}")
    print(f"horizon:           {result.horizon_s:10.1f} s")
    print(f"spans recorded:    {len(result.spans()):10d}")
    print(f"trace:             {trace_path}  (open at https://ui.perfetto.dev)")
    print(f"metrics:           {metrics_path}  ({lines} lines)")
    print()

    report = result.stage_report()
    print(report.format())

    if args.flames > 0:
        spans = result.spans()
        slowest = sorted(report.requests, key=lambda r: -r.response_s)[: args.flames]
        for attribution in slowest:
            print()
            print(render_request_flame(spans, attribution.request_id))

    if args.validate:
        problems = validate_chrome_trace(doc)
        print()
        if problems:
            print(f"trace validation FAILED ({len(problems)} problems):")
            for problem in problems:
                print(f"  - {problem}")
            return 1
        print("trace validation OK: spans parented, durations non-negative, "
              "tracks per drive")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .obs import (
        evaluate_slos,
        format_verdicts,
        read_fleet_jsonl,
        read_metrics_jsonl,
        write_dashboard,
    )

    path = Path(args.input)
    if not path.exists():
        print(f"error: no such file: {path}", file=sys.stderr)
        return 2
    try:
        fleet = read_fleet_jsonl(path)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not fleet.counters and not fleet.digests:
        print(
            f"error: {path} holds no mergeable fleet telemetry "
            "(expected fleet JSONL from `sweep --metrics-out` or metrics "
            "JSONL from `chaos`/`trace` with a registry_export record)",
            file=sys.stderr,
        )
        return 2

    # A metrics JSONL also carries the periodic registry snapshots that
    # drive the drives-down timeline; on fleet JSONL this yields nothing.
    snapshots = None
    try:
        _, snaps = read_metrics_jsonl(path)
        if snaps:
            snapshots = snaps
    except (ValueError, KeyError):
        pass

    slos = _parse_slo_args(args.slo)
    verdicts = evaluate_slos(slos, fleet) if slos else ()
    write_dashboard(
        fleet,
        args.out,
        verdicts=verdicts,
        snapshots=snapshots,
        title=args.title or "repro-tape fleet report",
        subtitle=str(path),
    )
    logger.info("dashboard:         %s", args.out)
    if verdicts:
        print(format_verdicts(verdicts))
        return 0 if all(v.passed for v in verdicts) else 1
    return 0


def _format_feed_record(record: dict) -> str:
    """One human line per fleet/feed/metrics JSONL record."""
    kind = record.get("type", "?")
    if kind == "progress":
        return (
            f"[progress]    {record.get('point', '?')}  "
            f"completed={record.get('completed', '?')}  "
            f"t={record.get('t_s', 0.0):.0f}s"
        )
    if kind in ("point_start", "point_done"):
        tag = "start" if kind == "point_start" else "done "
        note = ""
        if kind == "point_done" and record.get("cached"):
            note = "  (cached)"
        return f"[point {tag}] {record.get('point', '?')}{note}"
    if kind == "point_snapshot":
        point = record.get("point", {})
        label = (
            f"{point.get('sweep', '?')}/{point.get('axis', '?')}="
            f"{point.get('value', '?')}"
            if point
            else "?"
        )
        counters = record.get("counters", {})
        return (
            f"[snapshot]    {label}  "
            f"completed={counters.get('requests.completed', 0):g}"
        )
    if kind == "fleet_meta":
        return f"[fleet]       snapshots={record.get('snapshots', '?')}"
    if kind == "meta":
        return f"[meta]        units={len(record.get('units', {}))} metrics"
    if kind == "snapshot":
        return (
            f"[t={record.get('t_s', 0.0):>8.0f}s] "
            f"counters={record.get('counters', {})}"
        )
    if kind == "registry_export":
        return (
            f"[export]      counters={len(record.get('counters', {}))} "
            f"digests={len(record.get('digests', {}))}"
        )
    import json

    return json.dumps(record)


def _cmd_metrics(args: argparse.Namespace) -> int:
    import json
    import time
    from pathlib import Path

    path = Path(args.input)
    if not path.exists():
        print(f"error: no such file: {path}", file=sys.stderr)
        return 2
    try:
        with path.open() as fh:
            buffered = ""
            while True:
                chunk = fh.readline()
                if chunk:
                    buffered += chunk
                    if not buffered.endswith("\n"):
                        continue  # partial line from a mid-write reader
                    line, buffered = buffered.strip(), ""
                    if line:
                        try:
                            print(_format_feed_record(json.loads(line)))
                        except json.JSONDecodeError:
                            logger.debug("skipping unparseable line: %r", line)
                    continue
                if not args.follow:
                    break
                time.sleep(args.interval)
    except KeyboardInterrupt:
        pass
    except BrokenPipeError:
        # Piped into `head` and the reader hung up: that's a normal way to
        # consume a stream, not an error.  Point stdout at devnull so the
        # interpreter's shutdown flush doesn't raise again.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0


def _cmd_schemes(_args: argparse.Namespace) -> int:
    for name in available_schemes():
        print(name)
    return 0


def _cmd_workload(args: argparse.Namespace) -> int:
    settings = _settings(args)
    workload = generate_workload(
        settings.workload_params, seed=args.seed, zipf_alpha=args.alpha
    )
    print(repr(workload))
    print(f"total size:        {workload.total_size_mb / 1e6:.2f} TB")
    print(f"avg request size:  {workload.average_request_size_mb / 1e3:.1f} GB")
    print(f"max request size:  {workload.max_request_size_mb / 1e3:.1f} GB")
    if args.out:
        dump_workload(workload, args.out)
        print(f"trace written to {args.out}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from .analysis import compare_paired
    from .experiments import paper_workload

    settings = _settings(args)
    workload = paper_workload(settings, alpha=args.alpha)
    spec = settings.spec()
    results = []
    for name in (args.scheme_a, args.scheme_b):
        session = SimulationSession(workload, spec, scheme=make_scheme(name))
        results.append(session.evaluate(num_samples=args.samples, seed=args.seed))
    comparison = compare_paired(results[0], results[1], metric=args.metric)
    print(comparison)
    print(
        f"{args.scheme_a} had the lower {args.metric} in "
        f"{comparison.frac_a_lower:.0%} of {args.samples} paired samples"
    )
    return 0


def _cmd_reproduce(args: argparse.Namespace) -> int:
    from pathlib import Path

    settings = _settings(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    ids = args.only or sorted(ALL_EXPERIMENTS)
    index_lines = [
        "# Reproduction results",
        "",
        f"scale: {settings.scale}, samples: {settings.samples}, "
        f"workload seed: {settings.workload_seed}, eval seed: {settings.eval_seed}",
        "",
    ]
    for exp_id in ids:
        logger.info("[%s] running ...", exp_id)
        table = ALL_EXPERIMENTS[exp_id](settings)
        (out / f"{exp_id}.txt").write_text(table.format() + "\n")
        (out / f"{exp_id}.csv").write_text(table.to_csv())
        chart = chart_table(table)
        if chart:
            (out / f"{exp_id}.chart.txt").write_text(chart + "\n")
        index_lines.append(f"- **{table.experiment_id}** ({exp_id}): {table.title}")
        print(table.format())
        print()
    (out / "INDEX.md").write_text("\n".join(index_lines) + "\n")
    logger.info("results written to %s/", out)
    return 0


_COMMANDS = {
    "experiment": _cmd_experiment,
    "sweep": _cmd_sweep,
    "reproduce": _cmd_reproduce,
    "run": _cmd_run,
    "open": _cmd_open,
    "chaos": _cmd_chaos,
    "profile": _cmd_profile,
    "trace": _cmd_trace,
    "report": _cmd_report,
    "metrics": _cmd_metrics,
    "compare": _cmd_compare,
    "schemes": _cmd_schemes,
    "workload": _cmd_workload,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    _configure_logging(args)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
