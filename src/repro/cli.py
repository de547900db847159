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

Every flag that more than one subcommand takes is declared once, in
:func:`_shared_flags`, with an argparse ``type`` that checks its domain;
rules that tie flags together live in :func:`_check_args`.  Either way a
bad command line is a usage error (exit 2) before any workload is built.

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
    repro-tape trace --arrivals 50 --policy concurrent --out-dir telemetry
    repro-tape report fleet.jsonl --out report.html --slo "aborted_requests == 0"
    repro-tape metrics feed.jsonl --follow
    repro-tape workload --out trace.json --alpha 0.6
"""

from __future__ import annotations

import argparse
import logging
import math
import sys
from typing import Dict, List, Optional, Tuple

from .des import trace_enabled_by_env
from .experiments import (
    ALL_EXPERIMENTS,
    SWEEP_EXPERIMENTS,
    EngineOptions,
    ExperimentSettings,
    chart_table,
    default_cache_dir,
    default_settings,
)
from .hardware import TapeSystem
from .placement import PlacementError, available_schemes, make_scheme
from .redundancy import parse_redundancy, wrap_scheme
from .sim import (
    READ_SELECTIONS,
    REPAIR_POLICIES,
    DriveFailure,
    SimulationSession,
    TapeFailure,
    available_scheduling_policies,
    available_seek_planners,
    known_drive_names,
    known_tape_names,
)
from .sim.opensystem import SCHEDULING_POLICIES
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


def _bounded(convert, admissible, what: str):
    """argparse ``type=``: ``convert`` the text, then require it finite and
    ``admissible``.

    Numeric flags are checked here so a bad value is a usage error (exit 2)
    before any workload is generated or placed.
    """

    def parse(text: str):
        value = convert(text)
        if not (math.isfinite(value) and admissible(value)):
            raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")
        return value

    parse.__name__ = convert.__name__  # argparse names it in "invalid ... value"
    return parse


def _positive(convert):
    return _bounded(convert, lambda value: value > 0, "a finite number > 0")


def _non_negative(convert):
    return _bounded(convert, lambda value: value >= 0, "a finite number >= 0")


_probability = _bounded(float, lambda value: 0 <= value <= 1, "a probability in [0, 1]")


def _validated(check):
    """argparse ``type=`` that keeps the text once ``check(text)`` accepts it.

    ``check`` raises ``ValueError`` on a bad value; its message becomes the
    usage error.  The text itself is kept because settings and sweep cache
    keys carry the spec string, not its parsed form.
    """

    def parse(text: str) -> str:
        try:
            check(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return text

    return parse


def _fault_at(flag: str, what: str):
    """argparse ``type=`` for ``--fail``/``--fail-tape``: ``NAME=TIME`` ->
    ``(name, seconds)``.

    A malformed value prints the one line ``error: <flag> ...`` that these
    flags have always printed and exits 2 right here, without argparse's
    usage block.
    """

    def parse(text: str) -> Tuple[str, float]:
        name, sep, at_s = text.partition("=")
        if not sep or not name:
            problem = f"expects {what}=TIME"
        else:
            try:
                at = float(at_s)
            except ValueError:
                at = math.nan
            if math.isfinite(at) and at >= 0:
                return name, at
            problem = "time must be a number, finite and >= 0"
        print(f"error: {flag} {problem}, got {text!r}", file=sys.stderr)
        raise SystemExit(2)

    return parse


def _shared_flags() -> Dict[str, Tuple[str, Tuple[str, ...], dict]]:
    """Every flag more than one subcommand takes, declared once.

    Maps ``dest -> (help group, option strings, add_argument keywords)``.
    Subcommands pick flags by name through :func:`_shared` and keep a
    different default with ``set_defaults``.  Built per parser because the
    scheme and policy registries can grow after import.
    """
    return {
        # -- archive: which system is simulated ---------------------------
        "scale": ("archive", ("--scale",), dict(
            choices=["paper", "small"], default=None,
            help="paper = 30k objects / Table-1 system; small = ~10x smaller",
        )),
        "scheme": ("archive", ("--scheme",), dict(
            default="parallel_batch", choices=sorted(available_schemes()),
        )),
        "m": ("archive", ("--m",), dict(
            type=_positive(int), default=4,
            help="switch drives per library (parallel_batch; 1..d-1)",
        )),
        "redundancy": ("archive", ("--redundancy",), dict(
            type=_validated(parse_redundancy), default=None, metavar="SPEC",
            help="wrap the scheme in a redundancy layer: 'r=<copies>' for "
            "replication or 'k=<data>,n=<total>' for erasure coding "
            "(see docs/redundancy.md)",
        )),
        "seek_planner": ("archive", ("--seek-planner",), dict(
            default=None, choices=sorted(available_seek_planners()),
            help="within-tape retrieval-order planner (default: greedy-sweep; "
            "see docs/seek_planning.md)",
        )),
        # -- sampling: what is drawn, and from which seed -----------------
        "num_samples": ("sampling", ("--num-samples", "--samples"), dict(
            type=_positive(int), default=None, metavar="N",
            help="sampled requests per configuration (paper uses 200)",
        )),
        "seed": ("sampling", ("--seed",), dict(
            type=_non_negative(int), default=0,
            help="seed of the sampled requests and arrivals; `workload` "
            "seeds the generator with it (default: %(default)s)",
        )),
        "alpha": ("sampling", ("--alpha",), dict(
            type=_non_negative(float), default=0.3, help="Zipf popularity skew",
        )),
        # -- arrivals: the open-system request stream ---------------------
        "policy": ("arrivals", ("--policy",), dict(
            default="concurrent", choices=sorted(available_scheduling_policies()),
            help="request-scheduling policy (serial-fcfs reproduces the "
            "closed loop; default: %(default)s)",
        )),
        "rate": ("arrivals", ("--rate",), dict(
            type=_positive(float), default=8.0,
            help="Poisson arrival rate per hour (default: %(default)s)",
        )),
        "arrivals": ("arrivals", ("--arrivals", "--requests"), dict(
            type=_positive(int), default=60, metavar="N",
            help="number of arrivals to serve (default: %(default)s)",
        )),
        # -- faults: injected losses and how repair competes --------------
        "fail": ("faults", ("--fail",), dict(
            type=_fault_at("--fail", "DRIVE"), action="append", default=None,
            metavar="DRIVE=TIME",
            help="fail a drive permanently at an absolute time in seconds, "
            "e.g. --fail L0.D0=1800 (repeatable; needs --policy concurrent)",
        )),
        "fail_tape": ("faults", ("--fail-tape",), dict(
            type=_fault_at("--fail-tape", "TAPE"), action="append", default=None,
            metavar="TAPE=TIME",
            help="destroy a cartridge (whole-tape media loss) at an absolute "
            "time in seconds, e.g. --fail-tape L0.T3=1800 (repeatable; the "
            "repair manager re-replicates redundant data, see "
            "docs/robustness.md)",
        )),
        "repair_policy": ("faults", ("--repair-policy",), dict(
            default=None, choices=sorted(REPAIR_POLICIES),
            help="how media-loss repair traffic competes with user restores "
            "(default: user-first)",
        )),
        "read_selection": ("faults", ("--read-selection",), dict(
            default=None, choices=sorted(READ_SELECTIONS),
            help="redundant-read member ordering: least-loaded library "
            "(default) or cheapest member (mounted tape first, then lowest "
            "estimated drive time)",
        )),
        # -- telemetry outputs --------------------------------------------
        "out_dir": ("telemetry", ("--out-dir",), dict(
            default=None, metavar="DIR",
            help="export trace.json + metrics.jsonl telemetry to DIR "
            "(trace: telemetry/ unless given)",
        )),
        "slo": ("telemetry", ("--slo",), dict(
            type=_validated(lambda text: _parse_slo_args([text])),
            action="append", default=None, metavar="SPEC",
            help="service-level objective, e.g. 'p99_sojourn <= 600' "
            "(repeatable; 'default' expands to the chaos defaults; non-zero "
            "exit on failure)",
        )),
        "report": ("telemetry", ("--report",), dict(
            default=None, metavar="PATH",
            help="render the fleet dashboard to this HTML file",
        )),
        "sample_period": ("telemetry", ("--sample-period",), dict(
            type=_positive(float), default=None, metavar="SECONDS",
            help="periodic registry snapshot period in simulated seconds "
            "(feeds metrics.jsonl and the dashboard's drives-down timeline)",
        )),
        # -- tables --------------------------------------------------------
        "chart": ("tables", ("--chart",), dict(
            action="store_true", help="also draw the series as a terminal chart",
        )),
        "csv": ("tables", ("--csv",), dict(
            metavar="PATH", help="also write the table as CSV",
        )),
    }


def _shared(flags, names) -> argparse.ArgumentParser:
    """A fresh parent parser holding the named shared flags in help groups.

    Fresh for every subcommand: argparse hands a parent's action objects
    to each child as they are, so one subcommand's ``set_defaults`` would
    otherwise move the default on every other subcommand too.
    """
    parent = argparse.ArgumentParser(add_help=False)
    groups: Dict[str, argparse._ArgumentGroup] = {}
    for name in names:
        title, option_strings, kwargs = flags[name]
        if title not in groups:
            groups[title] = parent.add_argument_group(title)
        groups[title].add_argument(*option_strings, dest=name, **kwargs)
    return parent


_ARCHIVE = ("scale", "scheme", "m")
_ARRIVALS = ("policy", "rate", "arrivals", "seed")
_FAULTS = ("fail", "fail_tape", "repair_policy", "read_selection")


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
    flags = _shared_flags()

    def command(name: str, *shared: str, **kwargs) -> argparse.ArgumentParser:
        return sub.add_parser(name, parents=[_shared(flags, shared)], **kwargs)

    exp = command(
        "experiment", "scale", "num_samples", "chart", "csv",
        help="run a paper experiment and print its table",
    )
    exp.add_argument(
        "id",
        choices=sorted(ALL_EXPERIMENTS),
        help="experiment id (see DESIGN.md §3)",
    )

    sw = command(
        "sweep", "scale", "num_samples", "seek_planner", "redundancy",
        "chart", "csv", "slo", "report",
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
        type=_positive(int),
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
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="write the merged fleet telemetry as JSONL "
        "(render later with `repro-tape report`)",
    )
    sw.add_argument(
        "--feed",
        default=None,
        metavar="PATH",
        help="stream live point/progress records to this JSONL file while "
        "the sweep runs (tail with `repro-tape metrics PATH --follow`)",
    )

    run = command(
        "run", *_ARCHIVE, "num_samples", "seed", "alpha",
        help="evaluate one scheme on one configuration",
    )
    run.add_argument("--libraries", type=_positive(int), default=3)
    run.add_argument("--workload-seed", type=_non_negative(int), default=20060814)
    run.set_defaults(num_samples=200)

    op = command(
        "open", *_ARCHIVE, "redundancy", "seek_planner", *_ARRIVALS, *_FAULTS,
        help="serve a Poisson arrival stream on one persistent environment",
    )
    op.add_argument(
        "--window",
        type=_positive(float),
        default=None,
        metavar="SECONDS",
        help="also print tumbling-window stats of this width",
    )
    op.set_defaults(rate=4.0)

    ch = command(
        "chaos", *_ARCHIVE, "redundancy", "rate", "arrivals", "seed", *_FAULTS,
        "out_dir", "slo", "report", "sample_period",
        help="open-system run under stochastic drive fail/repair faults",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        description=(
            "Serves a Poisson arrival stream while every drive runs an\n"
            "independent stochastic fail/repair process (exponential or\n"
            "Weibull MTBF/MTTR), optionally with transient mount/read errors\n"
            "retried with capped exponential backoff.  Fault timing draws\n"
            "from substreams of --fault-seed, so runs are bit-reproducible.\n"
            "Prints availability, degraded time, and fault counters next to\n"
            "the usual sojourn statistics.  --sample-period defaults to 300\n"
            "when --report is set.  See docs/robustness.md.\n"
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
    ch.add_argument(
        "--mtbf", type=_positive(float), default=4.0, metavar="HOURS",
        help="mean time between drive failures (default: 4 h)",
    )
    ch.add_argument(
        "--mttr", type=_positive(float), default=0.5, metavar="HOURS",
        help="mean time to repair a failed drive (default: 0.5 h)",
    )
    ch.add_argument(
        "--distribution", default="exponential", choices=["exponential", "weibull"],
        help="time-to-failure/repair distribution",
    )
    ch.add_argument(
        "--shape", type=_positive(float), default=1.0,
        help="Weibull shape k (>1 wear-out, <1 infant mortality)",
    )
    ch.add_argument(
        "--transient-prob", type=_probability, default=0.0, metavar="P",
        help="per-attempt transient mount/read error probability",
    )
    ch.add_argument(
        "--retries", type=_non_negative(int), default=4, metavar="N",
        help="transient retries before escalating to a hard failure",
    )
    ch.add_argument(
        "--fault-seed", type=_non_negative(int), default=None,
        help="root seed of the fault-timing substreams (default: --seed)",
    )

    tr = command(
        "trace", *_ARCHIVE, *_ARRIVALS, "out_dir", "sample_period",
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
        "--flames", type=_non_negative(int), default=1, metavar="N",
        help="print text flame trees of the N slowest requests",
    )
    tr.add_argument(
        "--validate",
        action="store_true",
        help="validate the exported trace against the trace_event schema; "
        "non-zero exit on problems",
    )
    tr.set_defaults(arrivals=50, out_dir="telemetry", sample_period=300.0)

    pf = command(
        "profile", *_ARCHIVE, "seek_planner", *_ARRIVALS,
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
        "--top", type=_positive(int), default=25, metavar="N",
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
    pf.set_defaults(policy="serial-fcfs")

    cmp_p = command(
        "compare", "scale", "num_samples", "seed", "alpha",
        help="paired statistical comparison of two schemes",
    )
    cmp_p.add_argument("scheme_a", choices=sorted(available_schemes()))
    cmp_p.add_argument("scheme_b", choices=sorted(available_schemes()))
    cmp_p.add_argument("--metric", default="response_s",
                       choices=["response_s", "bandwidth_mb_s", "switch_s", "seek_s", "transfer_s"])
    cmp_p.set_defaults(num_samples=200)

    rep = command(
        "reproduce", "scale", "num_samples",
        help="run every experiment (T1, F5-F9, E1-E3, A1-A8) and write a results directory",
    )
    rep.add_argument("--out", default="results", help="output directory (default: results/)")
    rep.add_argument(
        "--only",
        nargs="*",
        choices=sorted(ALL_EXPERIMENTS),
        help="restrict to these experiment ids",
    )

    rpt = command(
        "report", "slo",
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
        type=_positive(float),
        default=0.5,
        metavar="SECONDS",
        help="poll interval while following (default: 0.5)",
    )

    sub.add_parser("schemes", help="list registered placement schemes")

    wl = command(
        "workload", "scale", "seed", "alpha",
        help="generate a workload; print stats or dump JSON",
    )
    wl.add_argument("--out", help="path for the JSON trace (omit to just print stats)")
    wl.set_defaults(seed=20060814)

    return parser


def _subcommand(parser: argparse.ArgumentParser, name: str) -> argparse.ArgumentParser:
    """The subparser ``build_parser`` registered as ``name``."""
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices[name]


def _fault_map(args: argparse.Namespace, dest: str) -> Dict[str, float]:
    """``--fail``/``--fail-tape`` pairs as ``{name: seconds}`` (last wins)."""
    return dict(getattr(args, dest, None) or ())


#: The flag (and its dest) through which each command exports a span trace.
_TRACE_EXPORTS = {
    "trace": ("--out-dir", "out_dir"),
    "chaos": ("--out-dir", "out_dir"),
    "profile": ("--trace-out", "trace_out"),
}


def _check_args(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    """Cross-flag rules, checked after parsing and before any workload is built.

    A violation is a usage error reported through the subcommand's
    ``parser.error`` (one line, exit 2):

    * ``--m`` must be in 1..d-1 for the chosen scale's drives per library;
    * a trace export (``trace``, ``chaos --out-dir``, ``profile
      --trace-out``) needs tracing, which ``REPRO_TRACE`` can switch off;
    * ``--fail``/``--fail-tape`` need a policy that supports faults and ids
      that name a drive/tape of the configured system.
    """
    if not hasattr(args, "scale"):
        return  # report, metrics, schemes: no simulated system
    error = _subcommand(parser, args.command).error
    try:
        spec = _settings(args).spec()
    except ValueError as exc:  # an unknown $REPRO_SCALE
        error(str(exc))
    drives = spec.library.num_drives
    if getattr(args, "scheme", None) == "parallel_batch" and args.m > drives - 1:
        error(
            f"argument --m: must be in 1..{drives - 1} (at least one of the "
            f"{drives} drives per library stays mounted), got {args.m}"
        )
    flag, dest = _TRACE_EXPORTS.get(args.command, (None, None))
    if dest and getattr(args, dest) and not trace_enabled_by_env():
        error(
            f"argument {flag}: tracing is disabled by REPRO_TRACE in the "
            "environment; unset it (or set REPRO_TRACE=1) to export a trace"
        )
    failures = {"--fail": _fault_map(args, "fail"), "--fail-tape": _fault_map(args, "fail_tape")}
    given = [flag for flag, ids in failures.items() if ids]
    if not given:
        return
    policy = getattr(args, "policy", "concurrent")
    if not getattr(SCHEDULING_POLICIES[policy], "supports_faults", False):
        error(f"argument {given[0]}: requires --policy concurrent, not {policy!r}")
    system = TapeSystem(spec)
    for flag, what, known in (
        ("--fail", "drive", known_drive_names(system)),
        ("--fail-tape", "tape", known_tape_names(system)),
    ):
        bad = sorted(set(failures[flag]) - set(known))
        if bad:
            error(
                f"argument {flag}: unknown {what} id(s): {', '.join(bad)}; "
                f"known {what}s: {', '.join(known)}"
            )


def _settings(args: argparse.Namespace) -> ExperimentSettings:
    overrides = {}
    for name in ("scale", "num_samples", "seek_planner", "redundancy"):
        value = getattr(args, name, None)
        if value is not None:
            overrides[name] = value
    return default_settings(**overrides)


def _print_table(table, args: argparse.Namespace) -> None:
    """Print an experiment table, plus its ``--chart`` and ``--csv`` forms."""
    print(table.format())
    if args.chart:
        chart = chart_table(table)
        print()
        print(chart if chart else "(no numeric series to chart)")
    if args.csv:
        from pathlib import Path

        Path(args.csv).write_text(table.to_csv())
        logger.info("CSV written to %s", args.csv)


def _cmd_experiment(args: argparse.Namespace) -> int:
    _print_table(ALL_EXPERIMENTS[args.id](_settings(args)), args)
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


def _verdicts_and_dashboard(fleet, slo_specs, report_path, **dashboard) -> int:
    """Judge the ``--slo`` objectives against ``fleet``, render its dashboard
    to ``report_path`` (when given) and print the verdicts.

    Returns the exit status: 1 when an objective failed, else 0.
    """
    from .obs import evaluate_slos, format_verdicts, write_dashboard

    slos = _parse_slo_args(slo_specs)
    verdicts = evaluate_slos(slos, fleet) if slos else ()
    if report_path:
        write_dashboard(fleet, report_path, verdicts=verdicts, **dashboard)
        logger.info("dashboard:         %s", report_path)
    if not verdicts:
        return 0
    print()
    print(format_verdicts(verdicts))
    return 0 if all(v.passed for v in verdicts) else 1


def _export_telemetry(result, out_dir) -> dict:
    """Write ``trace.json`` + ``metrics.jsonl`` under ``out_dir``; returns the
    trace document."""
    from pathlib import Path

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    doc = result.write_trace(out / "trace.json")
    lines = result.write_metrics(out / "metrics.jsonl")
    logger.info("trace:             %s  (open at https://ui.perfetto.dev)",
                out / "trace.json")
    logger.info("metrics:           %s  (%d lines)", out / "metrics.jsonl", lines)
    return doc


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
    _print_table(table, args)

    fleet = table.data.get("fleet")
    if fleet is None:
        if args.metrics_out or args.slo or args.report:
            logger.warning(
                "no fleet telemetry available for this experiment; "
                "--metrics-out/--slo/--report skipped"
            )
        return 0
    if args.metrics_out:
        from .obs import write_fleet_jsonl

        lines = write_fleet_jsonl(fleet, args.metrics_out)
        logger.info("fleet metrics:     %s  (%d lines)", args.metrics_out, lines)
    return _verdicts_and_dashboard(
        fleet,
        args.slo,
        args.report,
        title=f"repro-tape sweep: {args.id}",
        subtitle=f"{stats.get('points', len(fleet.points))} points, "
        f"workers={stats.get('workers', '?')}",
    )


def _cmd_run(args: argparse.Namespace) -> int:
    settings = _settings(args)
    params = settings.workload_params
    workload = generate_workload(params, seed=args.workload_seed, zipf_alpha=args.alpha)
    spec = settings.spec(num_libraries=args.libraries)
    session = SimulationSession(workload, spec, scheme=_scheme(args))
    result = session.evaluate(num_samples=args.num_samples, seed=args.seed)
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


def _scheme(args: argparse.Namespace):
    """The ``--scheme`` placement (``--m`` configures parallel_batch only),
    wrapped in the ``--redundancy`` layer when one is given."""
    kwargs = {"m": args.m} if args.scheme == "parallel_batch" else {}
    scheme = make_scheme(args.scheme, **kwargs)
    if getattr(args, "redundancy", None):
        scheme = wrap_scheme(scheme, args.redundancy)
    return scheme


def _open_session(args: argparse.Namespace, faults=(), **options):
    """Settings -> workload -> scheme (-> redundancy) -> session -> open system.

    The one construction path behind ``open``, ``chaos``, ``profile`` and
    ``trace``.  ``faults`` are armed first, then the ``--fail-tape`` losses,
    then the ``--fail`` drive deaths, each in sorted id order; ``options`` go
    to :meth:`SimulationSession.open` as they are.  A flag the command does
    not take leaves that setting at the library default.
    """
    from .experiments import paper_workload

    settings = _settings(args)
    workload = paper_workload(settings)
    session = SimulationSession(workload, settings.spec(), scheme=_scheme(args))
    tape_losses = tuple(
        TapeFailure(tape, at_s=at_s)
        for tape, at_s in sorted(_fault_map(args, "fail_tape").items())
    )
    drive_losses = tuple(
        DriveFailure(drive, at_s=at_s)
        for drive, at_s in sorted(_fault_map(args, "fail").items())
    )
    return session.open(
        policy=getattr(args, "policy", "concurrent"),
        faults=tuple(faults) + tape_losses + drive_losses,
        seek_planner=getattr(args, "seek_planner", None),
        repair_policy=getattr(args, "repair_policy", None),
        read_selection=getattr(args, "read_selection", None) or "least-loaded",
        **options,
    )


def _cmd_open(args: argparse.Namespace) -> int:
    opensys = _open_session(args)
    result = opensys.run(args.rate, num_arrivals=args.arrivals, seed=args.seed)
    print(f"policy:            {result.policy}")
    print(f"seek planner:      {opensys.seek_planner.name}")
    print(f"scheme:            {result.scheme}")
    print(f"arrival rate:      {result.arrival_rate_per_hour:10.1f} /h")
    print(f"arrivals served:   {len(result):10d}")
    if args.fail or args.fail_tape:
        print(f"  aborted:         {result.aborted_requests:10d}")
        print(f"availability:      {result.availability:10.2%}")
    if args.fail_tape:
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
    from .sim import DriveFaultProcess, RetryPolicy, TransientFaults

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
    fault_seed = args.fault_seed if args.fault_seed is not None else args.seed
    sample_period = args.sample_period
    if sample_period is None and args.report:
        sample_period = 300.0
    result = _open_session(args, faults, fault_seed=fault_seed).run(
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
    if args.fail_tape:
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
        _export_telemetry(result, args.out_dir)
    if not (args.slo or args.report):
        return 0
    from .obs import FleetRegistry
    from .obs.fleet import snapshot_of_result

    fleet = FleetRegistry()
    fleet.fold(snapshot_of_result(result, point_meta={
        "sweep": "chaos",
        "scheme": result.scheme,
        "kind": "chaos",
    }))
    return _verdicts_and_dashboard(
        fleet,
        args.slo,
        args.report,
        snapshots=result.registry.snapshots if result.registry else None,
        title="repro-tape chaos run",
        subtitle=f"MTBF {args.mtbf:g} h / MTTR {args.mttr:g} h "
        f"({args.distribution}), {len(result)} arrivals",
    )


def _cmd_profile(args: argparse.Namespace) -> int:
    import cProfile
    import pstats
    from time import perf_counter

    opensys = _open_session(args)

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
        _export_telemetry(result, args.trace_out)
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from .obs import render_request_flame, validate_chrome_trace

    result = _open_session(args).run(
        args.rate,
        num_arrivals=args.arrivals,
        seed=args.seed,
        sample_period_s=args.sample_period,
    )
    doc = _export_telemetry(result, args.out_dir)
    print(f"policy:            {result.policy}")
    print(f"scheme:            {result.scheme}")
    print(f"requests served:   {len(result):10d}")
    print(f"horizon:           {result.horizon_s:10.1f} s")
    print(f"spans recorded:    {len(result.spans()):10d}")
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

    from .obs import read_fleet_jsonl, read_metrics_jsonl

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

    return _verdicts_and_dashboard(
        fleet,
        args.slo,
        args.out,
        snapshots=snapshots,
        title=args.title or "repro-tape fleet report",
        subtitle=str(path),
    )

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
        results.append(session.evaluate(num_samples=args.num_samples, seed=args.seed))
    comparison = compare_paired(results[0], results[1], metric=args.metric)
    print(comparison)
    print(
        f"{args.scheme_a} had the lower {args.metric} in "
        f"{comparison.frac_a_lower:.0%} of {args.num_samples} paired samples"
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
    parser = build_parser()
    args = parser.parse_args(argv)
    _check_args(parser, args)
    _configure_logging(args)
    try:
        return _COMMANDS[args.command](args)
    except PlacementError as exc:
        # A placement that does not fit depends on the generated data, so
        # no flag's domain can catch it before the workload is built.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
