"""Run one workload of the sweep-path ledger and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper-closed --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30     # every workload
    python3 perfbench/run.py --workload open-knee --seed 1 --held-out # held-out seed

Each workload runs in a fresh interpreter (``--workload all`` starts one
child per workload and waits for it), single-threaded, with every
``REPRO_*`` variable removed and a private cache directory that is deleted
afterwards.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it are the human-readable ledger and its provenance.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def scrub_environment() -> None:
    """Run before numpy or repro is imported: drop every inherited repro
    knob (workers, cache directory, scale, scheduler, shard workers, quick
    mode, tracing) and keep BLAS from starting thread pools."""
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        del os.environ[name]
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"


def _git_commit() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--held-out",
        action="store_true",
        help="map --seed into the held-out seed range, disjoint from every "
        "plain --seed value, to re-check a claim on unseen inputs",
    )
    return parser.parse_args(argv)


def _run_all(args, names) -> int:
    """One fresh interpreter per workload, run one after another."""
    status = 0
    for name in names:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ] + (["--held-out"] if args.held_out else [])
        print(f"== {name}", flush=True)
        status = max(status, subprocess.run(cmd, cwd=ROOT).returncode)
    return status


def main(argv=None) -> int:
    args = _parse(argv)
    scrub_environment()
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    try:
        import numpy
        import ledger
        import repro
    except ImportError as exc:
        print(f"perfbench: cannot import the package under test: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args, ledger.WORKLOADS)
    if args.workload not in ledger.WORKLOADS:
        known = ", ".join(ledger.WORKLOADS)
        print(f"perfbench: unknown workload {args.workload!r}; known: {known}, all",
              file=sys.stderr)
        return 2

    seed = args.seed + (ledger.HELD_OUT_OFFSET if args.held_out else 0)
    report = ledger.run(
        args.workload,
        seed,
        args.seconds,
        bool(args.trace),
        tmp_root=ROOT / ".perfbench-tmp",
        log=lambda line: print(f"# {line}", flush=True),
    )
    catalogue = ledger.PER_LAYER if args.trace else ledger.END_TO_END
    provenance = {
        "workload": args.workload,
        "seed": seed,
        "held_out": args.held_out,
        "trace": bool(args.trace),
        "seconds": args.seconds,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "repro": repro.__version__,
        "commit": _git_commit(),
        "clock": "process CPU time (time.process_time); sim_* are simulated",
        "host_slowdown": report.host_slowdown,
        "error_fraction": report.failed / report.attempted,
        "units": {k: {"unit": u, "better": b} for k, (u, b) in catalogue.items()},
    }
    print("# provenance " + json.dumps(provenance, sort_keys=True))
    print("# passes " + json.dumps(report.samples, sort_keys=True))
    for error in report.errors:
        print(f"# error {error}")
    print(f"# {'metric':<38} {'value':>14}  unit      better  passes")
    for name, value in report.metrics.items():
        unit, better = catalogue[name]
        n = len(report.samples.get(name, report.samples.get(f"traced.{name}", ())))
        print(f"# {name:<38} {value:>14.6g}  {unit:<8}  {better:<6}  {n or '-'}")
    print(f"# {'error_fraction':<38} {report.failed / report.attempted:>14.6g}  "
          f"{'fraction':<8}  lower   {report.attempted}")
    result = {
        "correct": report.failed == 0 and bool(report.metrics),
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {
            name: {"value": value, "unit": catalogue[name][0]}
            for name, value in report.metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
