"""Shared fixtures for the benchmark suite.

Benchmarks run the paper-scale experiments (30 000 objects, Table-1 system,
200 sampled requests) unless overridden:

* ``REPRO_SCALE=small`` — ~10x smaller workload and tapes (the full-rounds
  small run: ``REPRO_SCALE=small pytest benchmarks/``);
* ``--quick`` / ``REPRO_BENCH_QUICK=1`` — quick mode: force the small
  scale and let timing benches drop to one round / fewer arrivals, so a CI
  smoke job can run the suite in minutes (see the ``quick`` fixture).

Each ``bench_*`` file regenerates one row of DESIGN.md §3's experiment
index, prints the table the paper's figure reports, and asserts the
reproduced *shape* (who wins, where curves peak, which component dominates).
"""

import json
import os
from pathlib import Path
from typing import NamedTuple

import pytest

from repro.experiments import default_settings

#: Repo-root JSON where open-system benches record the perf trajectory
#: (wall time, events/sec, tracing overhead); uploaded as a CI artifact.
BENCH_JSON_PATH = Path(__file__).resolve().parent.parent / "BENCH_opensystem.json"

_FALSY = {"", "0", "false", "off", "no"}


def pytest_addoption(parser):
    parser.addoption(
        "--quick",
        action="store_true",
        default=False,
        help="quick benchmark mode: small scale, fewer timing rounds "
        "(equivalent to REPRO_BENCH_QUICK=1)",
    )


@pytest.fixture(scope="session")
def quick(request):
    """True in quick mode (``--quick`` or ``REPRO_BENCH_QUICK=1``).

    Quick mode exists for CI smoke jobs: ``settings`` drops to the small
    scale (overriding ``REPRO_SCALE``) and timing benches shrink their
    round/arrival counts.  Shape assertions still run; absolute-throughput
    gates become soft warnings (small-scale numbers are not comparable to
    the paper-scale baselines).
    """
    return bool(
        request.config.getoption("--quick")
        or os.environ.get("REPRO_BENCH_QUICK", "").strip().lower() not in _FALSY
    )


@pytest.fixture(scope="session")
def settings(quick):
    if quick:
        return default_settings(scale="small")
    return default_settings()


@pytest.fixture(scope="session")
def bench_json():
    """Merge one named section into ``BENCH_opensystem.json``."""

    def merge(section: str, payload: dict) -> Path:
        data = {}
        if BENCH_JSON_PATH.exists():
            data = json.loads(BENCH_JSON_PATH.read_text())
        data[section] = payload
        BENCH_JSON_PATH.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
        return BENCH_JSON_PATH

    return merge


class TimedRun(NamedTuple):
    """One timed open-system run."""

    wall_s: float
    events: int
    spans: int
    result: object
    #: CPU seconds of the same run (``time.process_time``) — far less noisy
    #: than wall time on a shared runner, so overhead *comparisons* should
    #: difference this while throughput numbers stay wall-based.
    cpu_s: float


@pytest.fixture(scope="session")
def timed_open_run(settings):
    """Run one open-system arrival stream under a wall-clock + CPU timer.

    Workload generation and placement happen outside the timed region, so
    the measurement isolates the DES engine (arrivals, scheduling, spans).
    Returns a :class:`TimedRun`.
    """

    def run(
        policy: str,
        rate_per_hour: float = 8.0,
        num_arrivals: int = 60,
        seek_planner=None,
    ):
        from time import perf_counter, process_time

        from repro.experiments import paper_workload
        from repro.placement import ParallelBatchPlacement
        from repro.sim import SimulationSession

        workload = paper_workload(settings)
        spec = settings.spec()
        session = SimulationSession(
            workload, spec, scheme=ParallelBatchPlacement(m=settings.m)
        )
        opensys = session.open(policy=policy, seek_planner=seek_planner)
        start = perf_counter()
        cpu_start = process_time()
        result = opensys.run(rate_per_hour, num_arrivals=num_arrivals, seed=settings.eval_seed)
        cpu_s = process_time() - cpu_start
        wall_s = perf_counter() - start
        return TimedRun(
            wall_s, opensys.env.events_processed, len(result.spans()), result, cpu_s
        )

    return run


@pytest.fixture
def run_once(benchmark):
    """Run an experiment exactly once under the benchmark timer.

    Experiment drivers are deterministic and expensive; one timed round is
    both the measurement and the result used for shape assertions.
    """

    def runner(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)

    return runner
