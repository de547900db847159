"""DES kernel throughput: wall time per arrival, tracing on/off, and the perf gate.

Times one identical open-system arrival stream under each scheduling
policy, with tracing enabled and disabled, and records it under
``throughput`` in ``BENCH_kernel.json`` at the repo root.  At paper scale the wall seconds per arrival gate against
the *seed* kernel's (frozen below): serial-fcfs must hold a >= 1.5x speedup
and concurrent >= 1.3x, and the enabled-tracing overhead on the concurrent
stream is checked against its 5% target.  The gate compares time per
arrival, not events per second, because strided service does the same
arrivals in fewer, costlier events.

Timing protocol: each (policy, tracing) cell is the *minimum* of several
alternating rounds — single-shot wall readings on a shared runner swing by
tens of percent, and the first (cold) round systematically penalizes
whichever mode runs first.  Throughput (events/sec) is wall-based and
recorded next to the gated figure.

The *gated* enabled-tracing overhead is micro-costed, mirroring how
``bench_trace_overhead.py`` bounds the disabled path: each instrumentation
path (inline fast-lane append, ``record`` call, ``SpanContext``) is priced
per call with ``timeit`` and multiplied by how often the enabled run hit
it.  Same-mode CPU time on a shared runner swings by ~20% between adjacent
identical runs, so differencing two end-to-end timings cannot resolve a
5% effect; the per-call prices are stable to a few percent.  The noisy
end-to-end paired-CPU delta is still recorded (``..._e2e_pct``) as a
sanity corroboration.  Quick mode (``--quick`` / ``REPRO_BENCH_QUICK``)
runs one small-scale round per cell and downgrades every absolute gate to a
soft warning so a CI smoke job cannot flake on machine noise.
"""

import json
import warnings
from collections import Counter
from pathlib import Path
from statistics import median
from timeit import timeit

from repro.des import Environment, Trace

BENCH_KERNEL_PATH = Path(__file__).resolve().parent.parent / "BENCH_kernel.json"


def _merge_record(key, payload):
    """Store ``payload`` under ``key`` in ``BENCH_kernel.json``.

    Read-modify-write: each gate owns one top-level key and keeps the
    others' records.
    """
    data = {}
    if BENCH_KERNEL_PATH.exists():
        data = json.loads(BENCH_KERNEL_PATH.read_text())
    data[key] = payload
    BENCH_KERNEL_PATH.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    print(f"\n{json.dumps(payload, indent=2)}\nmerged into {BENCH_KERNEL_PATH}[{key!r}]")

#: Paper-scale events/sec of the seed kernel (``BENCH_opensystem.json``'s
#: ``open_system`` section as committed before the kernel fast path).
#: Deliberately frozen here: re-running the open-system bench overwrites
#: that file with post-optimization numbers, so the file itself cannot
#: serve as the regression baseline.
SEED_EVENTS_PER_S = {"serial-fcfs": 60326, "concurrent": 36174}

#: Events the paper-scale gate stream (60 arrivals at 8/h) takes with
#: per-step service, one event per seek, transfer and switch stage, as the
#: seed kernel served it.  Divided by ``SEED_EVENTS_PER_S`` this gives the
#: seed's wall time for the stream.
SEED_STREAM_EVENTS = {"serial-fcfs": 21838, "concurrent": 20172}
SEED_STREAM_ARRIVALS = 60

#: Minimum speedup over the seed kernel, per policy (the PR's perf gate).
SPEEDUP_FLOOR = {"serial-fcfs": 1.5, "concurrent": 1.3}

#: Enabled-tracing overhead target on the concurrent stream (percent), with
#: a generous hard ceiling above it so shared-runner noise warns, not fails.
ENABLED_OVERHEAD_TARGET_PCT = 5.0
ENABLED_OVERHEAD_CEILING_PCT = 12.0

#: Soft floor for quick (small-scale) smoke runs — generous on purpose.
QUICK_SOFT_FLOOR_EVENTS_PER_S = 5_000

#: Span names emitted through the engine's inline fast lane (id claim plus
#: one raw tuple append): the per-extent seek/transfer loop and the whole
#: switch tree (see ``sim/engine.py``).
GUARDED_SPANS = frozenset(
    {"seek", "transfer", "rewind", "unload", "robot_exchange", "robot_fetch", "load", "switch"}
)
#: Spans appended post-hoc through ``Trace.record``/``record_reserved``
#: (one plain function call per span).
RECORDED_SPANS = frozenset(
    {"robot_wait", "disk_wait", "dispatch_wait", "tape_job", "drive_failure"}
)


def _enabled_overhead_estimate(result, wall_off: float) -> float:
    """Micro-costed enabled-tracing overhead as a fraction of ``wall_off``.

    Prices each instrumentation path per call with ``timeit`` and charges
    it once per span the enabled run actually recorded.  Deterministic
    where an end-to-end on/off difference is not: adjacent identical runs
    on a shared runner differ by ~20% CPU, swamping a 5% effect.
    """
    trace = Trace(enabled=True)
    env = Environment()
    span_append = trace._spans.append

    def guarded() -> None:
        sid = trace._next_id
        trace._next_id = sid + 1
        started = env._now
        span_append((
            "seek", started, env._now,
            ("drive", "L0.D1", "object", 123), sid, 5, 7,
        ))

    def recorded() -> None:
        trace.record("tape_job", 0.0, 1.0, parent=3, request=7, drive="L0.D1")

    def spanned() -> None:
        with trace.span(env, "request", parent=3, request=7, policy="concurrent"):
            pass

    n = 20_000
    prices = {}
    for key, fn in (("guarded", guarded), ("recorded", recorded), ("spanned", spanned)):
        prices[key] = min(timeit(fn, number=n) for _ in range(3)) / n
        trace._spans.clear()
        trace._clean_upto = 0

    by_name = Counter(span.name for span in result.spans())
    counts = {
        "guarded": sum(c for name, c in by_name.items() if name in GUARDED_SPANS),
        "recorded": sum(c for name, c in by_name.items() if name in RECORDED_SPANS),
    }
    counts["spanned"] = sum(by_name.values()) - counts["guarded"] - counts["recorded"]
    est_s = sum(counts[key] * prices[key] for key in prices)
    return est_s / wall_off


def test_kernel_throughput_gate(settings, timed_open_run, quick, monkeypatch):
    rate = 8.0
    arrivals = 24 if quick else 60
    rounds = 1 if quick else 5

    def measure(policy):
        """Alternating on/off rounds: per-mode min wall + paired overhead.

        Throughput is each mode's minimum wall time.  The enabled-tracing
        overhead is the *median of per-round paired CPU deltas*: each round
        runs tracing on and off back-to-back, so frequency drift hits both
        runs of a pair about equally and cancels in the ratio — whereas
        differencing two independent per-mode minima lets one lucky round
        on either side swing the "overhead" by ±20 points.
        """
        on = off = None
        deltas = []
        for _ in range(rounds):
            monkeypatch.delenv("REPRO_TRACE", raising=False)
            r_on = timed_open_run(policy, rate, arrivals)
            on = r_on if on is None else on._replace(
                wall_s=min(on.wall_s, r_on.wall_s), cpu_s=min(on.cpu_s, r_on.cpu_s)
            )
            monkeypatch.setenv("REPRO_TRACE", "0")
            r_off = timed_open_run(policy, rate, arrivals)
            off = r_off if off is None else off._replace(
                wall_s=min(off.wall_s, r_off.wall_s), cpu_s=min(off.cpu_s, r_off.cpu_s)
            )
            deltas.append((r_on.cpu_s - r_off.cpu_s) / r_off.cpu_s)
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        return on, off, median(deltas)

    payload = {
        "scale": settings.scale,
        "rate_per_hour": rate,
        "num_arrivals": arrivals,
        "rounds_per_cell": rounds,
        "seed_baseline_events_per_s": SEED_EVENTS_PER_S,
        "seed_baseline_s_per_arrival": {
            policy: round(events / SEED_EVENTS_PER_S[policy] / SEED_STREAM_ARRIVALS, 6)
            for policy, events in SEED_STREAM_EVENTS.items()
        },
        "speedup_floor": SPEEDUP_FLOOR,
        "enabled_overhead_target_pct": ENABLED_OVERHEAD_TARGET_PCT,
        "policies": {},
    }
    for policy in ("serial-fcfs", "concurrent"):
        on, off, e2e_overhead = measure(policy)

        # Tracing must not change the simulation itself.
        assert on.events == off.events
        assert on.spans > 0 and off.spans == 0

        overhead = _enabled_overhead_estimate(on.result, off.wall_s)

        payload["policies"][policy] = {
            "events_processed": on.events,
            "tracing_on": {
                "wall_s": round(on.wall_s, 4),
                "cpu_s": round(on.cpu_s, 4),
                "s_per_arrival": round(on.wall_s / arrivals, 6),
                "events_per_s": round(on.events / on.wall_s),
                "spans_recorded": on.spans,
            },
            "tracing_off": {
                "wall_s": round(off.wall_s, 4),
                "cpu_s": round(off.cpu_s, 4),
                "events_per_s": round(off.events / off.wall_s),
            },
            "enabled_overhead_pct": round(overhead * 100, 2),
            "enabled_overhead_e2e_pct": round(e2e_overhead * 100, 2),
            "speedup_vs_seed": (
                round(
                    SEED_STREAM_EVENTS[policy] / SEED_EVENTS_PER_S[policy] / on.wall_s, 2
                )
                if settings.scale == "paper"
                else None
            ),
        }

    _merge_record("throughput", payload)

    if settings.scale != "paper":
        # Quick/small-scale smoke: soft floor only — warn, never flake.
        for policy, entry in payload["policies"].items():
            rate_on = entry["tracing_on"]["events_per_s"]
            if rate_on < QUICK_SOFT_FLOOR_EVENTS_PER_S:
                warnings.warn(
                    f"{policy}: {rate_on:,} events/s is below the "
                    f"{QUICK_SOFT_FLOOR_EVENTS_PER_S:,} soft floor "
                    "(slow runner, or a real kernel regression?)",
                    stacklevel=1,
                )
        return

    assert arrivals == SEED_STREAM_ARRIVALS
    for policy, floor in SPEEDUP_FLOOR.items():
        speedup = payload["policies"][policy]["speedup_vs_seed"]
        assert speedup >= floor, (
            f"{policy}: {speedup}x over the seed kernel "
            f"({payload['policies'][policy]['tracing_on']['s_per_arrival']} vs "
            f"{payload['seed_baseline_s_per_arrival'][policy]} s per arrival) "
            f"is under the {floor}x gate"
        )

    overhead = payload["policies"]["concurrent"]["enabled_overhead_pct"]
    assert overhead < ENABLED_OVERHEAD_CEILING_PCT, (
        f"enabled tracing costs {overhead}% of the concurrent run "
        f"(hard ceiling {ENABLED_OVERHEAD_CEILING_PCT}%)"
    )
    if overhead > ENABLED_OVERHEAD_TARGET_PCT:
        warnings.warn(
            f"enabled-tracing overhead {overhead}% exceeds the "
            f"{ENABLED_OVERHEAD_TARGET_PCT}% target (within the "
            f"{ENABLED_OVERHEAD_CEILING_PCT}% ceiling)",
            stacklevel=1,
        )


#: Per-plan planning-price ceilings (microseconds) for the seek-planner
#: gate, by extent count.  Greedy guards the default hot path (``_serve_job``
#: plans once per tape visit, so its price rides every visit); exact's
#: ceiling only keeps the O(n^2) DP from quietly growing a cubic term.
#: Measured on the dev runner: greedy ~5/16/71 us, exact ~24/139/1471 us —
#: ceilings sit 4-10x above to absorb shared-runner noise.
GREEDY_PLAN_CEILING_US = {8: 60.0, 32: 160.0, 128: 700.0}
EXACT_PLAN_CEILING_US = {8: 600.0, 32: 3_000.0, 128: 15_000.0}


def _plan_prices(n_extents: int) -> dict:
    """Per-call planning price (seconds) of both seek planners on one
    random ``n_extents``-extent batch over an affine-startup tape spec."""
    import dataclasses
    import random

    from repro.hardware import ObjectExtent, SystemSpec
    from repro.sim import available_seek_planners, resolve_seek_planner

    tape = dataclasses.replace(
        SystemSpec.table1().library.tape, locate_startup_s=4.0
    )
    rng = random.Random(20060814 + n_extents)
    extents = [
        ObjectExtent(object_id=i, start_mb=start / 100.0, size_mb=50.0)
        for i, start in enumerate(rng.sample(range(0, 190_000), n_extents))
    ]
    number = max(20, 2_000 // n_extents)
    prices = {}
    for name in available_seek_planners():
        planner = resolve_seek_planner(name)
        prices[name] = (
            min(
                timeit(lambda: planner.plan(extents, 500.0, tape), number=number)
                for _ in range(3)
            )
            / number
        )
    return prices


def test_seek_planner_gate(settings, timed_open_run, quick):
    """Planner resolution stays off the default hot path.

    Three checks: (1) resolving no planner yields the shared greedy-sweep
    singleton, so the engine's per-visit planning cost is unchanged by the
    resolution step; (2) per-plan micro prices — greedy under the
    hot-path ceiling, exact under its own (an O(n^2) sanity bound); (3) one
    end-to-end run per planner on the identical arrival stream,
    recorded under ``seek_planners`` in ``BENCH_kernel.json``.
    """
    from repro.sim import available_seek_planners, resolve_seek_planner

    default = resolve_seek_planner(None)
    assert default.name == "greedy-sweep"
    assert resolve_seek_planner(None) is default, (
        "resolve_seek_planner(None) must return a shared singleton — a "
        "fresh allocation per request would ride the admission path"
    )

    sizes = (8, 32) if quick else (8, 32, 128)
    prices = {n: _plan_prices(n) for n in sizes}

    rate, arrivals = 8.0, (24 if quick else 60)
    baseline = timed_open_run("serial-fcfs", rate, arrivals)
    runs = {}
    raw_sojourn = {}
    for name in sorted(available_seek_planners()):
        r = timed_open_run("serial-fcfs", rate, arrivals, seek_planner=name)
        raw_sojourn[name] = r.result.mean_sojourn_s
        runs[name] = {
            "events_processed": r.events,
            "wall_s": round(r.wall_s, 4),
            "events_per_s": round(r.events / r.wall_s),
            "mean_sojourn_s": round(r.result.mean_sojourn_s, 3),
        }
    # The default (planner=None) path is literally the greedy planner.
    assert runs["greedy-sweep"]["events_processed"] == baseline.events
    assert raw_sojourn["greedy-sweep"] == baseline.result.mean_sojourn_s

    payload = {
        "scale": settings.scale,
        "rate_per_hour": rate,
        "num_arrivals": arrivals,
        "plan_price_us": {
            str(n): {name: round(p * 1e6, 2) for name, p in prices[n].items()}
            for n in sizes
        },
        "plan_price_ceiling_us": {
            "greedy-sweep": {str(n): GREEDY_PLAN_CEILING_US[n] for n in sizes},
            "exact": {str(n): EXACT_PLAN_CEILING_US[n] for n in sizes},
        },
        "open_runs": runs,
    }
    _merge_record("seek_planners", payload)

    for n in sizes:
        greedy_us = prices[n]["greedy-sweep"] * 1e6
        exact_us = prices[n]["exact"] * 1e6
        msg_g = (
            f"greedy-sweep plans {n} extents in {greedy_us:.1f} us "
            f"(ceiling {GREEDY_PLAN_CEILING_US[n]} us) — the default hot "
            "path got slower"
        )
        msg_e = (
            f"exact plans {n} extents in {exact_us:.1f} us "
            f"(ceiling {EXACT_PLAN_CEILING_US[n]} us) — the DP grew "
            "superquadratic?"
        )
        if quick:
            if greedy_us > GREEDY_PLAN_CEILING_US[n]:
                warnings.warn(msg_g, stacklevel=1)
            if exact_us > EXACT_PLAN_CEILING_US[n]:
                warnings.warn(msg_e, stacklevel=1)
        else:
            assert greedy_us <= GREEDY_PLAN_CEILING_US[n], msg_g
            assert exact_us <= EXACT_PLAN_CEILING_US[n], msg_e


# ---------------------------------------------------------------------------
# Kernel scale-out record: one 10-library open-system stream end to end.


def test_kernel_scale_gate(settings, quick):
    """Record one 10-library arrival stream end to end in ``BENCH_kernel.json``.

    The wall time, event count and events/s of a single-environment run
    (plus a projected 10M-request wall time at the same events-per-request
    density) are recorded, not gated: the asserted kernel floors are
    ``SEED_STREAM_EVENTS``/``SEED_EVENTS_PER_S`` and ``SPEEDUP_FLOOR`` above.
    """
    import os
    from time import perf_counter

    from repro.experiments import paper_workload
    from repro.placement import ParallelBatchPlacement
    from repro.sim import SimulationSession

    rate, arrivals = 60.0, (40 if quick else 200)
    workload = paper_workload(settings)
    spec = settings.spec(num_libraries=10)
    session = SimulationSession(
        workload, spec, scheme=ParallelBatchPlacement(m=settings.m)
    )
    opensys = session.open(policy="concurrent")
    start = perf_counter()
    result = opensys.run(rate, num_arrivals=arrivals, seed=settings.eval_seed)
    wall_s = perf_counter() - start
    events = opensys.env.events_processed
    events_per_s = events / wall_s

    payload = {
        "scale": settings.scale,
        "cpu_count": os.cpu_count() or 1,
        "ten_library_open": {
            "rate_per_hour": rate,
            "num_arrivals": arrivals,
            "wall_s": round(wall_s, 4),
            "events_processed": events,
            "events_per_s": round(events_per_s),
            "mean_sojourn_s": round(result.mean_sojourn_s, 3),
            # Serial extrapolation to a 10M-request stream at this
            # events-per-request density.
            "projected_10m_requests_min": round(
                10e6 * (events / arrivals) / events_per_s / 60.0, 1
            ),
        },
    }
    _merge_record("scale", payload)

    assert len(result) == arrivals
