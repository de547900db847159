"""Repair-subsystem armed overhead: media faults must cost ~nothing idle.

The repair subsystem threads media-fault checks into the concurrent
dispatcher's hot path: a lost-tape guard on submit, repair-aware
admission (``_pick`` walks the user and repair classes of the indexed
pending queue, per-tape buckets ordered by a head heap, in
repair-policy order) and wear accounting at job completion.  Arming the
subsystem without any media actually failing is the common case — a
fleet runs with repair *configured* for years between cartridge deaths —
so that configuration must not tax the fault-free stream.  This bench
runs the same arrival stream two ways:

* **baseline** — no fault specs at all: the serve path PR 8 shipped;
* **armed** — a :class:`~repro.sim.faults.TapeWearProcess` with an
  astronomical mean cycle count (no tape will ever die inside the
  horizon) plus an armed repair policy: every guard is live, no repair
  work exists.

The baseline-vs-armed CPU delta is the subsystem's standing overhead,
estimated as the median of paired per-round differences (scheduler blips
hit one pair, not the median) and held to the ISSUE's <5 % acceptance
bar.  Results land in ``BENCH_repair.json`` at the repo root (uploaded
as a CI artifact).
"""

import json
from pathlib import Path
from time import perf_counter, process_time

from repro.experiments import paper_workload
from repro.placement import ParallelBatchPlacement
from repro.sim import SimulationSession, TapeWearProcess

BENCH_REPAIR_PATH = Path(__file__).resolve().parent.parent / "BENCH_repair.json"

#: Mean mount/seek cycles before wear-out — ~1e12 cycles keeps every
#: Weibull draw astronomically beyond any simulated horizon, so the armed
#: run does exactly zero repair work.  (A ``TapeFailure`` would not do
#: here: its one-shot timeout at ``at_s`` would extend the environment's
#: event horizon; the wear process only piggybacks on job completions.)
IDLE_MEAN_CYCLES = 1e12


def _one_run(workload, spec, settings, armed, rate=8.0, num_arrivals=250):
    """(wall, cpu, result) for one open-system stream (placement untimed)."""
    session = SimulationSession(
        workload, spec, scheme=ParallelBatchPlacement(m=settings.m)
    )
    if armed:
        opensys = session.open(
            policy="concurrent",
            faults=(TapeWearProcess(mean_cycles=IDLE_MEAN_CYCLES),),
            fault_seed=settings.eval_seed,
            repair_policy="fair-share",
        )
    else:
        opensys = session.open(policy="concurrent")
    start = perf_counter()
    cpu_start = process_time()
    result = opensys.run(rate, num_arrivals=num_arrivals, seed=settings.eval_seed)
    return perf_counter() - start, process_time() - cpu_start, result


def test_armed_media_fault_overhead(settings, quick):
    workload = paper_workload(settings)
    spec = settings.spec()
    rounds = 3 if quick else 9
    num_arrivals = 120 if quick else 250

    # One untimed warm-up pair, then interleaved baseline/armed pairs.
    _one_run(workload, spec, settings, False, num_arrivals=num_arrivals)
    _one_run(workload, spec, settings, True, num_arrivals=num_arrivals)
    diffs_pct = []
    baseline_s = armed_s = float("inf")
    baseline_wall = armed_wall = float("inf")
    baseline = armed = None
    for _ in range(rounds):
        wall, cpu, baseline = _one_run(
            workload, spec, settings, False, num_arrivals=num_arrivals
        )
        base_cpu = cpu
        baseline_s = min(baseline_s, cpu)
        baseline_wall = min(baseline_wall, wall)
        wall, cpu, armed = _one_run(
            workload, spec, settings, True, num_arrivals=num_arrivals
        )
        armed_s = min(armed_s, cpu)
        armed_wall = min(armed_wall, wall)
        diffs_pct.append(100.0 * (cpu - base_cpu) / base_cpu)

    # Arming must not perturb the simulation: no tape died, no object was
    # lost, and the per-request timeline matches the fault-free run.
    assert armed.faults["tape_losses"] == 0
    assert armed.objects_lost == 0
    assert armed.repair["members_rebuilt"] == 0
    assert [r.finish_s for r in armed.records] == [
        r.finish_s for r in baseline.records
    ]

    overhead_pct = sorted(diffs_pct)[len(diffs_pct) // 2]
    payload = {
        "scale": settings.scale,
        "num_arrivals": num_arrivals,
        "rate_per_hour": 8.0,
        "rounds": rounds,
        "baseline_cpu_s": round(baseline_s, 4),
        "armed_cpu_s": round(armed_s, 4),
        "baseline_wall_s": round(baseline_wall, 4),
        "armed_wall_s": round(armed_wall, 4),
        "armed_overhead_pct": round(overhead_pct, 2),
        "repair_policy": "fair-share",
    }
    BENCH_REPAIR_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"\narmed media-fault overhead: {overhead_pct:+.2f}% "
          f"({baseline_s:.3f}s -> {armed_s:.3f}s over {rounds} rounds)")

    # The ISSUE's acceptance bar: arming repair with no media fault
    # occurring costs <5 % of the fault-free serve path.
    assert overhead_pct < 5.0
