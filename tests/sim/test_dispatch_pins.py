"""Pinned outcomes of the concurrent library dispatcher.

``TestKernelFastPathParity`` pins one drive-starved, fault-free run.  This
file pins a matrix of small ``concurrent`` runs that between them reach
every admission branch of ``opensystem._LibraryDispatcher``: deep per-tape
queues, drive churn with transient retries, r=2 media loss under each
repair-priority policy, degraded pinned mode (every switch drive dead),
``read_selection="cheapest"``, a non-default replacement policy, and two
disk-free, fault-free runs whose drive workers may serve a tape job as one
kernel event.

Each run pins its sojourns, span tuples (with ids, and as an id-free set of
name, times, request and attributes), ``RequestMetrics``, the full
registry export (the ``dispatch.L*.pending`` gauge integrals included),
the ``repair`` and ``faults`` dicts and ``events_processed``.  Sequences
are pinned as SHA-256 digests with every float rounded to 10 significant
digits: CPython 3.12's compensated ``sum()`` moves the last bits of summed
sizes between interpreter versions, while any change to which job a drive
takes moves whole seconds.  Headline floats are compared to rel 1e-12.

After an *intended* dispatch change, regenerate with

    PYTHONPATH=src python -m pytest tests/sim/test_dispatch_pins.py --update-golden
"""

import hashlib
import json
import math
from pathlib import Path

import pytest

from repro.des import trace_enabled_by_env
from repro.hardware import DriveSpec, LibrarySpec, SystemSpec, TapeSpec
from repro.obs import export_registry
from repro.placement import ObjectProbabilityPlacement, ParallelBatchPlacement
from repro.redundancy import wrap_scheme
from repro.sim import (
    DriveFailure,
    DriveFaultProcess,
    SimulationSession,
    TapeFailure,
    TransientFaults,
)
from repro.workload import generate_workload

GOLDEN = Path(__file__).parent / "golden" / "dispatch_pins.json"


def _workload(num_objects=600, request_size_bounds=(8, 16), seed=21):
    return generate_workload(
        num_objects=num_objects,
        num_requests=25,
        request_size_bounds=request_size_bounds,
        object_size_bounds_mb=(10.0, 500.0),
        mean_object_size_mb=None,
        seed=seed,
    )


def _spec(num_drives=2, num_tapes=40, tape_capacity_mb=2_000.0, disk_bandwidth_mb_s=20.0):
    return SystemSpec(
        num_libraries=2,
        disk_bandwidth_mb_s=disk_bandwidth_mb_s,
        library=LibrarySpec(
            num_drives=num_drives,
            num_tapes=num_tapes,
            cell_to_drive_s=2.0,
            drive=DriveSpec(transfer_rate_mb_s=10.0, load_s=5.0, unload_s=5.0),
            tape=TapeSpec(capacity_mb=tape_capacity_mb, max_rewind_s=10.0),
        ),
    )


def _busiest_tape(session):
    return max(session.system.all_tapes(), key=lambda t: (t.used_mb, t.id))


def _starved(replacement_policy="least_popular", disk_bandwidth_mb_s=20.0):
    """Two drives per library, 40 small tapes: every request switches."""
    return SimulationSession(
        _workload(), _spec(disk_bandwidth_mb_s=disk_bandwidth_mb_s),
        scheme=ObjectProbabilityPlacement(), replacement_policy=replacement_policy,
    )


def _redundant(seed=21):
    """r=2 over four drives per library, so repair and user jobs contend."""
    scheme = wrap_scheme(ObjectProbabilityPlacement(), "r=2")
    return SimulationSession(
        _workload(num_objects=300, request_size_bounds=(4, 10), seed=seed),
        _spec(num_drives=4, num_tapes=12, tape_capacity_mb=50_000.0,
              disk_bandwidth_mb_s=None),
        scheme=scheme,
    )


def _pinned(replacement_policy="least_popular", disk_bandwidth_mb_s=20.0):
    """Parallel batch with two pinned and two switch drives per library."""
    return SimulationSession(
        _workload(), _spec(num_drives=4, disk_bandwidth_mb_s=disk_bandwidth_mb_s),
        scheme=ParallelBatchPlacement(m=2), replacement_policy=replacement_policy,
    )


def _switch_drives(session):
    return [
        str(d.id) for lib in session.system.libraries for d in lib.drives
        if not d.pinned
    ]


def build(label):
    """``(session, open kwargs, run kwargs)`` for one pinned configuration."""
    if label == "starved-deep":
        return _starved(), {}, dict(arrival_rate_per_hour=900.0, num_arrivals=150, seed=11)
    if label == "starved-drive-churn":
        return _starved(), dict(
            faults=(
                DriveFaultProcess(mtbf_s=900.0, mttr_s=200.0),
                TransientFaults(probability=0.05),
            ),
            fault_seed=5,
        ), dict(arrival_rate_per_hour=600.0, num_arrivals=60, seed=11)
    if label.startswith("r2-tape-loss-"):
        session = _redundant()
        tape = _busiest_tape(session)
        return session, dict(
            faults=(
                TapeFailure(str(tape.id), at_s=300.0),
                DriveFaultProcess(mtbf_s=2400.0, mttr_s=300.0),
            ),
            fault_seed=3,
            repair_policy=label[len("r2-tape-loss-"):],
        ), dict(arrival_rate_per_hour=360.0, num_arrivals=80, seed=3)
    if label == "pinned-degraded":
        session = _pinned()
        faults = tuple(DriveFailure(name, at_s=120.0) for name in _switch_drives(session))
        # One pinned drive also dies and comes back: its repair restores
        # the batch-0 home mount through the restore process.
        faults += (DriveFailure("L1.D0", at_s=400.0, repair_after_s=150.0),)
        return session, dict(faults=faults), dict(
            arrival_rate_per_hour=480.0, num_arrivals=50, seed=7
        )
    if label == "r2-cheapest":
        return _redundant(), dict(
            faults=(DriveFaultProcess(mtbf_s=1500.0, mttr_s=300.0),),
            fault_seed=9,
            read_selection="cheapest",
        ), dict(arrival_rate_per_hour=360.0, num_arrivals=60, seed=5)
    if label == "starved-oldest-mount":
        return _starved("oldest_mount"), {}, dict(
            arrival_rate_per_hour=600.0, num_arrivals=60, seed=13
        )
    if label == "starved-diskless":
        return _starved(disk_bandwidth_mb_s=None), {}, dict(
            arrival_rate_per_hour=900.0, num_arrivals=120, seed=17
        )
    if label == "pinned-diskless-oldest-mount":
        return _pinned("oldest_mount", disk_bandwidth_mb_s=None), {}, dict(
            arrival_rate_per_hour=600.0, num_arrivals=80, seed=19
        )
    raise KeyError(label)


LABELS = (
    "starved-deep",
    "starved-drive-churn",
    "r2-tape-loss-user-first",
    "r2-tape-loss-repair-first",
    "r2-tape-loss-fair-share",
    "pinned-degraded",
    "r2-cheapest",
    "starved-oldest-mount",
    "starved-diskless",
    "pinned-diskless-oldest-mount",
)


def _round(value):
    """Floats at 10 significant digits, recursively (see module docstring)."""
    if isinstance(value, float):
        return float(f"{value:.10g}") if math.isfinite(value) else repr(value)
    if isinstance(value, dict):
        return {str(k): _round(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_round(v) for v in value]
    return value


def _digest(values):
    blob = json.dumps(_round(list(values)), sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def pin(opensys, result) -> dict:
    """The pinned view of one run: digests plus headline values."""
    got = {
        "mean_sojourn_s": result.mean_sojourn_s,
        "horizon_s": result.horizon_s,
        "events_processed": opensys.env.events_processed,
        "aborted": result.aborted_requests,
        "sojourn_digest": _digest(r.sojourn_s for r in result.records),
        "metrics_digest": _digest(
            (m.request_id, m.size_mb, m.response_s, m.seek_s, m.transfer_s,
             m.num_tapes, m.num_switches, m.num_drives, m.aborted)
            for m in result.metrics
        ),
        "registry_digest": _digest([export_registry(result.registry)]),
        "pending_integrals": {
            name: gauge._integral
            for name, gauge in sorted(result.registry.gauges.items())
            if name.startswith("dispatch.")
        },
        "faults": dict(sorted(result.faults.items())),
        "repair": dict(sorted(result.repair.items())),
    }
    spans = result.spans()
    if spans:
        got["span_count"] = len(spans)
        got["span_digest"] = _digest(
            (s.name, s.start, s.end, s.span_id, s.parent_id, s.request_id)
            for s in spans
        )
        # The same spans without their ids, as a set: a change that only
        # allots ids in another order or records spans in another order
        # keeps this digest.
        got["span_id_free_digest"] = _digest(sorted(
            ((s.name, s.start, s.end, s.request_id, sorted(s.attrs.items())) for s in spans),
            key=repr,
        ))
    return got


def run(label):
    session, open_kwargs, run_kwargs = build(label)
    opensys = session.open(policy="concurrent", **open_kwargs)
    result = opensys.run(**run_kwargs)
    return opensys, result


def _approx_equal(got, expected, path):
    if isinstance(expected, dict):
        assert sorted(got) == sorted(expected), path
        for key in expected:
            _approx_equal(got[key], expected[key], f"{path}.{key}")
    elif isinstance(expected, float):
        assert got == pytest.approx(expected, rel=1e-12, abs=0.0), path
    else:
        assert got == expected, path


@pytest.mark.parametrize("label", LABELS)
def test_dispatch_pinned(label, update_golden):
    got = pin(*run(label))
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    if update_golden:
        if not trace_enabled_by_env():
            pytest.fail("regenerate the dispatch pins with tracing enabled")
        golden[label] = got
        GOLDEN.parent.mkdir(exist_ok=True)
        GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
        pytest.skip(f"pin {label} updated")
    if label not in golden:
        pytest.fail(f"missing pin {label} in {GOLDEN}; generate it with --update-golden")
    expected = dict(golden[label])
    if "span_count" not in got:
        # Tracing disabled by REPRO_TRACE: every non-span pin still holds.
        expected.pop("span_count", None)
        expected.pop("span_digest", None)
        expected.pop("span_id_free_digest", None)
    _approx_equal(got, expected, label)


@pytest.mark.parametrize("label", ["starved-diskless", "pinned-diskless-oldest-mount"])
def test_diskless_labels_arm_no_disk_stage_and_no_faults(label):
    """These two pins are the ones whose drive workers may stride."""
    session, open_kwargs, _ = build(label)
    opensys = session.open(policy="concurrent", **open_kwargs)
    assert opensys.disk is None and not opensys.fault_specs


def test_matrix_reaches_every_admission_branch():
    """The pinned runs are not degenerate: queues build, drives fail,
    repairs run and requests keep completing."""
    _, deep = run("starved-deep")
    assert max(
        g.max for n, g in deep.registry.gauges.items() if n.startswith("dispatch.")
    ) >= 5
    _, loss = run("r2-tape-loss-fair-share")
    assert loss.repair["members_rebuilt"] > 0
    assert loss.faults["drive_failures"] > 0
    _, degraded = run("pinned-degraded")
    assert degraded.faults["drive_failures"] == 5
    assert degraded.aborted_requests == 0
