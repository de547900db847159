"""Closed-loop strides: one kernel event per tape job and per robot exchange.

Where nothing can observe or interrupt the steps in between, the engine
folds a tape job's seeks and transfers, and the robot-held unload +
exchange + load, into single events.  These tests pin what that may and
may not change:

* differential — on tie-free catalogs, strided and per-step service give
  bit-identical request metrics and final hardware state;
* metamorphic — tracing on and off give identical results and event
  counts for closed-loop ``evaluate`` and for ``serial-fcfs``, also on
  catalogs whose sizes come from a three-value set and so force exact
  float ties;
* the tie rule — two drives that finish at the same instant act in the
  order their jobs started;
* the skipped rebuild — a fresh session's ``evaluate(reset=True)`` equals
  its result after an explicit ``reset()``, and ``reset()`` restores the
  placed state after ``serve``, ``fail_drives`` and ``open``.
"""

from contextlib import ExitStack, contextmanager
from dataclasses import astuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings
from hypothesis import strategies as st

from repro.catalog import LocationIndex, ObjectCatalog, Request
from repro.des import Environment
from repro.hardware import (
    DriveSpec,
    LibrarySpec,
    ObjectExtent,
    SystemSpec,
    TapeId,
    TapeSpec,
    TapeSystem,
)
from repro.placement import PlacementResult, make_scheme
from repro.sim import SimulationSession, engine, opensystem, simulate_request
from repro.sim.replacement import available_policies
from repro.sim.seekplanner import available_seek_planners
from repro.workload import Workload, generate_workload


def _spec(num_drives=3, num_libraries=2, num_tapes=16):
    return SystemSpec(
        num_libraries=num_libraries,
        library=LibrarySpec(
            num_drives=num_drives,
            num_tapes=num_tapes,
            cell_to_drive_s=2.0,
            drive=DriveSpec(transfer_rate_mb_s=10.0, load_s=5.0, unload_s=5.0),
            tape=TapeSpec(capacity_mb=6_000.0, max_rewind_s=10.0),
        ),
    )


def _workload(seed=5, sizes=None):
    # ~35 GB of objects on 2 x 16 tapes of 6 GB: requests must switch.
    workload = generate_workload(
        num_objects=300,
        num_requests=30,
        request_size_bounds=(6, 14),
        object_size_bounds_mb=(20.0, 400.0),
        mean_object_size_mb=120.0,
        seed=seed,
    )
    if sizes is None:
        return workload
    rng = np.random.default_rng(seed)
    catalog = ObjectCatalog(rng.choice(np.asarray(sizes, dtype=float), workload.num_objects))
    return Workload(catalog, workload.requests, workload.params)


def _hardware(system):
    """Mounts, head positions, pins and failures of every drive and tape."""
    drives = [
        (str(d.id), None if d.mounted is None else str(d.mounted.id), d.pinned, d.failed)
        for d in system.all_drives()
    ]
    heads = [(str(t.id), t.head_mb) for t in system.all_tapes()]
    return drives, heads


def _metrics(result):
    return [astuple(m) for m in result.samples]


@contextmanager
def _per_step():
    """Serve every job and switch one event per stage, as before strides.

    Patches the engine's functions and the copies ``opensystem`` imported,
    so the concurrent dispatcher's workers go per-step too.
    """
    serve, switch = engine._serve_job, engine._switch_to

    def serve_per_step(*args, stride=False, **kwargs):
        return serve(*args, **kwargs)

    def switch_per_step(*args, stride=False, **kwargs):
        return switch(*args, **kwargs)

    with ExitStack() as stack:
        for module in (engine, opensystem):
            stack.enter_context(mock.patch.object(module, "_serve_job", serve_per_step))
            stack.enter_context(mock.patch.object(module, "_switch_to", switch_per_step))
        yield


@contextmanager
def _counting_events():
    """Count the events every ``Environment.run`` processes."""
    seen = {"events": 0}
    run = Environment.run

    def counted(env, *args, **kwargs):
        before = env.events_processed
        try:
            return run(env, *args, **kwargs)
        finally:
            seen["events"] += env.events_processed - before

    with mock.patch.object(Environment, "run", counted):
        yield seen


def _place(scheme, workload, spec):
    # parallel_batch needs 1 <= m <= drives - 1 switch drives per library.
    drives = spec.library.num_drives
    kwargs = {"m": max(1, drives // 2)} if scheme == "parallel_batch" else {}
    return make_scheme(scheme, **kwargs).place(workload, spec)


def _closed(workload, spec, scheme, **session_kwargs):
    placement = _place(scheme, workload, spec)
    session = SimulationSession(workload, spec, placement=placement, **session_kwargs)
    result = session.evaluate(num_samples=25, seed=3, reset=True)
    return _metrics(result), _hardware(session.system)


class TestStridedEqualsPerStep:
    @hyp_settings(max_examples=16, deadline=None)
    @given(
        scheme=st.sampled_from(["parallel_batch", "object_probability", "cluster_probability"]),
        num_drives=st.integers(2, 5),
        policy=st.sampled_from(sorted(available_policies())),
        planner=st.sampled_from(sorted(available_seek_planners())),
        seed=st.integers(0, 2**16),
    )
    def test_matrix(self, scheme, num_drives, policy, planner, seed):
        workload = _workload(seed=seed)
        spec = _spec(num_drives=num_drives)
        kwargs = dict(replacement_policy=policy, seek_planner=planner)
        with _counting_events() as strided_events:
            strided = _closed(workload, spec, scheme, **kwargs)
        with _per_step(), _counting_events() as per_step_events:
            per_step = _closed(workload, spec, scheme, **kwargs)
        assert strided == per_step
        assert strided_events["events"] < per_step_events["events"]

    def test_traced_strides_emit_the_per_step_spans(self, monkeypatch):
        """Same span names, times and parents; only ids may be allotted in
        a different order, so compare them as (name, start, end) trees."""
        monkeypatch.delenv("REPRO_TRACE", raising=False)  # reads spans

        def spans(force_per_step):
            workload = _workload(seed=8)
            spec = _spec()
            session = SimulationSession(
                workload, spec, scheme=make_scheme("object_probability"), trace=True
            )
            if force_per_step:
                with _per_step():
                    session.evaluate(num_samples=10, seed=4)
            else:
                session.evaluate(num_samples=10, seed=4)
            by_id = {s.span_id: s for s in session.trace.spans()}

            def key(s):
                parent = by_id.get(s.parent_id)
                return (
                    s.request_id, s.name, s.start, s.end, tuple(sorted(s.attrs.items())),
                    None if parent is None else (parent.name, parent.start, parent.end),
                )

            return sorted(map(key, by_id.values()), key=repr)

        assert spans(False) == spans(True)


class TestTracingOnOff:
    @pytest.mark.parametrize("sizes", [None, (50.0, 100.0, 200.0)], ids=["generated", "ties"])
    @pytest.mark.parametrize("scheme", ["parallel_batch", "object_probability"])
    def test_closed_loop_evaluate(self, scheme, sizes, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE", raising=False)  # trace=True must trace
        workload = _workload(seed=11, sizes=sizes)
        spec = _spec()
        # Event counts too: exact ties rarely change closed-loop results,
        # but a path chosen by tracing would always change the event count.
        with _counting_events() as traced_events:
            traced = _closed(workload, spec, scheme, trace=True)
        with _counting_events() as untraced_events:
            untraced = _closed(workload, spec, scheme, trace=False)
        assert traced == untraced
        assert traced_events == untraced_events

    @pytest.mark.parametrize("sizes", [None, (50.0, 100.0, 200.0)], ids=["generated", "ties"])
    def test_serial_fcfs(self, sizes, monkeypatch):
        workload = _workload(seed=12, sizes=sizes)
        spec = _spec()
        placement = _place("parallel_batch", workload, spec)

        def run():
            session = SimulationSession(workload, spec, placement=placement)
            opensys = session.open(policy="serial-fcfs")
            result = opensys.run(30.0, num_arrivals=25, seed=2)
            records = [(r.arrival_s, r.start_s, r.finish_s) for r in result.records]
            return (
                records, [astuple(m) for m in result.metrics],
                opensys.env.events_processed, _hardware(session.system),
            ), opensys.trace.enabled

        monkeypatch.delenv("REPRO_TRACE", raising=False)
        traced, traced_on = run()
        monkeypatch.setenv("REPRO_TRACE", "0")
        untraced, untraced_on = run()
        assert (traced_on, untraced_on) == (True, False)
        assert traced == untraced


def _tie_system():
    """Two switchable drives that both finish their in-place job at t=20.

    D0 reads two back-to-back 100 MB extents (its last per-step event is
    scheduled at t=10), D1 one 200 MB extent (scheduled at t=0).  One
    offline tape waits in the queue for whichever drive acts first.
    """
    spec = _spec(num_drives=2, num_libraries=1, num_tapes=3)
    system = TapeSystem(spec)
    layouts = {
        TapeId(0, 0): [ObjectExtent(0, 0.0, 100.0), ObjectExtent(1, 100.0, 100.0)],
        TapeId(0, 1): [ObjectExtent(2, 0.0, 200.0)],
        TapeId(0, 2): [ObjectExtent(3, 0.0, 100.0)],
    }
    for tape_id, extents in layouts.items():
        system.tape(tape_id).write_layout(extents)
    library = system.library(0)
    library.drives[0].mount(system.tape(TapeId(0, 0)))
    library.drives[1].mount(system.tape(TapeId(0, 1)))
    return system, LocationIndex.from_system(system)


class TestTieRule:
    REQUEST = Request(0, (0, 1, 2, 3), 1.0)

    def test_drive_whose_job_started_first_acts_first(self):
        system, index = _tie_system()
        metrics = simulate_request(system, index, self.REQUEST)
        drives = system.library(0).drives
        # Both jobs started at t=0 and D0 was spawned first: D0 pulls the
        # queued tape.
        assert str(drives[0].mounted.id) == "L0.T2"
        assert str(drives[1].mounted.id) == "L0.T1"
        assert metrics.num_switches == 1

    def test_per_step_order_follows_the_last_scheduled_step(self):
        """Per-step service orders the tie by each drive's last step: D1's
        was scheduled first (t=0 against D0's t=10), so D1 pulls the tape."""
        system, index = _tie_system()
        with _per_step():
            metrics = simulate_request(system, index, self.REQUEST)
        drives = system.library(0).drives
        assert str(drives[0].mounted.id) == "L0.T0"
        assert str(drives[1].mounted.id) == "L0.T2"
        assert metrics.num_switches == 1


class TestSkippedRebuild:
    @pytest.fixture(scope="class")
    def placed(self):
        workload = _workload(seed=21)
        spec = _spec()
        return workload, spec, _place("parallel_batch", workload, spec)

    def _session(self, placed):
        workload, spec, placement = placed
        return SimulationSession(workload, spec, placement=placement)

    def test_fresh_evaluate_builds_no_second_index(self, placed):
        session = self._session(placed)
        with mock.patch.object(
            PlacementResult, "apply_to", side_effect=PlacementResult.apply_to, autospec=True
        ) as apply_to:
            fresh = session.evaluate(num_samples=20, seed=7, reset=True)
            assert apply_to.call_count == 0
            again = session.evaluate(num_samples=20, seed=7, reset=True)
            assert apply_to.call_count == 1
        explicit = self._session(placed)
        explicit.reset()
        expected = explicit.evaluate(num_samples=20, seed=7, reset=False)
        assert _metrics(fresh) == _metrics(again) == _metrics(expected)

    @pytest.mark.parametrize("mutation", ["serve", "fail_drives", "open"])
    def test_reset_restores_the_placed_state(self, placed, mutation):
        session = self._session(placed)
        placed_state = _hardware(session.system)
        baseline = session.evaluate(num_samples=15, seed=9, reset=True)
        if mutation == "serve":
            session.serve(session.workload.requests[0])
        elif mutation == "fail_drives":
            session.fail_drives(["L0.D0"])
        else:
            session.open(policy="concurrent").run(20.0, num_arrivals=10, seed=1)
        assert _hardware(session.system) != placed_state
        # evaluate(reset=True) must notice the mutation and rebuild ...
        assert _metrics(session.evaluate(num_samples=15, seed=9, reset=True)) == _metrics(
            baseline
        )
        # ... and so must an explicit reset().
        session.fail_drives(["L1.D1"])
        session.reset()
        assert _hardware(session.system) == placed_state
