"""Strided service in the concurrent dispatcher's drive workers.

With no disk stage and no fault spec, nothing cuts or gates the steps of a
tape job, so ``_LibraryDispatcher._worker`` serves each job as one kernel
event; switches stay per-step, because the dispatcher reads busy drives'
mount state.  These tests pin what that may and may not change:

* differential — on tie-free catalogs, strided and per-step workers give
  identical records, metrics, registry, resource stats, spans (without
  their ids) and final hardware state, in fewer events, over scheme ×
  drives × replacement policy × seek planner × rate, plus r=2 redundancy
  read with ``read_selection="cheapest"``;
* metamorphic — tracing on and off give identical results and event
  counts, also on catalogs whose sizes come from a three-value set and so
  force exact float ties;
* the tie rule — two drives that finish at the same instant act in the
  order their jobs started.
"""

import os
from dataclasses import astuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings
from hypothesis import strategies as st

from repro.catalog import ObjectCatalog, Request
from repro.hardware import DriveId, ObjectExtent, TapeId
from repro.obs import export_registry
from repro.placement import PlacementResult, make_scheme
from repro.redundancy import wrap_scheme
from repro.sim import SimulationSession
from repro.sim.replacement import available_policies
from repro.sim.seekplanner import available_seek_planners
from repro.workload import Workload, generate_workload

from .test_closed_strides import _hardware, _per_step, _spec, _workload


def _placement(scheme, workload, spec, redundant=False):
    # parallel_batch needs 1 <= m <= drives - 1 switch drives per library.
    drives = spec.library.num_drives
    kwargs = {"m": max(1, drives // 2)} if scheme == "parallel_batch" else {}
    made = make_scheme(scheme, **kwargs)
    return (wrap_scheme(made, "r=2") if redundant else made).place(workload, spec)


def _spans(result):
    """Every span as (request, name, times, attrs, parent's name and times)."""
    by_id = {s.span_id: s for s in result.spans()}

    def key(s):
        parent = by_id.get(s.parent_id)
        return (
            s.request_id, s.name, s.start, s.end, tuple(sorted(s.attrs.items())),
            None if parent is None else (parent.name, parent.start, parent.end),
        )

    return sorted(map(key, by_id.values()), key=repr)


def _open(workload, spec, placement, rate, read_selection="least-loaded", **session_kwargs):
    """Every result surface of one concurrent run, and its event count."""
    session = SimulationSession(workload, spec, placement=placement, **session_kwargs)
    opensys = session.open(policy="concurrent", read_selection=read_selection)
    result = opensys.run(rate, num_arrivals=30, seed=4)
    surfaces = (
        [astuple(r) for r in result.records],
        [astuple(m) for m in result.metrics],
        export_registry(result.registry),
        result.resources,
        result.horizon_s,
        _spans(result),
        _hardware(session.system),
    )
    return surfaces, opensys.env.events_processed


class TestStridedEqualsPerStep:
    @hyp_settings(max_examples=16, deadline=None)
    @given(
        scheme=st.sampled_from(["parallel_batch", "object_probability", "cluster_probability"]),
        num_drives=st.integers(2, 5),
        policy=st.sampled_from(sorted(available_policies())),
        planner=st.sampled_from(sorted(available_seek_planners())),
        rate=st.sampled_from([20.0, 200.0]),
        redundant=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_matrix(self, scheme, num_drives, policy, planner, rate, redundant, seed):
        workload = _workload(seed=seed)
        spec = _spec(num_drives=num_drives)
        placement = _placement(scheme, workload, spec, redundant)
        kwargs = dict(
            replacement_policy=policy, seek_planner=planner,
            read_selection="cheapest" if redundant else "least-loaded",
        )
        strided, strided_events = _open(workload, spec, placement, rate, **kwargs)
        with _per_step():
            per_step, per_step_events = _open(workload, spec, placement, rate, **kwargs)
        assert strided == per_step
        assert strided_events < per_step_events


class TestTracingOnOff:
    @pytest.mark.parametrize("sizes", [None, (50.0, 100.0, 200.0)], ids=["generated", "ties"])
    @pytest.mark.parametrize("scheme", ["parallel_batch", "object_probability"])
    def test_concurrent(self, scheme, sizes):
        workload = _workload(seed=13, sizes=sizes)
        spec = _spec()
        placement = _placement(scheme, workload, spec)

        def run(trace_env):
            with mock.patch.dict(os.environ, {"REPRO_TRACE": trace_env}):
                surfaces, events = _open(workload, spec, placement, 120.0)
            # Spans exist only on the traced run; everything else must match.
            return surfaces[:5] + surfaces[6:], events, bool(surfaces[5])

        traced = run("1")
        untraced = run("0")
        assert (traced[2], untraced[2]) == (True, False)
        assert traced[:2] == untraced[:2]


def _library_session(layouts, mounts, tape_priority=None):
    """One library with two drives and three tapes laid out by hand.

    ``layouts`` maps a slot to ``(object id, start MB, size MB)`` triples,
    ``mounts`` a drive index to the slot it holds at the start.
    """
    spec = _spec(num_drives=2, num_libraries=1, num_tapes=3)
    extents = {
        TapeId(0, slot): [ObjectExtent(*triple) for triple in triples]
        for slot, triples in layouts.items()
    }
    sizes = {e.object_id: e.size_mb for tape in extents.values() for e in tape}
    base = generate_workload(
        num_objects=len(sizes), num_requests=2, request_size_bounds=(1, len(sizes)), seed=1
    )
    catalog = ObjectCatalog(np.array([sizes[i] for i in range(len(sizes))]))
    placement = PlacementResult(
        scheme="constructed",
        layouts=extents,
        initial_mounts={DriveId(0, d): TapeId(0, slot) for d, slot in mounts.items()},
        tape_priority={TapeId(0, slot): p for slot, p in (tape_priority or {}).items()},
    )
    return SimulationSession(
        Workload(catalog, base.requests, base.params), spec, placement=placement
    )


def _serve(session, arrivals):
    """Serve ``(arrival time, request)`` pairs; the drives' final mounts."""
    opensys = session.open(policy="concurrent")
    env = opensys.env

    def arrive(at, request):
        yield env.timeout(at)
        yield from opensys.policy.serve(request, at)

    for at, request in arrivals:
        env.process(arrive(at, request))
    env.run()
    return [str(d.mounted.id) for d in session.system.library(0).drives]


class TestTieRule:
    def _serve(self):
        """Two switchable drives that both finish their in-place job at t=20.

        D0 holds L0.T0 with two back-to-back 100 MB extents (its last
        per-step event is scheduled at t=10), D1 holds L0.T1 with one
        200 MB extent (scheduled at t=0).  The request's third tape, L0.T2,
        waits in the dispatcher for whichever drive acts first.
        """
        session = _library_session(
            {0: [(0, 0.0, 100.0), (1, 100.0, 100.0)], 1: [(2, 0.0, 200.0)],
             2: [(3, 0.0, 100.0)]},
            {0: 0, 1: 1},
        )
        return _serve(session, [(0.0, Request(0, (0, 1, 2, 3), 1.0))])

    def test_drive_whose_job_started_first_acts_first(self):
        # L0.T0 sorts first (equal estimates, lower tape id), so D0 started
        # its job first and pulls the queued tape.
        assert self._serve() == ["L0.T2", "L0.T1"]

    def test_per_step_order_follows_the_last_scheduled_step(self):
        """Per-step service orders the tie by each drive's last step: D1's
        was scheduled first (t=0 against D0's t=10), so D1 pulls the tape."""
        with _per_step():
            assert self._serve() == ["L0.T0", "L0.T2"]


def test_a_tape_being_unloaded_stays_with_its_drive():
    """Why the worker's switches stay per-step.

    At t=0 D0 starts switching L0.T0 out for L0.T1 (robot held, unload
    until t=5) while D1 reads 20 MB of L0.T2 until t=2.  At t=1 a request
    for L0.T0 arrives.  The cartridge is still in D0, so the job waits for
    D0 and D1 stays idle when it finishes; once D0 is done with L0.T1 it
    displaces that less popular tape and mounts L0.T0 again.  A switch
    that swapped the cartridges when the robot-held stage starts would
    have shown L0.T0 back in its cell at t=2 and sent D1 after it.
    """
    session = _library_session(
        {0: [(0, 0.0, 10.0)], 1: [(1, 0.0, 10.0)], 2: [(2, 0.0, 20.0)]},
        {0: 0, 1: 2},
        tape_priority={0: 0.5, 1: 0.1, 2: 0.9},
    )
    mounts = _serve(session, [(0.0, Request(0, (1, 2), 1.0)), (1.0, Request(1, (0,), 1.0))])
    assert mounts == ["L0.T0", "L0.T2"]
