"""One plan per distinct request in the concurrent open system.

``LocationIndex.request_plan`` memoizes a request's per-tape grouping and
extent sort, and ``ConcurrentPolicy._submit_tape_jobs`` keeps each tape's
beginning-of-tape LPT plan in that memo.  These tests pin that a repeated
request reuses the memo and changes nothing else:

* differential — memo on against a memo forced to miss on every arrival
  give identical records, metrics, registry, resource stats, spans
  (without their ids), final hardware state and event counts, over the
  ``test_worker_strides`` matrix plus drive churn and per-step service;
* the seek planner runs less often on a run with repeated requests, and
  jobs of a repeated request share the memoized, immutable order.
"""

import os
from contextlib import ExitStack
from dataclasses import astuple
from unittest import mock

from hypothesis import given, settings as hyp_settings
from hypothesis import strategies as st

from repro.catalog import LocationIndex
from repro.obs import export_registry
from repro.sim import DriveFaultProcess, SimulationSession
from repro.sim.replacement import available_policies
from repro.sim.seekplanner import SEEK_PLANNERS, available_seek_planners

from .test_closed_strides import _hardware, _per_step, _spec, _workload
from .test_worker_strides import _placement, _spans


def _missing_memo():
    """Patch the index so every arrival plans its request afresh."""
    request_plan = LocationIndex.request_plan

    def fresh(self, request):
        self._plans.clear()
        return request_plan(self, request)

    return mock.patch.object(LocationIndex, "request_plan", fresh)


def _counting_plans():
    """Count seek plans across both planners; returns the patch and counter."""
    count = [0]
    stack = ExitStack()
    for planner in SEEK_PLANNERS.values():
        plan = type(planner).plan

        def counted(self, *args, _plan=plan, **kwargs):
            count[0] += 1
            return _plan(self, *args, **kwargs)

        stack.enter_context(mock.patch.object(type(planner), "plan", counted))
    return stack, count


def _run(workload, spec, placement, rate, faults, read_selection, **session_kwargs):
    """Every result surface of one traced concurrent run, and its events."""
    session = SimulationSession(workload, spec, placement=placement, **session_kwargs)
    opensys = session.open(
        policy="concurrent", faults=faults, fault_seed=9, read_selection=read_selection
    )
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


@hyp_settings(max_examples=16, deadline=None)
@given(
    scheme=st.sampled_from(["parallel_batch", "object_probability", "cluster_probability"]),
    num_drives=st.integers(2, 5),
    policy=st.sampled_from(sorted(available_policies())),
    planner=st.sampled_from(sorted(available_seek_planners())),
    rate=st.sampled_from([20.0, 200.0]),
    redundant=st.booleans(),
    churn=st.booleans(),
    per_step=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_memo_equals_fresh_plans(
    scheme, num_drives, policy, planner, rate, redundant, churn, per_step, seed
):
    workload = _workload(seed=seed)
    spec = _spec(num_drives=num_drives)
    placement = _placement(scheme, workload, spec, redundant)
    faults = (DriveFaultProcess(mtbf_s=3000.0, mttr_s=400.0),) if churn else ()
    kwargs = dict(
        replacement_policy=policy, seek_planner=planner,
        read_selection="cheapest" if redundant else "least-loaded",
    )
    with ExitStack() as stack:
        stack.enter_context(mock.patch.dict(os.environ))
        os.environ.pop("REPRO_TRACE", None)  # compares spans
        if per_step:
            stack.enter_context(_per_step())
        memo = _run(workload, spec, placement, rate, faults, **kwargs)
        with _missing_memo():
            fresh = _run(workload, spec, placement, rate, faults, **kwargs)
    assert memo == fresh


def _repeating_session():
    workload = _workload(seed=5)
    spec = _spec()
    return workload, spec, _placement("parallel_batch", workload, spec)


def test_repeated_requests_plan_fewer_seeks():
    workload, spec, placement = _repeating_session()
    request_plan = LocationIndex.request_plan

    def plans(fresh):
        arrivals = []

        def recording(self, request):
            arrivals.append(request.id)
            if fresh:
                self._plans.clear()
            return request_plan(self, request)

        stack, count = _counting_plans()
        with stack, mock.patch.object(LocationIndex, "request_plan", recording):
            result = SimulationSession(workload, spec, placement=placement).open(
                policy="concurrent"
            ).run(200.0, num_arrivals=30, seed=4)
        assert len(set(arrivals)) < len(arrivals), "the run repeats no request"
        return count[0], [astuple(m) for m in result.metrics]

    memo_plans, memo_metrics = plans(fresh=False)
    fresh_plans, fresh_metrics = plans(fresh=True)
    assert memo_metrics == fresh_metrics
    assert memo_plans < fresh_plans


def test_repeated_request_jobs_share_the_memoized_order():
    workload, spec, placement = _repeating_session()
    session = SimulationSession(workload, spec, placement=placement)
    opensys = session.open(policy="concurrent")
    policy = opensys.policy
    request = workload.requests[0]
    submitted = []
    submit = type(policy)._submit_tape_jobs

    def recording(self, *args, **kwargs):
        djobs = submit(self, *args, **kwargs)
        submitted.append(djobs)
        return djobs

    env = opensys.env

    def twice():
        yield from policy.serve(request, 0.0)
        yield from policy.serve(request, env.now)

    with mock.patch.object(type(policy), "_submit_tape_jobs", recording):
        env.process(twice())
        env.run()
    first, second = submitted
    plan = session.index.request_plan(request)
    assert len(plan.lpt) == len(plan.tapes)
    for (tape_id, extents), (spec, planner, order, neg_seconds) in zip(plan.tapes, plan.lpt):
        assert spec is session.system.libraries[tape_id.library].spec.tape
        assert planner is opensys.seek_planner
        assert isinstance(order, tuple) and sorted(order, key=id) == sorted(extents, key=id)
        assert neg_seconds < 0
    # One tape spec per library here, so every tape hits the memo again.
    twins = {dj.job.tape_id: dj.job for dj in first}
    assert set(twins) == {dj.job.tape_id for dj in second}
    for djob in second:
        twin = twins[djob.job.tape_id]
        assert djob.job is not twin  # jobs are consumed: built fresh
        assert djob.job.planned[1] is twin.planned[1]
