"""Shadow differential: the indexed dispatcher against the linear scan.

``reference_pick`` below is the admission rule as a plain linear scan over
the pending queue, the form the dispatcher had before its pending jobs were
indexed by tape.  At every assignment round of a run, the shadow evaluates
it on the dispatcher's live state (without side effects: the fair-share
token bucket is refilled on a copy), lets the indexed dispatcher act, and
asserts both chose the same job and the same drive and left the token
bucket in the same state.  That includes the attempts that end before
``_pick`` because no idle drive can take any queued tape: the scan must
find nothing there either.  The pinned configurations of
``test_dispatch_pins`` run under the shadow, then a hypothesis matrix over
scheme × faults × r × repair policy × replacement policy × read selection
× seed.
"""

from contextlib import contextmanager
from functools import lru_cache
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings as hyp_settings
from hypothesis import strategies as st

from repro.hardware import DriveSpec, LibrarySpec, SystemSpec, TapeId, TapeSpec
from repro.placement import ObjectProbabilityPlacement, ParallelBatchPlacement
from repro.redundancy import wrap_scheme
from repro.sim import (
    REPAIR_POLICIES,
    DriveFaultProcess,
    SimulationSession,
    TapeFailure,
    TransientFaults,
    available_policies,
    estimate_job_time,
    replacement_key,
)
from repro.sim.opensystem import (
    READ_SELECTIONS,
    _DispatchedJob,
    _LibraryDispatcher,
    _TapeQueue,
)
from repro.workload import generate_workload

from .test_dispatch_pins import LABELS, build


def reference_pick(dispatcher, replacement_policy):
    """The first admissible pending job, found by scanning the whole queue.

    Returns ``(job, drive, tokens, tokens_at)``; job and drive are ``None``
    when nothing can be assigned.  ``tokens``/``tokens_at`` are the
    fair-share bucket as the scan leaves it.
    """
    library = dispatcher.library
    workers = dispatcher.workers
    busy = dispatcher.busy
    tokens = dispatcher._repair_tokens
    tokens_at = dispatcher._repair_tokens_at
    live = [d for d in library.drives if d.id.index in workers]
    idle = [d for d in live if d.id.index not in busy]
    if not idle:
        return None, None, tokens, tokens_at
    degraded = not any(not d.pinned for d in live)
    pending = dispatcher.pending_jobs()
    committed = {
        TapeId(library.id, slot): idx for slot, idx in dispatcher.committed.items()
    }
    protected = {dj.job.tape_id for dj in pending} | set(committed)
    mounted = {}
    for d in library.drives:
        if d.mounted is not None:
            mounted.setdefault(d.mounted.id, d)

    policy = dispatcher.repair_policy
    order = pending
    if any(dj.repair for dj in pending):
        if policy == "user-first":
            order = sorted(pending, key=lambda dj: dj.repair)
        elif policy == "repair-first":
            order = sorted(pending, key=lambda dj: not dj.repair)
    user_waiting = any(not dj.repair for dj in pending)

    for djob in order:
        repair_cost = 0.0
        if djob.repair and policy == "fair-share" and user_waiting:
            now = dispatcher.env.now
            if now > tokens_at:
                rate = dispatcher._repair_share * max(1, len(workers))
                tokens = min(
                    dispatcher._repair_burst_s, tokens + rate * (now - tokens_at)
                )
                tokens_at = now
            cost = estimate_job_time(djob.job, library, planner=dispatcher.seek_planner)
            if tokens < cost:
                continue
            repair_cost = cost
        tape_id = djob.job.tape_id
        holder_idx = committed.get(tape_id)
        if holder_idx is None:
            holder = mounted.get(tape_id)
            if holder is not None and holder.id.index in workers:
                holder_idx = holder.id.index
        if holder_idx is not None:
            if holder_idx in busy:
                continue
            chosen = library.drives[holder_idx]
        else:
            candidates = [d for d in idle if degraded or not d.pinned]
            empty = [d for d in candidates if d.mounted is None]
            if empty:
                chosen = min(empty, key=lambda d: d.id.index)
            else:
                displaceable = [d for d in candidates if d.mounted.id not in protected]
                if not displaceable:
                    continue
                chosen = min(
                    displaceable,
                    key=lambda d: replacement_key(
                        replacement_policy, d, dispatcher.tape_priority
                    ),
                )
        if repair_cost:
            tokens -= repair_cost
        return djob, chosen, tokens, tokens_at
    return None, None, tokens, tokens_at


@contextmanager
def shadowed(replacement_policy):
    """Check every assignment attempt against :func:`reference_pick`.

    An attempt that returns without calling ``_pick`` ended early; the
    scan must find nothing there either and leave the same token bucket.
    ``early_refills`` counts the early exits that refilled that bucket.
    """
    stats = {"rounds": 0, "picks": 0, "repair_picks": 0, "early_exits": 0, "early_refills": 0}
    assign_next = _LibraryDispatcher._assign_next
    assign = _LibraryDispatcher._assign
    pick = _LibraryDispatcher._pick
    chosen = []
    picked = []

    def recording_assign(self, djob, drive):
        chosen.append((djob, drive))
        assign(self, djob, drive)

    def recording_pick(self, free, ready, mounted):
        picked.append(True)
        return pick(self, free, ready, mounted)

    def checked_assign_next(self):
        job, drive, tokens, tokens_at = reference_pick(self, replacement_policy)
        chosen.clear()
        picked.clear()
        tokens_at_before = self._repair_tokens_at
        placed = assign_next(self)
        stats["rounds"] += 1
        if not picked:
            assert job is None, "an attempt ended early where the scan finds a job"
            stats["early_exits"] += 1
            stats["early_refills"] += self._repair_tokens_at != tokens_at_before
        if job is None:
            assert not placed and not chosen, "indexed dispatcher assigned a job the scan would not"
        else:
            assert placed and len(chosen) == 1, "indexed dispatcher missed an admissible job"
            got_job, got_drive = chosen[0]
            assert got_job is job, (got_job.seq, job.seq)
            assert got_drive is drive, (str(got_drive.id), str(drive.id))
            stats["picks"] += 1
            stats["repair_picks"] += job.repair
        assert self._repair_tokens == tokens
        assert self._repair_tokens_at == tokens_at
        return placed

    with mock.patch.object(_LibraryDispatcher, "_assign_next", checked_assign_next), \
            mock.patch.object(_LibraryDispatcher, "_assign", recording_assign), \
            mock.patch.object(_LibraryDispatcher, "_pick", recording_pick):
        yield stats


@pytest.mark.parametrize("label", LABELS)
def test_pinned_configs_match_reference_scan(label):
    session, open_kwargs, run_kwargs = build(label)
    with shadowed(session.replacement_policy) as stats:
        session.open(policy="concurrent", **open_kwargs).run(**run_kwargs)
    assert stats["picks"] > 0
    assert stats["early_exits"] > 0
    if label.startswith("r2-tape-loss"):
        assert stats["repair_picks"] > 0


@lru_cache(maxsize=None)
def _workload():
    return generate_workload(
        num_objects=300,
        num_requests=20,
        request_size_bounds=(4, 10),
        object_size_bounds_mb=(10.0, 400.0),
        mean_object_size_mb=100.0,
        seed=21,
    )


SPEC = SystemSpec(
    num_libraries=2,
    library=LibrarySpec(
        num_drives=3,
        num_tapes=12,
        cell_to_drive_s=2.0,
        drive=DriveSpec(transfer_rate_mb_s=10.0, load_s=5.0, unload_s=5.0),
        tape=TapeSpec(capacity_mb=5_000.0, max_rewind_s=10.0),
    ),
)


@lru_cache(maxsize=None)
def _placement(scheme, replicas):
    placer = ParallelBatchPlacement(m=2) if scheme == "parallel_batch" else (
        ObjectProbabilityPlacement()
    )
    if replicas > 1:
        placer = wrap_scheme(placer, f"r={replicas}")
    return placer.place(_workload(), SPEC)


def test_fair_share_chaos_early_exits_refill_tokens():
    """Pinned drives idle while user and repair jobs wait for busy switch
    drives: those attempts end early, and the fair-share bucket must still
    refill there exactly as ``_pick`` would have refilled it."""
    session = SimulationSession(
        _workload(), SPEC, placement=_placement("parallel_batch", 2)
    )
    busiest = max(session.system.all_tapes(), key=lambda t: (t.used_mb, t.id))
    opensys = session.open(
        policy="concurrent",
        faults=(
            DriveFaultProcess(mtbf_s=1500.0, mttr_s=300.0),
            TapeFailure(str(busiest.id), at_s=200.0),
        ),
        fault_seed=1,
        repair_policy="fair-share",
    )
    with shadowed(session.replacement_policy) as stats:
        opensys.run(480.0, num_arrivals=25, seed=1)
    assert stats["repair_picks"] > 0
    assert stats["early_exits"] > 0
    assert stats["early_refills"] > 0


@hyp_settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(
    scheme=st.sampled_from(["object_probability", "parallel_batch"]),
    replicas=st.sampled_from([1, 2]),
    churn=st.booleans(),
    transients=st.booleans(),
    tape_loss=st.booleans(),
    repair_policy=st.sampled_from(sorted(REPAIR_POLICIES)),
    replacement=st.sampled_from(available_policies()),
    read_selection=st.sampled_from(READ_SELECTIONS),
    rate=st.sampled_from([120.0, 480.0, 1200.0]),
    seed=st.integers(0, 10_000),
)
def test_indexed_dispatch_matches_reference_scan(
    scheme, replicas, churn, transients, tape_loss, repair_policy, replacement,
    read_selection, rate, seed,
):
    session = SimulationSession(
        _workload(), SPEC, placement=_placement(scheme, replicas),
        replacement_policy=replacement,
    )
    faults = ()
    if churn:
        faults += (DriveFaultProcess(mtbf_s=1500.0, mttr_s=300.0),)
    if transients:
        faults += (TransientFaults(probability=0.05),)
    if tape_loss:
        busiest = max(session.system.all_tapes(), key=lambda t: (t.used_mb, t.id))
        faults += (TapeFailure(str(busiest.id), at_s=200.0),)
    opensys = session.open(
        policy="concurrent", faults=faults, fault_seed=seed,
        repair_policy=repair_policy, read_selection=read_selection,
    )
    with shadowed(replacement) as stats:
        result = opensys.run(rate, num_arrivals=25, seed=seed)
    assert len(result) == 25
    assert stats["rounds"] > 0


@hyp_settings(max_examples=60, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["append", "appendleft", "remove", "take"]),
            st.integers(0, 5),
            st.integers(0, 1_000),
        ),
        max_size=400,
    )
)
def test_tape_queue_keeps_fifo_heads(ops):
    """``_TapeQueue`` against a flat list: per-slot buckets stay in ``seq``
    order, ``min_seq`` is the smallest pending ``seq`` and the head heap
    stays bounded however many heads churn."""
    queue = _TapeQueue()
    flat = []
    back, front = 0, -1
    for op, slot, pick in ops:
        if op in ("append", "appendleft"):
            job = _DispatchedJob(job=None, request_id=0, records={}, done=None)
            if op == "append":
                job.seq, back = back, back + 1
            else:
                job.seq, front = front, front - 1
            queue.push(job, slot, front=op == "appendleft")
            flat.append((slot, job))
        elif op == "remove" and flat:
            slot, job = flat.pop(pick % len(flat))
            queue.remove(job, slot)
        elif op == "take":
            taken = queue.take(slot)
            assert taken == sorted((j for s, j in flat if s == slot), key=lambda j: j.seq)
            flat = [(s, j) for s, j in flat if s != slot]
        assert queue.count == len(flat)
        assert queue.min_seq() == min((j.seq for _, j in flat), default=float("inf"))
        for s, bucket in queue.buckets.items():
            seqs = [j.seq for j in bucket]
            assert seqs and seqs == sorted(seqs)
        assert len(queue.heads) <= 4 * len(queue.buckets) + 65
