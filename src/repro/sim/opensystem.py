"""Persistent open-system simulation: concurrent in-flight requests.

The paper's simulator (and :func:`repro.sim.engine.simulate_request`)
assumes requests arrive "one by one with long time interval between two
requests".  This module drops that assumption *structurally*: an
:class:`OpenSystem` owns a single long-lived DES
:class:`~repro.des.Environment`; a Poisson arrival process injects
Zipf-sampled requests onto the shared clock; and a pluggable
request-scheduling policy decides how much the in-flight requests may
overlap:

``serial-fcfs``
    Whole requests serialize behind one capacity-1 lock, reproducing the
    closed-loop :func:`~repro.sim.queueing.simulate_fcfs_queue` behaviour
    (same seed ⇒ same sojourn times) — the regression anchor.

``concurrent``
    A per-library dispatcher with per-drive job queues admits tape jobs
    from *multiple* requests simultaneously.  Requests touching disjoint
    libraries — or disjoint drives of one library — overlap fully, while
    the physical serialization points carry over unchanged: the robot arm
    (capacity-1 per library), the disk-stream cap, and the
    one-cartridge-one-drive invariant.  Drive failures (fault specs, see
    :mod:`repro.sim.faults`) interrupt the persistent drive worker;
    leftover extents re-queue and surviving drives rescue them.

Entry point: ``session.open(policy=...).run(...)``.
"""

from __future__ import annotations

import gc
from collections import deque
from dataclasses import dataclass, field, replace as _dc_replace
from heapq import heappop, heappush
from typing import Callable, Deque, Dict, List, Optional, Set, Tuple, Union

import numpy as np

from ..catalog import Request
from ..des import Environment, Event, Interrupt, Resource, ResourceUsageMonitor, Trace
from ..hardware import ObjectExtent, TapeDrive, TapeLibrary, TapeId
from ..obs import MetricsRegistry
from ..redundancy.dispatch import count_fallbacks, select_members
from .engine import RequestExecution, _serve_job, _switch_to
from .faults import FaultEscalation, FaultInjector, FaultSpec
from .metrics import DriveServiceRecord, RequestMetrics, WindowStat, sliding_window_stats
from .queueing import QueuedRequestRecord, QueueingResult
from .scheduling import TapeJob, estimate_job_time, lpt_key
from .seekplanner import SeekPlanner, resolve_seek_planner

__all__ = [
    "OpenSystem",
    "OpenSystemResult",
    "SCHEDULING_POLICIES",
    "READ_SELECTIONS",
    "available_scheduling_policies",
]

#: (record, metrics) produced by one completed request.
_Outcome = Tuple[QueuedRequestRecord, RequestMetrics]

_INF = float("inf")


@dataclass
class OpenSystemResult(QueueingResult):
    """One open-system arrival stream's outcomes.

    Extends :class:`~repro.sim.queueing.QueueingResult` (whose mean/percentile
    and busy-union utilization views apply unchanged to overlapping services)
    with the per-request paper metrics, per-resource occupancy accounting,
    and sliding-window views.

    Note that in an open system a request's ``RequestMetrics.response_s`` is
    its *sojourn* (arrival to last byte), so queueing delay is included.
    """

    policy: str = ""
    metrics: List[RequestMetrics] = field(default_factory=list)
    #: Resource name -> occupancy summary (grants, max_in_use, busy_s,
    #: slot_busy_s, queue stats) from the attached ResourceUsageMonitors.
    resources: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: Simulation time when the environment drained.
    horizon_s: float = 0.0
    #: The session's causal span tree (empty Trace when tracing was off).
    trace: Optional[Trace] = None
    #: Live-instrument registry with its snapshot series.
    registry: Optional[MetricsRegistry] = None
    #: Fault-layer summary (availability, degraded time, counters) from the
    #: run's :class:`~repro.sim.faults.FaultInjector`; empty when none armed.
    faults: Dict[str, float] = field(default_factory=dict)
    #: Repair-layer summary (tape losses, rebuilds, objects lost, backlog)
    #: from the run's :class:`~repro.sim.repair.RepairManager`; empty when
    #: no media faults were configured.
    repair: Dict[str, float] = field(default_factory=dict)

    # -- fault/availability views -----------------------------------------
    @property
    def availability(self) -> float:
        """Time-weighted mean fraction of drives up (1.0 without faults)."""
        return float(self.faults.get("availability", 1.0))

    @property
    def degraded_time_s(self) -> float:
        """Total time at least one drive was down."""
        return float(self.faults.get("degraded_time_s", 0.0))

    @property
    def aborted_requests(self) -> int:
        """Requests that completed as aborted (every candidate drive down)."""
        return sum(1 for record in self.records if record.aborted)

    # -- durability views --------------------------------------------------
    @property
    def objects_lost(self) -> int:
        """Objects with a fragment below ``needed`` survivors (unrecoverable)."""
        repair = getattr(self, "repair", None) or {}
        return int(repair.get("objects_lost", 0))

    @property
    def durability(self) -> float:
        """Fraction of cataloged objects still recoverable at the horizon."""
        repair = getattr(self, "repair", None) or {}
        total = repair.get("objects_total", 0)
        if not total:
            return 1.0
        return 1.0 - float(repair.get("objects_lost", 0)) / float(total)

    @property
    def repair_backlog_seconds(self) -> float:
        """Summed loss-detection-to-rebuilt time over all repaired members
        (open repairs are charged up to the horizon)."""
        repair = getattr(self, "repair", None) or {}
        return float(repair.get("backlog_s", 0.0))

    # -- telemetry views -------------------------------------------------
    def spans(self) -> list:
        """Every recorded span (empty when tracing was disabled)."""
        return list(self.trace) if self.trace is not None else []

    def to_chrome_trace(self) -> dict:
        """Chrome/Perfetto ``trace_event`` document of this run's spans."""
        from ..obs import to_chrome_trace

        return to_chrome_trace(self.spans(), label=f"{self.scheme}/{self.policy}")

    def write_trace(self, path) -> dict:
        """Write the Perfetto-loadable trace JSON; returns the document."""
        from ..obs import write_chrome_trace

        return write_chrome_trace(self.spans(), path, label=f"{self.scheme}/{self.policy}")

    def write_metrics(self, path) -> int:
        """Dump the registry's snapshot series as JSONL; lines written."""
        from ..obs import write_metrics_jsonl

        if self.registry is None:
            raise ValueError("this result carries no metrics registry")
        return write_metrics_jsonl(self.registry, path)

    def stage_report(self):
        """Critical-path stage attribution (see :mod:`repro.obs.report`)."""
        from ..obs import attribute_requests

        return attribute_requests(self.spans(), label=f"{self.scheme}/{self.policy}")

    @property
    def peak_in_flight(self) -> int:
        """Largest number of simultaneously in-flight requests."""
        from .metrics import in_flight_profile

        _, counts = in_flight_profile(self.records)
        return int(counts.max()) if len(counts) else 0

    def windowed(self, window_s: float, step_s: Optional[float] = None) -> List[WindowStat]:
        """Sliding-window arrivals/in-flight/sojourn-percentile stats."""
        return sliding_window_stats(self.records, window_s, step_s)

    def resource_utilization(self, name: str, capacity: int = 1) -> float:
        """Mean busy fraction of one monitored resource over the horizon."""
        stats = self.resources[name]
        if self.horizon_s <= 0:
            return 0.0
        return stats["slot_busy_s"] / (self.horizon_s * capacity)


# ---------------------------------------------------------------------------
# Scheduling policies


class SerialFCFSPolicy:
    """Exclusive whole-request service: the closed-loop model on one clock.

    Every request takes a global capacity-1 lock for its entire service, so
    hardware-state evolution (mounted tapes, head positions) and therefore
    every service duration is identical to running
    :func:`~repro.sim.queueing.simulate_fcfs_queue` with the same seed.
    """

    name = "serial-fcfs"
    #: Rejected at :class:`OpenSystem` construction when fault specs are
    #: present: the policy arms no recovery hooks between requests.
    supports_faults = False

    def bind(self, opensys: "OpenSystem") -> None:
        self.os = opensys
        self.lock = Resource(opensys.env, capacity=1)

    def serve(
        self,
        request: Request,
        arrival_s: float,
        parent: Optional[int] = None,
        token: Optional[int] = None,
    ):
        os = self.os
        env = os.env
        trace_key = token if token is not None else request.id
        with self.lock.request() as grant:
            with os.trace.span(
                env, "queue_wait", parent=parent, request=trace_key, policy=self.name
            ):
                yield grant
            start = env.now
            execution = RequestExecution(
                env,
                os.system,
                os.index,
                request,
                os.tape_priority,
                os.trace,
                os.replacement_policy,
                os.disk,
                parent=parent,
                trace_request=trace_key,
                seek_planner=os.seek_planner,
            )
            yield from execution.wait()
            # Open-system semantics: response is the sojourn (arrival to last
            # byte), so time queued behind the serial lock is part of T_switch.
            metrics = execution.finalize(start_s=arrival_s)
        record = QueuedRequestRecord(
            request_id=request.id,
            arrival_s=arrival_s,
            start_s=start,
            finish_s=env.now,
            size_mb=metrics.size_mb,
        )
        return record, metrics

    def check_drained(self) -> None:
        if self.lock.users or self.lock.queue:
            raise RuntimeError("serial-fcfs lock still held after the run drained")


@dataclass(eq=False)
class _DispatchedJob:
    """One tape job in flight through a library dispatcher.

    Compared by identity: a dispatcher removes a job from its tape bucket by
    ``is``, never by field equality.
    """

    job: TapeJob
    #: Span-tree grouping key of the owning arrival (unique per arrival).
    request_id: int
    #: The owning request's per-drive records (shared across its jobs).
    records: Dict[str, DriveServiceRecord]
    done: Event
    #: When a drive first began working on this job (service start).
    started_at: Optional[float] = None
    #: When the job entered the dispatcher (for queue/span accounting).
    submitted_at: float = 0.0
    #: Reserved ``tape_job`` span id (closed when the job lands) and the
    #: owning request's root span id.
    span_id: Optional[int] = None
    parent_id: Optional[int] = None
    #: Set when the job was failed instead of served (no candidate drive
    #: left and no repair pending); the owning request completes aborted.
    aborted: bool = False
    error: str = ""
    #: True for rebuild traffic submitted by the repair manager; repair
    #: jobs share the dispatcher/worker machinery with user restores but
    #: are ordered by the configured repair-priority policy.
    repair: bool = False
    #: Queue position while pending: submissions count up, a re-queued
    #: orphan takes a number below every pending job (see the dispatcher).
    seq: int = 0
    #: Fair-share token cost cache: the job and the ``TapeSpec`` (the
    #: holder drive's, or the library default) it was priced for, and the
    #: estimate.  A re-queued orphan carries a new job, so it reprices.
    cost_job: Optional[TapeJob] = None
    cost_spec: Optional[object] = None
    cost: float = 0.0


class _TapeQueue:
    """One admission class of pending jobs (user or repair), by tape slot.

    ``buckets`` maps a tape slot to its pending jobs in ``seq`` order and
    never holds an empty bucket; ``heads`` is a heap with one live
    ``(bucket[0].seq, slot)`` entry per bucket, plus stale entries left by
    removed heads that are dropped when they surface.
    """

    __slots__ = ("buckets", "heads", "count")

    def __init__(self) -> None:
        self.buckets: Dict[int, Deque[_DispatchedJob]] = {}
        self.heads: List[Tuple[int, int]] = []
        self.count = 0

    def push(self, djob: _DispatchedJob, slot: int, front: bool = False) -> None:
        bucket = self.buckets.get(slot)
        if bucket is None:
            self.buckets[slot] = deque((djob,))
            self._push_head(djob.seq, slot)
        elif front:
            bucket.appendleft(djob)
            self._push_head(djob.seq, slot)
        else:
            bucket.append(djob)
        self.count += 1

    def remove(self, djob: _DispatchedJob, slot: int) -> None:
        bucket = self.buckets[slot]
        if bucket[0] is djob:
            bucket.popleft()
            if bucket:
                self._push_head(bucket[0].seq, slot)
            else:
                del self.buckets[slot]
        else:
            bucket.remove(djob)
        self.count -= 1

    def take(self, slot: int) -> List[_DispatchedJob]:
        """Remove and return every pending job on one tape."""
        bucket = self.buckets.pop(slot, None)
        if bucket is None:
            return []
        self.count -= len(bucket)
        return list(bucket)

    def clear(self) -> None:
        self.buckets.clear()
        self.heads.clear()
        self.count = 0

    def min_seq(self) -> float:
        """Smallest pending ``seq`` of this class (``inf`` when empty)."""
        heads, buckets = self.heads, self.buckets
        while heads:
            seq, slot = heads[0]
            bucket = buckets.get(slot)
            if bucket is not None and bucket[0].seq == seq:
                return seq
            heappop(heads)
        return _INF

    def _push_head(self, seq: int, slot: int) -> None:
        heads = self.heads
        heappush(heads, (seq, slot))
        if len(heads) > 4 * len(self.buckets) + 64:
            # Bound the stale entries: a sorted list is a valid heap.
            self.heads = sorted((b[0].seq, s) for s, b in self.buckets.items())


class ConcurrentPolicy:
    """Overlap requests across libraries and drives.

    Each request fans its tape jobs out to per-library dispatchers and
    completes when the last job lands; dispatchers run jobs from any number
    of in-flight requests on their drives simultaneously.
    """

    name = "concurrent"
    supports_faults = True

    def bind(self, opensys: "OpenSystem") -> None:
        self.os = opensys
        self.dispatchers = {
            library.id: _LibraryDispatcher(opensys, library)
            for library in opensys.system.libraries
        }
        #: Redundancy instruments, created lazily on the first redundant
        #: serve: non-redundant runs keep their registry content (and its
        #: pinned digest) byte-identical to the pre-redundancy engine.
        self._red_inst: Optional[Dict[str, object]] = None

    def _submit_tape_jobs(
        self,
        tape_extents: Dict[TapeId, List[ObjectExtent]],
        trace_key: int,
        parent: Optional[int],
        records: Dict[str, DriveServiceRecord],
        repair: bool = False,
    ) -> List[_DispatchedJob]:
        """Fan per-tape extent lists out to the library dispatchers."""
        os = self.os
        env = os.env
        djobs: List[_DispatchedJob] = []
        by_library: Dict[int, List[TapeJob]] = {}
        for tape_id, extents in tape_extents.items():
            by_library.setdefault(tape_id.library, []).append(
                TapeJob(tape_id, sorted(extents, key=lambda e: e.start_mb))
            )
        planner = os.seek_planner
        for library_id in sorted(by_library):
            library = os.system.libraries[library_id]
            tape_jobs = by_library[library_id]
            # Longest-processing-time first, as in the closed-loop planner,
            # each job priced against its holder's spec (or the default).
            holders = library.mounted_tapes()
            default_spec = library.spec.tape
            transfer_time = library.spec.drive.transfer_time

            def key(job: TapeJob) -> tuple:
                holder = holders.get(job.tape_id)
                spec = holder.tape_spec if holder is not None else default_spec
                return lpt_key(job, spec, transfer_time, planner)

            tape_jobs.sort(key=key)
            for job in tape_jobs:
                djob = _DispatchedJob(
                    job=job, request_id=trace_key, records=records, done=env.event(),
                    submitted_at=env.now, span_id=os.trace.reserve_id(),
                    parent_id=parent, repair=repair,
                )
                djobs.append(djob)
                self.dispatchers[library_id].submit(djob)
        return djobs

    def serve(
        self,
        request: Request,
        arrival_s: float,
        parent: Optional[int] = None,
        token: Optional[int] = None,
    ):
        os = self.os
        env = os.env
        if os.index.has_redundancy:
            outcome = yield from self._serve_redundant(
                request, arrival_s, parent=parent, token=token
            )
            return outcome
        trace_key = token if token is not None else request.id
        jobs = os.index.group_by_tape(request.object_ids)
        total_mb = sum(e.size_mb for extents in jobs.values() for e in extents)
        records: Dict[str, DriveServiceRecord] = {}
        djobs = self._submit_tape_jobs(jobs, trace_key, parent, records)

        yield env.all_of([dj.done for dj in djobs])
        return self._outcome(
            request, arrival_s, total_mb, len(jobs), records, djobs,
            aborted=any(dj.aborted for dj in djobs),
        )

    def _outcome(
        self,
        request: Request,
        arrival_s: float,
        total_mb: float,
        num_tapes: int,
        records: Dict[str, DriveServiceRecord],
        djobs: List[_DispatchedJob],
        aborted: bool,
    ) -> _Outcome:
        """A finished request's ``(record, metrics)`` from its drive records.

        Service starts when a drive first began any of ``djobs``; a request
        no drive touched (every candidate drive in some library was already
        down with no repair pending) gets empty aborted metrics.
        """
        now = self.os.env.now
        if records:
            metrics = RequestMetrics.from_drive_records(
                request_id=request.id,
                size_mb=total_mb,
                num_tapes=num_tapes,
                records=list(records.values()),
                start_s=arrival_s,
                aborted=aborted,
            )
        else:
            metrics = RequestMetrics(
                request_id=request.id,
                size_mb=total_mb,
                response_s=now - arrival_s,
                seek_s=0.0,
                transfer_s=0.0,
                num_tapes=num_tapes,
                num_switches=0,
                num_drives=0,
                aborted=True,
            )
        starts = [dj.started_at for dj in djobs if dj.started_at is not None]
        record = QueuedRequestRecord(
            request_id=request.id,
            arrival_s=arrival_s,
            start_s=min(starts) if starts else now,
            finish_s=now,
            size_mb=total_mb,
            aborted=aborted,
        )
        return record, metrics

    # -- choice-of-d replica dispatch ------------------------------------
    def _redundancy_instruments(self) -> Dict[str, object]:
        if self._red_inst is None:
            registry = self.os.registry
            self._red_inst = {
                "requests": registry.counter("redundancy.requests", unit="requests"),
                "fallbacks": registry.counter("redundancy.fallbacks", unit="members"),
                "retries": registry.counter("redundancy.retries", unit="rounds"),
                "unservable": registry.counter("redundancy.unservable", unit="groups"),
                "digest": registry.digest("replica_fallbacks", unit="members"),
            }
        return self._red_inst

    def _dispatcher_live(self, tape_id: TapeId) -> bool:
        """A member is live when its library has a worker or a committed repair."""
        dispatcher = self.dispatchers[tape_id.library]
        if dispatcher.workers:
            return True
        injector = self.os.injector
        return injector is not None and injector.will_recover(dispatcher.library)

    def _dispatcher_load(self, tape_id: TapeId) -> int:
        dispatcher = self.dispatchers[tape_id.library]
        load = (
            dispatcher.pending_count + len(dispatcher.inbox) + len(dispatcher.busy)
        )
        if not dispatcher.workers:
            # Down-but-recovering: counts as live (jobs wait for the repair)
            # but any member with a working drive should win the choice.
            load += 1_000_000
        return load

    def _member_cost(self, tape_id: TapeId, extent: ObjectExtent):
        """Estimated cost of reading one member (``read_selection=cheapest``).

        Mounted tapes win outright (no robot exchange), then the lowest
        single-extent :func:`~repro.sim.scheduling.estimate_job_time`;
        down-but-recovering libraries are a last resort.
        """
        dispatcher = self.dispatchers[tape_id.library]
        library = dispatcher.library
        if not dispatcher.workers:
            return (2, 0.0)
        mounted = 0 if library.drive_holding(tape_id) is not None else 1
        estimate = estimate_job_time(
            TapeJob(tape_id, [extent]), library, planner=self.os.seek_planner
        )
        return (mounted, estimate)

    def _serve_redundant(
        self,
        request: Request,
        arrival_s: float,
        parent: Optional[int] = None,
        token: Optional[int] = None,
    ):
        """Serve via redundancy groups: route to least-loaded live members.

        Each fragment resolves to a :class:`~repro.catalog.RedundancyGroup`
        of which ``needed`` members must be read.  Selection is
        choice-of-d (:func:`repro.redundancy.dispatch.select_members`);
        jobs that abort on a failed library exclude their tape and the
        shortfall re-dispatches to surviving members, so a request only
        aborts once some group has no members left — at which point the
        bookkeeping (counters, empty-record metrics) matches the
        non-redundant abort path exactly.
        """
        os = self.os
        env = os.env
        trace_key = token if token is not None else request.id
        inst = self._redundancy_instruments()
        inst["requests"].inc()
        groups = os.index.redundancy_groups(request.object_ids)
        total_mb = sum(g.bytes_mb for g in groups)
        records: Dict[str, DriveServiceRecord] = {}
        all_djobs: List[_DispatchedJob] = []
        submitted_tapes: Set[TapeId] = set()
        #: Members still to read per group index.
        remaining = {i: g.needed for i, g in enumerate(groups)}
        #: Tapes already dispatched for a group (in flight or landed).
        used: Dict[int, Set[TapeId]] = {i: set() for i in range(len(groups))}
        #: Tapes that aborted a job of this request (never retried).
        excluded: Set[TapeId] = set()
        fallbacks = 0
        rounds = 0
        unservable = False
        cost_of = self._member_cost if os.read_selection == "cheapest" else None

        while True:
            tape_extents: Dict[TapeId, List[ObjectExtent]] = {}
            tape_groups: Dict[TapeId, List[int]] = {}
            for i, group in enumerate(groups):
                need = remaining[i]
                if need <= 0:
                    continue
                chosen = select_members(
                    _dc_replace(group, needed=need),
                    excluded | used[i],
                    self._dispatcher_live,
                    self._dispatcher_load,
                    cost_of=cost_of,
                )
                if chosen is None:
                    # Every member exhausted: the group — and with it the
                    # request — aborts, exactly as a non-redundant request
                    # whose only tape's library died.
                    unservable = True
                    inst["unservable"].inc()
                    remaining[i] = 0
                    continue
                fallbacks += count_fallbacks(chosen, group.needed)
                for tape_id, extent in chosen:
                    tape_extents.setdefault(tape_id, []).append(extent)
                    tape_groups.setdefault(tape_id, []).append(i)
                    used[i].add(tape_id)
            if not tape_extents:
                break
            if rounds:
                inst["retries"].inc()
            rounds += 1
            djobs = self._submit_tape_jobs(tape_extents, trace_key, parent, records)
            all_djobs.extend(djobs)
            submitted_tapes.update(tape_extents)
            yield env.all_of([dj.done for dj in djobs])
            for djob in djobs:
                if djob.aborted:
                    excluded.add(djob.job.tape_id)
                else:
                    for i in tape_groups.get(djob.job.tape_id, ()):
                        remaining[i] -= 1

        inst["fallbacks"].inc(fallbacks)
        inst["digest"].record(float(fallbacks))
        return self._outcome(
            request, arrival_s, total_mb, len(submitted_tapes), records, all_djobs,
            aborted=unservable,
        )

    def check_drained(self) -> None:
        for dispatcher in self.dispatchers.values():
            unserved = dispatcher.pending_count + len(dispatcher.inbox)
            if unserved:
                raise RuntimeError(
                    f"library {dispatcher.library.id} finished with "
                    f"{unserved} unserved tape jobs (no eligible drive survived?)"
                )


class _LibraryDispatcher:
    """Per-library job queue feeding persistent per-drive worker processes.

    Admission rules mirror the closed-loop planner, evaluated dynamically
    against live hardware state instead of once per request:

    * a job whose tape is mounted (or being mounted) waits for *that* drive
      — a cartridge exists once — and serves in place when it frees up;
    * an offline tape takes an idle empty switch drive first, otherwise
      displaces an idle drive's mounted tape in replacement-policy order,
      never displacing a tape that a queued job still needs;
    * pinned drives serve their mounted tape but never switch, unless no
      unpinned drive is left alive (degraded operation);
    * a failing drive's unserved extents re-queue at the front and the
      remaining drives pick them up.

    Each assignment round picks the first admissible pending job in FIFO
    order — or, with repair jobs queued, in repair-policy order — and the
    drive the rules above give it.  The pending jobs are indexed so that
    finding that job costs time in the number of drives, not in the queue
    depth.  The index keeps these invariants between rounds:

    * every pending job sits in exactly one bucket, of ``_user`` or
      ``_repair`` by its ``repair`` flag, under its tape's slot (the slot
      is unique because a dispatcher serves one library);
    * ``seq`` orders all pending jobs of both classes as one FIFO queue:
      submissions take ``_next_seq`` upwards, a failed drive's orphan takes
      ``_front_seq`` downwards, below every pending job; each bucket is in
      ``seq`` order, so only bucket heads compete;
    * each class's heap holds its buckets' head ``seq``s, so a round walks
      buckets in FIFO order and skips a tape whose drive is busy as a
      whole bucket;
    * a tape is protected from displacement while it has a bucket or a
      ``committed`` drive, so no protected set is rebuilt per round;
    * a ``committed`` drive is ``busy`` whenever a round runs: assignment,
      completion, failure and the pinned restore set or clear both in one
      synchronous step;
    * ``pending_count`` and each class's ``count`` equal the jobs queued.
    """

    def __init__(self, opensys: "OpenSystem", library: TapeLibrary) -> None:
        self.opensys = opensys
        self.env = opensys.env
        self.library = library
        self.trace = opensys.trace
        self.disk = opensys.disk
        self.displacement_key = opensys.displacement_key
        self.tape_priority = opensys.tape_priority
        self.seek_planner = opensys.seek_planner
        #: Serve each tape job as one kernel event when nothing can cut or
        #: gate its steps: no fault spec can interrupt a drive and no disk
        #: stage admits transfers.  Switches stay per-step, because
        #: ``_dispatch`` reads busy drives' mount state mid-switch.
        self.stride = opensys.disk is None and not opensys.fault_specs
        self.pending_gauge = opensys.registry.gauge(
            f"dispatch.L{library.id}.pending", unit="jobs"
        )
        #: Pending user restores and pending repair jobs, bucketed by slot.
        self._user = _TapeQueue()
        self._repair = _TapeQueue()
        self._next_seq = 0
        self._front_seq = -1
        #: Drive index -> job handed over but not yet picked up.
        self.inbox: Dict[int, _DispatchedJob] = {}
        #: Drive indices currently assigned/working (inbox or serving).
        self.busy: set = set()
        #: Idle workers parked on these events.
        self.wake: Dict[int, Event] = {}
        #: Tape slot -> drive index responsible for it right now (assignment
        #: through service; prevents two drives mounting one cartridge).
        self.committed: Dict[int, int] = {}
        #: Drive indices with a failure interrupt in flight (guards against
        #: double interrupts when two fault processes hit one drive at once).
        self._dying: set = set()
        #: Drive index -> live restore-on-repair process (pinned drives).
        self._restores: Dict[int, object] = {}
        #: Parked restore processes, woken at every dispatch round.
        self._restore_waiters: List[Event] = []
        #: Set by :meth:`FaultInjector.arm` when a transient stream targets
        #: one of this library's drives (keeps the no-faults path branch-free
        #: beyond one attribute test).
        self.transients_armed = False
        #: Set by :meth:`FaultInjector.arm` when media faults are configured
        #: (gates the lost-tape admission check) / when a wear process
        #: targets one of this library's tapes (gates cycle accounting).
        #: Both keep the no-media-fault hot path to one attribute test.
        self.media_armed = False
        self.wear_armed = False
        #: Repair-priority policy, configured by the RepairManager when
        #: media faults are armed; ``None`` keeps plain FIFO admission.
        self.repair_policy: Optional[str] = None
        #: Fair-share token bucket (drive-seconds): accrues at
        #: ``share x live drives`` and is spent per admitted repair job.
        self._repair_share = 0.0
        self._repair_burst_s = 0.0
        self._repair_tokens = 0.0
        self._repair_tokens_at = 0.0
        #: Batch-0 home tape of each pinned drive, captured at construction;
        #: repaired pinned drives restore this mount when feasible.
        self.pinned_home: Dict[int, TapeId] = {
            drive.id.index: drive.mounted.id
            for drive in library.drives
            if drive.pinned and drive.mounted is not None
        }
        self.workers = {
            drive.id.index: self.env.process(self._worker(drive))
            for drive in library.drives
            if not drive.failed
        }

    @property
    def pending_count(self) -> int:
        """Jobs queued and not yet handed to a drive."""
        return self._user.count + self._repair.count

    def pending_jobs(self) -> List[_DispatchedJob]:
        """Every pending job in FIFO order (``seq``), both classes merged."""
        jobs = [
            djob
            for queue in (self._user, self._repair)
            for bucket in queue.buckets.values()
            for djob in bucket
        ]
        jobs.sort(key=lambda djob: djob.seq)
        return jobs

    # -- admission ------------------------------------------------------
    def submit(self, djob: _DispatchedJob) -> None:
        if self.media_armed and self.library.tapes[djob.job.tape_id].lost:
            # The cartridge is destroyed: fail fast so redundant serves
            # fail over (and non-redundant requests abort) immediately.
            djob.aborted = True
            djob.error = f"tape {djob.job.tape_id} lost (media failure)"
            self._close_job_span(djob, drive_name="", aborted=True)
            djob.done.succeed()
            return
        djob.seq = self._next_seq
        self._next_seq += 1
        queue = self._repair if djob.repair else self._user
        queue.push(djob, djob.job.tape_id.slot)
        self._dispatch()
        if not self.workers:
            # No live drive at submit time: abort now unless a committed
            # repair will resurrect one (the job then waits for it).
            self._abort_unservable()

    def configure_repair(
        self, policy: str, share: float, burst_s: float
    ) -> None:
        """Arm the repair-priority policy (called by the RepairManager)."""
        self.repair_policy = policy
        self._repair_share = share
        self._repair_burst_s = burst_s
        self._repair_tokens = 0.0
        self._repair_tokens_at = self.env.now

    def _accrue_repair_tokens(self) -> None:
        """Fair-share bucket refill up to now.

        The bucket accrues ``share x live drives`` drive-seconds per second
        (capped at the burst).  It refills only in rounds that meter a
        repair job, exactly when the admission rule consults it, because
        the live-drive count may change between refills.
        """
        now = self.env.now
        if now > self._repair_tokens_at:
            rate = self._repair_share * max(1, len(self.workers))
            self._repair_tokens = min(
                self._repair_burst_s,
                self._repair_tokens + rate * (now - self._repair_tokens_at),
            )
            self._repair_tokens_at = now

    def _repair_cost(self, djob: _DispatchedJob, slot: int, mounted) -> float:
        """Token cost of a repair job: its estimated service time, priced
        against the ``TapeSpec`` of the drive holding its tape (cached per
        job and spec)."""
        holder = mounted.get(slot)
        spec = holder.tape_spec if holder is not None else self.library.spec.tape
        if djob.cost_spec is not spec or djob.cost_job is not djob.job:
            djob.cost = estimate_job_time(
                djob.job, self.library, planner=self.seek_planner
            )
            djob.cost_job = djob.job
            djob.cost_spec = spec
        return djob.cost

    def _dispatch(self) -> None:
        if self._user.count or self._repair.count:
            # Round-invariant context: the live-drive pool and its degraded
            # flag cannot change during a synchronous dispatch round
            # (workers only resume at a later kernel step), and neither can
            # mounts, indexed here by slot in drive order (``setdefault``
            # keeps the first holder).
            workers = self.workers
            drives = self.library.drives
            live = [d for d in drives if d.id.index in workers]
            degraded = not any(not d.pinned for d in live)
            mounted = {}
            for d in drives:
                tape = d.mounted
                if tape is not None:
                    mounted.setdefault(tape.id.slot, d)
            while self.pending_count and self._assign_next(live, degraded, mounted):
                pass
        self.pending_gauge.set(self.pending_count, self.env.now)
        if self._restore_waiters:
            waiters, self._restore_waiters = self._restore_waiters, []
            for event in waiters:
                if not event.triggered:
                    event.succeed()

    def _assign_next(self, live, degraded, mounted) -> bool:
        """Assign the first admissible pending job; True if one was placed."""
        busy = self.busy
        idle = [d for d in live if d.id.index not in busy]
        if not idle:
            return False
        free = self._free_drive(idle, degraded)
        ready = self._ready_drives(idle) if free is None else None
        pick = self._pick(free, ready, mounted)
        if pick is None:
            return False
        djob, drive, cost = pick
        queue = self._repair if djob.repair else self._user
        queue.remove(djob, djob.job.tape_id.slot)
        if cost:
            self._repair_tokens -= cost
        self._assign(djob, drive)
        return True

    def _free_drive(self, idle: List[TapeDrive], degraded: bool) -> Optional[TapeDrive]:
        """The drive any tape without a holder would take, or ``None``.

        Job-invariant: the lowest-index idle empty switch drive, else the
        idle switch drive whose unprotected tape the replacement policy
        displaces first.
        """
        displaceable = []
        user, repair, committed = self._user.buckets, self._repair.buckets, self.committed
        for d in idle:
            if d.pinned and not degraded:
                continue
            tape = d.mounted
            if tape is None:
                return d  # ``idle`` is in drive order: the first empty wins
            slot = tape.id.slot
            if slot not in user and slot not in repair and slot not in committed:
                displaceable.append(d)
        if not displaceable:
            return None
        key, priority = self.displacement_key, self.tape_priority
        return min(displaceable, key=lambda d: key(d, priority))

    def _ready_drives(self, idle: List[TapeDrive]) -> Dict[int, TapeDrive]:
        """Slot -> idle holder drive: with no free drive, the only tapes
        that can be served this round are those an idle drive holds (a
        committed tape's drive is always busy)."""
        ready = {}
        for d in idle:
            tape = d.mounted
            if tape is not None and tape.id.slot not in self.committed:
                ready[tape.id.slot] = d
        return ready

    def _pick(self, free, ready, mounted):
        """``(job, drive, token cost)`` of the first admissible job in policy
        order, or ``None``.  User-first and repair-first serve one class
        before the other; fair-share and plain FIFO merge both by ``seq``.
        Fair-share meters repair jobs against the token bucket only while a
        user job waits: otherwise repair runs regardless of tokens, so idle
        drives are never held back and the environment can always drain (a
        token-starved repair job with user work pending always has a future
        completion event to wake it)."""
        user, repair = self._user, self._repair
        policy = self.repair_policy
        if repair.count and policy == "repair-first":
            return self._first(repair, free, ready, mounted) or self._first(
                user, free, ready, mounted
            )
        first_user = self._first(user, free, ready, mounted) if user.count else None
        if not repair.count:
            return first_user
        if policy == "user-first":
            return first_user or self._first(repair, free, ready, mounted)
        limit = first_user[0].seq if first_user is not None else _INF
        metered = (
            policy == "fair-share" and user.count > 0 and repair.min_seq() < limit
        )
        if metered:
            self._accrue_repair_tokens()
        return self._first(repair, free, ready, mounted, limit, metered) or first_user

    def _first(self, queue: _TapeQueue, free, ready, mounted, limit=_INF, metered=False):
        """First admissible job of one class with ``seq < limit``.

        A tape is admissible when its holder (committed drive, else the
        live drive it is mounted in) is idle, or when it has no holder and
        ``free`` is set.  With ``free`` unset only the ``ready`` tapes can
        be; otherwise buckets are walked in head order, skipping whole
        tapes whose holder is busy.  ``metered`` additionally requires a
        repair job's token cost to be covered.
        """
        buckets = queue.buckets
        best = None
        if free is None:
            for slot, drive in ready.items():
                bucket = buckets.get(slot)
                if bucket is not None:
                    found = self._scan(bucket, slot, mounted, limit, metered)
                    if found is not None:
                        best = (found[0], drive, found[1])
                        limit = found[0].seq
            return best
        heads = queue.heads
        committed, workers, busy = self.committed, self.workers, self.busy
        drives = self.library.drives
        walked = []
        while heads:
            seq, slot = heads[0]
            if seq >= limit:
                break
            bucket = buckets.get(slot)
            if bucket is None or bucket[0].seq != seq:
                heappop(heads)  # stale head entry
                continue
            idx = committed.get(slot)
            if idx is None:
                holder = mounted.get(slot)
                if holder is not None and holder.id.index in workers:
                    idx = holder.id.index
            if idx is not None and idx in busy:
                walked.append(heappop(heads))  # the cartridge's drive is busy
                continue
            drive = free if idx is None else drives[idx]
            if not metered:
                best = (bucket[0], drive, 0.0)
                break
            found = self._scan(bucket, slot, mounted, limit, metered)
            if found is not None:
                best = (found[0], drive, found[1])
                limit = found[0].seq
            walked.append(heappop(heads))
        for entry in walked:
            heappush(heads, entry)
        return best

    def _scan(self, bucket, slot, mounted, limit, metered):
        """``(job, cost)`` of the first job in one admissible tape's bucket
        that may run now, or ``None``."""
        if not metered:
            head = bucket[0]
            return (head, 0.0) if head.seq < limit else None
        for djob in bucket:
            if djob.seq >= limit:
                return None
            cost = self._repair_cost(djob, slot, mounted)
            if self._repair_tokens >= cost:
                return (djob, cost)
        return None

    def _assign(self, djob: _DispatchedJob, drive: TapeDrive) -> None:
        idx = drive.id.index
        self.busy.add(idx)
        self.committed[djob.job.tape_id.slot] = idx
        self.inbox[idx] = djob
        wake = self.wake.pop(idx, None)
        if wake is not None:
            wake.succeed()

    # -- failure / repair hooks (driven by the FaultInjector) ------------
    def purge_lost_tape(self, tape_id: TapeId) -> None:
        """Abort queued / handed-over jobs targeting a destroyed cartridge.

        A job a worker is *already serving* completes (bytes were streaming
        before the loss; the loss manifests at the next mount attempt).
        Everything still queued or parked in a drive inbox fails now, so
        redundant requests fail over within the same dispatch round.
        """
        slot = tape_id.slot
        doomed = self._user.take(slot) + self._repair.take(slot)
        doomed.sort(key=lambda djob: djob.seq)
        for idx in [
            i for i, dj in self.inbox.items() if dj.job.tape_id == tape_id
        ]:
            doomed.append(self.inbox.pop(idx))
            self.busy.discard(idx)
        self.committed.pop(slot, None)
        for djob in doomed:
            djob.aborted = True
            djob.error = f"tape {tape_id} lost (media failure)"
            self._close_job_span(djob, drive_name="", aborted=True)
            djob.done.succeed()
        if doomed:
            self._dispatch()

    def fail_drive(self, drive: TapeDrive, cause: str = "drive-failure") -> bool:
        """Interrupt the drive's worker (and any restore in flight).

        Returns False when the drive is already dead or dying, so two fault
        processes hitting one drive at the same instant cannot double-fail
        it (the loser must not later "repair" a failure it never caused).
        """
        idx = drive.id.index
        worker = self.workers.get(idx)
        if worker is None or not worker.is_alive or idx in self._dying:
            return False
        self._dying.add(idx)
        restore = self._restores.get(idx)
        if restore is not None and restore.is_alive:
            restore.interrupt(cause)
        worker.interrupt(cause)
        return True

    def repair_drive(self, drive: TapeDrive) -> bool:
        """Bring a failed drive back: spawn a fresh worker, rejoin the pool.

        Pinned drives additionally start a restore process that remounts
        their batch-0 home tape once the cartridge is back in its cell and
        the drive is idle — ending degraded parallel-batch mode.
        """
        idx = drive.id.index
        if idx in self.workers:
            return False
        drive.failed = False
        self.workers[idx] = self.env.process(self._worker(drive))
        injector = self.opensys.injector
        if injector is not None:
            injector.note_drive_up(str(drive.id))
        home = self.pinned_home.get(idx)
        if drive.pinned and home is not None and idx not in self._restores:
            self._restores[idx] = self.env.process(
                self._restore_pinned(drive, home)
            )
        self._dispatch()
        return True

    def _restore_pinned(self, drive: TapeDrive, home: TapeId):
        """Remount a repaired pinned drive's home tape when feasible.

        Waits (woken at every dispatch round) until the drive is idle and
        the home cartridge is reachable: either back in its cell, or parked
        in an *idle* switch drive that served it in degraded mode — then
        it is reclaimed (rewind + robot unload back to the cell) before the
        normal switch.  Queued jobs always win ties: the restore only
        claims drives nothing is assigned to.
        """
        env = self.env
        idx = drive.id.index
        try:
            while True:
                if drive.failed or idx not in self.workers:
                    return
                holder = self.library.drive_holding(home)
                if holder is drive:
                    return  # already home (e.g. a queued job remounted it)
                self_idle = (
                    home.slot not in self.committed
                    and idx not in self.busy
                    and idx not in self.inbox
                )
                holder_idx = holder.id.index if holder is not None else None
                can_reclaim = holder is None or (
                    holder_idx in self.workers
                    and holder_idx not in self.busy
                    and holder_idx not in self.inbox
                )
                if self_idle and can_reclaim:
                    self.busy.add(idx)
                    if holder_idx is not None:
                        self.busy.add(holder_idx)
                    self.committed[home.slot] = idx
                    record = DriveServiceRecord(str(drive.id))
                    try:
                        if holder is not None:
                            yield from self._eject(holder, home)
                        yield from _switch_to(
                            env, self.library, drive, home, record, self.trace
                        )
                    finally:
                        self.busy.discard(idx)
                        if holder_idx is not None:
                            self.busy.discard(holder_idx)
                        if self.committed.get(home.slot) == idx:
                            del self.committed[home.slot]
                    return
                event = env.event()
                self._restore_waiters.append(event)
                yield event
        except Interrupt:
            return  # the drive failed again mid-restore; worker cleans up
        finally:
            self._restores.pop(idx, None)
            self._dispatch()

    def _eject(self, holder: TapeDrive, tape_id: TapeId):
        """Rewind + robot unload: return a reclaimed cartridge to its cell."""
        env = self.env
        name = str(holder.id)
        robot = self.library.robot
        rewind = holder.rewind_time()
        if rewind > 0:
            with self.trace.span(env, "rewind", drive=name):
                yield env.timeout(rewind)
        requested_at = env.now
        with robot.resource.request() as grant:
            yield grant
            if env.now > requested_at:
                self.trace.record(
                    "robot_wait", requested_at, env.now, drive=name
                )
            if holder.mounted is None or holder.mounted.id != tape_id:
                return  # the holder failed (and ejected) while we waited
            with self.trace.span(env, "unload", drive=name):
                yield env.timeout(holder.unload_time)
            with self.trace.span(env, "robot_exchange", drive=name):
                yield env.timeout(robot.move_time)
            # The holder may have failed mid-eject: its worker already
            # pulled the cartridge back to the cell, which is what we want.
            if holder.mounted is not None and holder.mounted.id == tape_id:
                holder.unmount()

    def _abort_unservable(self) -> None:
        """Fail every queued job when no drive can ever serve it.

        Called when the last live drive leaves the pool (and at submit into
        a dead library).  Jobs survive only if the fault injector has a
        *committed* repair for one of this library's drives — a future
        stochastic failure/repair cycle cannot resurrect a drive that died
        for another reason, so waiting on one would hang the environment.
        """
        if self.workers:
            return
        injector = self.opensys.injector
        if injector is not None and injector.will_recover(self.library):
            return
        doomed = list(self.inbox.values()) + self.pending_jobs()
        self.inbox.clear()
        self._user.clear()
        self._repair.clear()
        for djob in doomed:
            self.committed.pop(djob.job.tape_id.slot, None)
            djob.aborted = True
            djob.error = (
                f"library {self.library.id}: all drives failed, none pending "
                "repair"
            )
            self._close_job_span(djob, drive_name="", aborted=True)
            djob.done.succeed()
        self.pending_gauge.set(0, self.env.now)

    # -- the drive worker ------------------------------------------------
    def _worker(self, drive: TapeDrive):
        """Persistent drive process: serve dispatched jobs until failure.

        Lives for the whole session (re-used across requests); parks on a
        wake event while idle, so a drained environment simply leaves it
        suspended.
        """
        env = self.env
        trace = self.trace
        idx = drive.id.index
        drive_name = str(drive.id)
        djob: Optional[_DispatchedJob] = None
        try:
            while True:
                while idx not in self.inbox:
                    event = env.event()
                    self.wake[idx] = event
                    yield event
                djob = self.inbox.pop(idx)
                job = djob.job
                record = djob.records.get(drive_name)
                if record is None:
                    record = djob.records[drive_name] = DriveServiceRecord(drive_name)
                if djob.started_at is None:
                    djob.started_at = env.now
                if env.now > djob.submitted_at:
                    trace.record(
                        "dispatch_wait", djob.submitted_at, env.now,
                        parent=djob.span_id, request=djob.request_id,
                        drive=drive_name,
                    )
                injector = self.opensys.injector
                mounted_cycle = 0.0
                if drive.mounted is None or drive.mounted.id != job.tape_id:
                    mounted_cycle = 1.0
                    if self.transients_armed:
                        yield from injector.transient_gate(
                            drive_name, "mount",
                            parent=djob.span_id, request=djob.request_id,
                        )
                    yield from _switch_to(
                        env, self.library, drive, job.tape_id, record, trace,
                        parent=djob.span_id, request=djob.request_id,
                    )
                if self.transients_armed:
                    yield from injector.transient_gate(
                        drive_name, "read",
                        parent=djob.span_id, request=djob.request_id,
                    )
                yield from _serve_job(
                    env, drive, job, record, trace, self.disk,
                    parent=djob.span_id, request=djob.request_id,
                    planner=self.seek_planner, stride=self.stride,
                )
                record.completion_s = env.now
                self.committed.pop(job.tape_id.slot, None)
                self.busy.discard(idx)
                finished, djob = djob, None
                self._close_job_span(finished, drive_name)
                finished.done.succeed()
                if self.wear_armed:
                    # Media wear is charged at job boundaries: one cycle per
                    # mount plus one per extent seek.  A wear death here
                    # purges queued jobs and wakes the repair manager before
                    # the next dispatch round.
                    injector.note_tape_cycles(
                        job.tape_id, mounted_cycle + float(len(job.extents))
                    )
                self._dispatch()
        except (Interrupt, FaultEscalation) as cause:
            drive.failed = True
            trace.record(
                "drive_failure", env.now, env.now,
                parent=djob.span_id if djob is not None else None,
                request=djob.request_id if djob is not None else None,
                drive=drive_name, cause=str(cause),
            )
            if drive.mounted is not None:
                drive.unmount()  # cartridge pulled back to its cell
            self.workers.pop(idx, None)
            self.wake.pop(idx, None)
            self.busy.discard(idx)
            self._dying.discard(idx)
            injector = self.opensys.injector
            if injector is not None:
                injector.note_drive_down(drive_name)
            orphan = self.inbox.pop(idx, None) or djob
            if orphan is not None:
                self.committed.pop(orphan.job.tape_id.slot, None)
                record = orphan.records.get(drive_name)
                if record is not None:
                    record.completion_s = env.now
                if orphan.job.is_done:
                    self._close_job_span(orphan, drive_name)
                    orphan.done.succeed()
                else:
                    # The in-flight extent restarts from scratch elsewhere;
                    # the job keeps its reserved span id, so the rescuing
                    # drive's stages stay in the same causal subtree and the
                    # span still closes exactly once — when the job lands.
                    orphan.job = orphan.job.split_remaining()
                    orphan.seq = self._front_seq
                    self._front_seq -= 1
                    queue = self._repair if orphan.repair else self._user
                    queue.push(orphan, orphan.job.tape_id.slot, front=True)
            self._dispatch()
            # If this was the library's last drive and no repair is
            # committed, the queue can never drain: fail it now.
            self._abort_unservable()

    def _close_job_span(
        self, djob: _DispatchedJob, drive_name: str, aborted: bool = False
    ) -> None:
        """Close the job's reserved ``tape_job`` span (exactly once)."""
        attrs = {"tape": str(djob.job.tape_id), "drive": drive_name}
        if aborted:
            attrs["aborted"] = True
            attrs["error"] = djob.error
        self.trace.record_reserved(
            djob.span_id,
            "tape_job",
            djob.submitted_at,
            self.env.now,
            parent=djob.parent_id,
            request=djob.request_id,
            **attrs,
        )


#: Registered request-scheduling policies (name -> zero-arg factory).
SCHEDULING_POLICIES: Dict[str, Callable[[], object]] = {
    SerialFCFSPolicy.name: SerialFCFSPolicy,
    ConcurrentPolicy.name: ConcurrentPolicy,
}

#: Degraded-read member-selection strategies (``read_selection=``).
READ_SELECTIONS = ("least-loaded", "cheapest")


def available_scheduling_policies() -> Tuple[str, ...]:
    return tuple(sorted(SCHEDULING_POLICIES))


# ---------------------------------------------------------------------------
# The open system itself


class OpenSystem:
    """A placed tape system serving an open arrival stream on one clock.

    Created via :meth:`repro.sim.session.SimulationSession.open` (or
    directly).  The environment, robot bindings, disk-stream cap, resource
    monitors, and policy state persist across :meth:`run` calls, so several
    arrival batches can share one warmed-up system.

    Parameters
    ----------
    session:
        The placed :class:`~repro.sim.session.SimulationSession`.
    policy:
        A name from :data:`SCHEDULING_POLICIES` (default ``"concurrent"``).
    faults:
        Optional iterable of :class:`~repro.sim.faults.FaultSpec`s, armed
        at each :meth:`run` (``concurrent`` policy only) and validated
        here, before any simulation runs.
    fault_seed:
        Root seed for the fault processes' random substreams (independent
        of the arrival-stream seed passed to :meth:`run`).
    seek_planner:
        Within-tape retrieval-order strategy — a registered name, a
        :class:`~repro.sim.seekplanner.SeekPlanner` instance, or ``None``
        to inherit the session's planner (itself defaulting to
        ``greedy-sweep``).
    repair_policy:
        How rebuild traffic competes with user restores when media faults
        are armed — a name from
        :data:`repro.sim.repair.REPAIR_POLICIES` (default ``user-first``).
        Validated even without media faults; only armed with them.
    read_selection:
        How degraded reads pick their ``needed`` members: ``least-loaded``
        (the PR 8 default, bit-identical) or ``cheapest`` (mounted tape
        first, then lowest estimated job time).
    """

    def __init__(
        self,
        session,
        policy: str = "concurrent",
        faults: Optional[Tuple[FaultSpec, ...]] = None,
        fault_seed: int = 0,
        seek_planner: Union[None, str, SeekPlanner] = None,
        repair_policy: Optional[str] = None,
        read_selection: str = "least-loaded",
    ) -> None:
        self.session = session
        self.system = session.system
        if seek_planner is None:
            seek_planner = getattr(session, "seek_planner", None)
        self.seek_planner = resolve_seek_planner(seek_planner)
        # Share the session's trace when it enabled one (closed-loop spans
        # and open-system spans then interleave with distinct ids); otherwise
        # trace this system by default — REPRO_TRACE=0 still disables it.
        self.trace = session.trace if session.trace.enabled else Trace()
        self.replacement_policy = session.replacement_policy
        self.displacement_key = session.displacement_key
        self.tape_priority = session.placement.tape_priority

        try:
            factory = SCHEDULING_POLICIES[policy]
        except KeyError:
            known = ", ".join(available_scheduling_policies())
            raise ValueError(
                f"unknown scheduling policy {policy!r}; known: {known}"
            ) from None
        self.fault_specs: Tuple[FaultSpec, ...] = tuple(faults or ())
        for spec in self.fault_specs:
            spec.validate(self.system)
        if self.fault_specs and not getattr(factory, "supports_faults", False):
            raise ValueError(
                f"fault injection requires the 'concurrent' policy, not "
                f"{policy!r} (it arms no recovery hooks between requests)"
            )

        self.env = Environment()
        self._ran = False
        self._expected = 0

        # Registry first: policy binding and monitor attachment publish
        # instruments into it.
        self.registry = MetricsRegistry()
        self._arrival_seq = 0
        self._in_flight = self.registry.gauge("requests.in_flight", unit="requests")
        self._arrived = self.registry.counter("requests.arrived", unit="requests")
        self._completed = self.registry.counter("requests.completed", unit="requests")
        self._aborted = self.registry.counter("requests.aborted", unit="requests")
        self._switches = self.registry.counter("tape.switches", unit="switches")
        # Per-request latency digests: mergeable sketches whose fleet-level
        # p50/p95/p99 compose exactly across sweep workers (see
        # :mod:`repro.obs.digest`).  One log + one dict increment per stage
        # per completed request.
        self._d_sojourn = self.registry.digest("latency.sojourn_s", unit="s")
        self._d_seek = self.registry.digest("latency.seek_s", unit="s")
        self._d_switch = self.registry.digest("latency.switch_s", unit="s")
        self._d_transfer = self.registry.digest("latency.transfer_s", unit="s")
        #: Optional per-completion hook ``hook(opensys, (record, metrics))``,
        #: fired after a request's instruments settle.  The sweep engine
        #: wires a throttled fleet-feed emitter here so long points stream
        #: progress mid-run; when unset the cost is one None check.
        self.on_complete: Optional[Callable[["OpenSystem", _Outcome], None]] = None

        streams = self.system.spec.disk_streams
        self.disk = Resource(self.env, streams) if streams is not None else None
        self.monitors: Dict[str, ResourceUsageMonitor] = {}
        for library in self.system.libraries:
            library.robot.bind(self.env)
            name = f"L{library.id}.robot"
            self.monitors[name] = ResourceUsageMonitor(
                name, registry=self.registry
            ).attach(library.robot.resource)
        if self.disk is not None:
            self.monitors["disk"] = ResourceUsageMonitor(
                "disk", registry=self.registry
            ).attach(self.disk)

        if read_selection not in READ_SELECTIONS:
            raise ValueError(
                f"unknown read selection {read_selection!r}; known: "
                + ", ".join(READ_SELECTIONS)
            )
        self.read_selection = read_selection

        self.policy_name = policy
        self.injector: Optional[FaultInjector] = None
        self.policy = factory()
        self.policy.bind(self)
        if self.fault_specs:
            self.injector = FaultInjector(self.fault_specs, seed=fault_seed).bind(self)

        # The repair manager exists only when media can actually be lost:
        # its repair.* instruments and groups_at_risk gauge then never
        # appear in drive-fault-only or fault-free runs (registry parity).
        from .repair import REPAIR_POLICIES, RepairManager

        if repair_policy is not None and repair_policy not in REPAIR_POLICIES:
            raise ValueError(
                f"unknown repair policy {repair_policy!r}; known: "
                + ", ".join(REPAIR_POLICIES)
            )
        self.repair: Optional[RepairManager] = None
        if self.injector is not None and self.injector.has_media_faults:
            self.repair = RepairManager(self, policy=repair_policy or "user-first")

    @property
    def index(self):
        """The session's live location index (tracks ``session.reset()``)."""
        return self.session.index

    def run(
        self,
        arrival_rate_per_hour: float,
        num_arrivals: int = 100,
        seed: int = 0,
        reset: bool = True,
        sample_period_s: Optional[float] = None,
    ) -> OpenSystemResult:
        """Inject a Poisson stream of Zipf-sampled requests; drain; report.

        Arrival sampling matches
        :func:`~repro.sim.queueing.simulate_fcfs_queue` draw-for-draw, so
        the same seed produces the same arrival times and request sequence.
        Subsequent calls continue on the same clock (pass ``reset=False``).
        ``sample_period_s`` installs a periodic registry snapshot sampler
        on the shared clock (it stops re-arming once the system drains).
        """
        if arrival_rate_per_hour <= 0:
            raise ValueError(
                f"arrival rate must be positive, got {arrival_rate_per_hour}"
            )
        if num_arrivals <= 0:
            raise ValueError(f"num_arrivals must be positive, got {num_arrivals}")
        # Pause automatic cyclic GC for the whole stream, not just the
        # inner ``env.run()`` loop (which pauses on its own and leaves a
        # pre-disabled GC alone): ``session.reset()`` and the setup /
        # finalization around the event loop allocate enough to trigger
        # full-heap collections that rescan the persistent workload graph —
        # inside any wall/CPU measurement a caller wraps around this call.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            if reset:
                if self._ran:
                    raise ValueError(
                        "reset=True is only valid for the first run on this "
                        "OpenSystem (the clock and hardware state have advanced); "
                        "pass reset=False to continue the stream"
                    )
                self.session.reset()
            self._ran = True
            self.session._as_placed = False
            self._expected = num_arrivals

            rng = np.random.default_rng(seed)
            inter = rng.exponential(3600.0 / arrival_rate_per_hour, size=num_arrivals)
            arrivals = np.cumsum(inter) + self.env.now
            sampled = self.session.workload.requests.sample(rng, num_arrivals)

            outcomes: List[_Outcome] = []

            def arrival_process():
                for arrival, request in zip(arrivals, sampled):
                    delay = float(arrival) - self.env.now
                    if delay > 0:
                        yield self.env.timeout(delay)
                    self.env.process(
                        self._request_runner(request, float(arrival), outcomes)
                    )

            self.env.process(arrival_process())
            if self.injector is not None:
                self.injector.arm()
            if sample_period_s is not None:
                self.registry.install_sampler(self.env, sample_period_s)
            self.env.run()
            self.policy.check_drained()
            if self.injector is not None:
                self.injector.finalize()
            self.registry.snapshot(self.env.now)
        finally:
            if gc_was_enabled:
                gc.enable()
        if len(outcomes) != num_arrivals:
            raise RuntimeError(
                f"{num_arrivals - len(outcomes)} requests never completed "
                "(environment drained early)"
            )

        num_drives = sum(len(library.drives) for library in self.system.libraries)
        outcomes.sort(key=lambda pair: pair[0].arrival_s)
        result = OpenSystemResult(
            scheme=self.session.scheme_name,
            arrival_rate_per_hour=arrival_rate_per_hour,
            records=[record for record, _ in outcomes],
            policy=self.policy_name,
            metrics=[metrics for _, metrics in outcomes],
            resources={name: mon.summary() for name, mon in self.monitors.items()},
            horizon_s=self.env.now,
            trace=self.trace,
            registry=self.registry,
            faults=(
                self.injector.summary(self.env.now, num_drives=num_drives)
                if self.injector is not None
                else {}
            ),
            repair=(
                self.repair.summary(self.env.now)
                if self.repair is not None
                else {}
            ),
        )
        # Publish availability in its horizon-weighted mergeable form so a
        # registry export (metrics JSONL) alone can reconstruct fleet
        # availability.  Set-to-current (not +=) keeps continued streams
        # (reset=False) and snapshot_of_result's overwrite consistent.
        horizon_c = self.registry.counter("fleet.horizon_s", unit="s")
        horizon_c.inc(result.horizon_s - horizon_c.value)
        avail_c = self.registry.counter("fleet.availability_weighted_s", unit="s")
        avail_c.inc(result.horizon_s * result.availability - avail_c.value)
        return result

    def _request_runner(self, request: Request, arrival_s: float, sink: List[_Outcome]):
        # Catalog requests can be sampled repeatedly, so the span tree is
        # keyed by a unique per-arrival token; the catalog id rides along as
        # a root-span attribute.
        token = self._arrival_seq
        self._arrival_seq += 1
        self._arrived.inc()
        self._in_flight.add(1, self.env.now)
        with self.trace.span(
            self.env, "request", request=token,
            catalog_id=request.id, policy=self.policy_name,
        ) as ctx:
            outcome = yield from self.policy.serve(
                request, arrival_s, parent=ctx.id, token=token
            )
        self._in_flight.add(-1, self.env.now)
        self._completed.inc()
        if outcome[0].aborted:
            self._aborted.inc()
        metrics = outcome[1]
        self._switches.inc(metrics.num_switches)
        # switch_s is derived (response - seek - transfer) and can round a
        # hair below zero; digests are non-negative by contract.
        self._d_sojourn.record(max(0.0, metrics.response_s))
        self._d_seek.record(max(0.0, metrics.seek_s))
        self._d_switch.record(max(0.0, metrics.switch_s))
        self._d_transfer.record(max(0.0, metrics.transfer_s))
        sink.append(outcome)
        if self.on_complete is not None:
            self.on_complete(self, outcome)
        if self.injector is not None and len(sink) >= self._expected:
            # Last planned arrival landed: stop recurring fault processes so
            # the environment drains instead of ticking MTBF clocks forever.
            self.injector.stand_down()

    def __repr__(self) -> str:
        return (
            f"<OpenSystem {self.policy_name} on {self.session.scheme_name}, "
            f"t={self.env.now:.1f}s>"
        )

