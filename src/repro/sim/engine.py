"""The request-service engine: Sec. 6's simulator, on the DES kernel.

One call to :func:`simulate_request` serves one request to completion:

* the location index resolves the request to per-tape jobs;
* tapes already mounted serve in place (drives run in parallel);
* mounted switchable tapes without requested objects switch immediately;
  offline tapes queue LPT-first and free switch drives pull greedily;
* every mount/unmount competes for the library's single robot arm
  (capacity-1 resource) — robots of different libraries are independent;
* within a tape, extents are read in the order chosen by the configured
  seek planner (default: the paper's cheaper single sweep; see
  :mod:`repro.sim.seekplanner`).

Hardware state (mounted tapes, head positions) is mutated and *persists*
across calls, exactly like the paper's simulator where requests arrive one
at a time with long gaps: a switching tape left mounted stays mounted, and
its rewind is paid by whichever later request displaces it (T_switch
explicitly includes rewind time, Sec. 4).

Nothing outside a drive observes the boundaries between its seeks and
transfers, so a tape job is one kernel event (a *stride*): its end time is
the per-extent seeks and transfers added up in the order per-extent events
would have advanced the clock.  A switch is three: the rewind, the robot
request, and the robot-held unload + exchange + load.  Traced strides emit
the same spans, with computed times.  Two drives that finish at one instant
act in the order their job or exchange started.  Per-step service (one
event per seek, transfer and switch stage) remains where something does
observe or cut those boundaries: a disk stage that admits each transfer
(``disk_bandwidth_mb_s``), and the concurrent open-system worker, whose
dispatcher reads busy drives' mount and head state and whose drives fault
specs can interrupt mid-stage.

The machinery is factored as :class:`RequestExecution` so the same
planning / drive-process logic can run either on a throwaway
:class:`~repro.des.Environment` (this module's closed-loop
:func:`simulate_request`) or as one exclusive request process on a
session's long-lived shared environment (the ``serial-fcfs`` policy of
:mod:`repro.sim.opensystem`).  Drive failures are injected only there, on
the ``concurrent`` policy, through :mod:`repro.sim.faults` specs.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Mapping, Optional, Union

from ..catalog import LocationIndex, Request
from ..des import Environment, Resource, Trace
from ..hardware import TapeDrive, TapeLibrary, TapeId, TapeSystem
from .metrics import DriveServiceRecord, RequestMetrics
from .scheduling import TapeJob, build_library_plan
from .seekplanner import SeekPlanner, resolve_seek_planner

__all__ = ["simulate_request", "RequestExecution"]

_NULL_TRACE = Trace(enabled=False)


class RequestExecution:
    """One request admitted onto an environment (exclusive or shared).

    Construction plans every library's work against the *current* hardware
    state and spawns the drive processes; the caller then either drains the
    environment (:func:`simulate_request`) or, on a shared clock, yields
    from :meth:`wait` inside its own process.  :meth:`finalize` validates
    that every queued tape job was served and builds the request's metrics,
    measuring response time from ``env.now`` at admission — so on a shared
    environment the numbers are identical to a private zero-based clock.

    When tracing is enabled, every stage lands in a causal span tree.  A
    shared-clock caller passes ``parent`` (its own open ``request`` span);
    the closed-loop wrapper leaves it None and the execution reserves its
    own ``request`` root span, closed in :meth:`finalize`.
    """

    def __init__(
        self,
        env: Environment,
        system: TapeSystem,
        index: LocationIndex,
        request: Request,
        tape_priority: Optional[Mapping[TapeId, float]] = None,
        trace: Optional[Trace] = None,
        replacement_policy: str = "least_popular",
        disk: Optional[Resource] = None,
        parent: Optional[int] = None,
        trace_request: Optional[int] = None,
        seek_planner: Union[None, str, SeekPlanner] = None,
    ) -> None:
        self.env = env
        self.system = system
        self.request = request
        self.started_at = env.now
        # Resolve once at admission; every per-tape plan and LPT estimate in
        # this execution uses the same planner instance.
        planner = resolve_seek_planner(seek_planner)
        self.seek_planner = planner
        trace = trace if trace is not None else _NULL_TRACE
        self.trace = trace
        # The span-tree grouping key.  Open-system callers pass a unique
        # per-arrival token (the same catalog request can arrive repeatedly);
        # closed-loop executions default to the catalog id.
        self._trace_request = trace_request if trace_request is not None else request.id
        self._root_id: Optional[int] = None
        if parent is None:
            # Closed loop: this execution owns the request root span.
            self._root_id = trace.reserve_id()
            parent = self._root_id

        jobs = index.group_by_tape(request.object_ids)
        self.num_tapes = len(jobs)
        self.total_mb = sum(
            extent.size_mb for extents in jobs.values() for extent in extents
        )
        self.records: Dict[str, DriveServiceRecord] = {}
        self.queues: Dict[int, Deque[TapeJob]] = {}
        self.runtimes: list[_LibraryRuntime] = []

        tape_priority = tape_priority or {}

        for library in system.libraries:
            plan = build_library_plan(
                library, jobs, tape_priority, replacement_policy, planner=planner
            )
            if plan.is_empty:
                continue
            if plan.offline and not plan.switch_order:
                raise RuntimeError(
                    f"library {library.id} has {len(plan.offline)} offline tapes to serve "
                    "but no switchable drive (all pinned?)"
                )
            if library.robot.env is not env:
                library.robot.bind(env)
            queue: Deque[TapeJob] = deque(plan.offline)
            self.queues[library.id] = queue
            runtime = _LibraryRuntime(
                env, library, queue, self.records, trace, disk,
                request_id=self._trace_request, parent_id=parent, planner=planner,
            )
            self.runtimes.append(runtime)
            serving_indices = {idx for idx, _ in plan.serving}
            # Spawn order defines who pulls queued tapes first at t=0: idle
            # switch drives in replacement-policy order, then serving drives
            # (which join the pool only after finishing their in-place work).
            for idx in plan.switch_order:
                if idx in serving_indices:
                    continue
                runtime.spawn(library.drives[idx], None, switchable=True)
            for idx, job in plan.serving:
                runtime.spawn(library.drives[idx], job, switchable=idx in plan.switch_order)

    def wait(self):
        """Yield until every drive process finishes."""
        alive = [
            proc
            for runtime in self.runtimes
            for proc in runtime.processes
            if proc.is_alive
        ]
        if alive:
            yield self.env.all_of(alive)

    def finalize(self, start_s: Optional[float] = None) -> RequestMetrics:
        """Check all work was served and aggregate the drive records.

        Response time is measured from ``start_s`` (default: admission,
        :attr:`started_at`).
        """
        if start_s is None:
            start_s = self.started_at
        for lib_id, queue in self.queues.items():
            if queue:
                raise RuntimeError(
                    f"library {lib_id} finished with {len(queue)} unserved tape jobs"
                )
        metrics = RequestMetrics.from_drive_records(
            request_id=self.request.id,
            size_mb=self.total_mb,
            num_tapes=self.num_tapes,
            records=list(self.records.values()),
            start_s=start_s,
        )
        if self._root_id is not None:
            self.trace.record_reserved(
                self._root_id,
                "request",
                self.started_at,
                start_s + metrics.response_s,
                request=self._trace_request,
                catalog_id=self.request.id,
                size_mb=self.total_mb,
                num_tapes=self.num_tapes,
            )
        return metrics


def simulate_request(
    system: TapeSystem,
    index: LocationIndex,
    request: Request,
    tape_priority: Optional[Mapping[TapeId, float]] = None,
    trace: Optional[Trace] = None,
    replacement_policy: str = "least_popular",
    seek_planner: Union[None, str, SeekPlanner] = None,
) -> RequestMetrics:
    """Serve ``request`` on ``system``; returns its metrics.

    This is the closed-loop wrapper: the request runs to completion on an
    exclusive, throwaway environment, reproducing the paper's "one request
    at a time with long gaps" assumption.  For overlapping in-flight
    requests on one shared clock, see :mod:`repro.sim.opensystem`.

    ``tape_priority`` and ``replacement_policy`` control which mounted tapes
    are displaced first (default: the paper's least-popular policy);
    ``trace`` (if enabled) receives one span per
    rewind/unload/robot/load/seek/transfer.  ``seek_planner`` picks the
    within-tape retrieval-order strategy — a registered name, a
    :class:`~repro.sim.seekplanner.SeekPlanner` instance, or ``None`` for
    the default ``greedy-sweep``.

    Drives marked failed beforehand (``SimulationSession.fail_drives``) take
    no part; failures *during* service are an open-system study (see
    :class:`~repro.sim.faults.DriveFailure`).
    """
    env = Environment()
    # Optional disk-stage admission control (spec.disk_bandwidth_mb_s):
    # at most `disk_streams` drives may stream to the staging disks at once.
    streams = system.spec.disk_streams
    disk = Resource(env, streams) if streams is not None else None
    execution = RequestExecution(
        env,
        system,
        index,
        request,
        tape_priority,
        trace,
        replacement_policy,
        disk,
        seek_planner=seek_planner,
    )
    env.run()
    return execution.finalize()


class _LibraryRuntime:
    """Per-library execution state for one request simulation: the
    offline-tape queue the drive processes pull from, and those processes."""

    def __init__(
        self,
        env: Environment,
        library: TapeLibrary,
        queue: Deque[TapeJob],
        records: Dict[str, DriveServiceRecord],
        trace: Trace,
        disk: Optional[Resource],
        request_id: Optional[int] = None,
        parent_id: Optional[int] = None,
        planner: Optional[SeekPlanner] = None,
    ) -> None:
        self.env = env
        self.library = library
        self.queue = queue
        self.records = records
        self.trace = trace
        self.disk = disk
        self.request_id = request_id
        self.parent_id = parent_id
        self.planner = resolve_seek_planner(planner)
        #: Every drive process spawned for this request, so a
        #: shared-environment caller can wait for their completion.
        self.processes: list = []

    def spawn(self, drive: TapeDrive, first_job: Optional[TapeJob], switchable: bool) -> None:
        """Start one drive's process for this request."""
        self.processes.append(
            self.env.process(self._drive_process(drive, first_job, switchable))
        )

    def _drive_process(self, drive: TapeDrive, first_job: Optional[TapeJob], switchable: bool):
        """One drive's behaviour for one request: serve, then drain the queue."""
        env, library, queue = self.env, self.library, self.queue
        records, trace, disk = self.records, self.trace, self.disk
        request_id, parent_id = self.request_id, self.parent_id
        planner = self.planner
        # Strides need extents no disk gate admits one by one (see
        # ``_serve_job``).
        stride = disk is None
        record = None
        if first_job is not None:
            record = records.setdefault(str(drive.id), DriveServiceRecord(str(drive.id)))
            with trace.span(
                env, "tape_job", parent=parent_id, request=request_id,
                drive=str(drive.id), tape=str(first_job.tape_id), mounted=True,
            ) as job_ctx:
                yield from _serve_job(
                    env, drive, first_job, record, trace, disk,
                    parent=job_ctx.id, request=request_id, planner=planner,
                    stride=stride,
                )
            record.completion_s = env.now
        if not switchable:
            return
        while queue:
            job = queue.popleft()
            if record is None:
                record = records.setdefault(str(drive.id), DriveServiceRecord(str(drive.id)))
            with trace.span(
                env, "tape_job", parent=parent_id, request=request_id,
                drive=str(drive.id), tape=str(job.tape_id),
            ) as job_ctx:
                yield from _switch_to(
                    env, library, drive, job.tape_id, record, trace,
                    parent=job_ctx.id, request=request_id, stride=stride,
                )
                yield from _serve_job(
                    env, drive, job, record, trace, disk,
                    parent=job_ctx.id, request=request_id, planner=planner,
                    stride=stride,
                )
            record.completion_s = env.now


def _serve_job(
    env,
    drive: TapeDrive,
    job: TapeJob,
    record: DriveServiceRecord,
    trace: Trace,
    disk: Optional[Resource] = None,
    parent: Optional[int] = None,
    request: Optional[int] = None,
    planner: Optional[SeekPlanner] = None,
    stride: bool = False,
):
    """Read all of a job's extents in the planner's chosen order.

    A job that starts at beginning of tape reuses the order its offline
    LPT estimate planned (``job.planned``) instead of planning again.

    With ``stride`` the whole job is one kernel event: every extent's
    seek and transfer is added up in the order the per-extent events
    would have advanced the clock, the head, record and completion index
    are updated at once, and the drive yields one timeout at the end time
    (with tracing on, the same seek/transfer spans are emitted with those
    computed times).  Only a caller whose drive nothing can interrupt and
    whose transfers pass no disk gate may stride.

    Otherwise every seek and transfer is its own event: the disk gate
    admits each transfer, and the completion index advances as extents
    finish, so an interrupting failure knows exactly what is left to
    re-queue.  A failure interrupt arriving mid-stage closes the in-flight
    span with ``aborted=True`` — the stage's time is *not* folded into
    ``record`` (the extent restarts from scratch elsewhere), and
    attribution skips aborted spans.
    """
    tape = drive.mounted
    assert tape is not None and tape.id == job.tape_id, "job routed to wrong drive"
    planned = job.planned
    if planned is not None and planned[0] is drive.tape_spec and tape.head_mb == 0.0:
        ordered = planned[1]
    else:
        if planner is None:
            planner = resolve_seek_planner(None)
        ordered, _ = planner.plan(job.remaining_extents, tape.head_mb, drive.tape_spec)
    job.begin(ordered)
    drive_name = str(drive.id)
    tracing = trace.enabled
    if stride:
        span_append = trace._spans.append if tracing else None
        t = env._now
        for extent in ordered:
            seek, transfer = drive.read_extent(extent)
            if seek > 0:
                if tracing:
                    sid = trace._next_id
                    trace._next_id = sid + 1
                    span_append((
                        "seek", t, t + seek, ("drive", drive_name, "object", extent.object_id),
                        sid, parent, request,
                    ))
                t += seek
            record.seek_s += seek
            if tracing:
                sid = trace._next_id
                trace._next_id = sid + 1
                span_append((
                    "transfer", t, t + transfer,
                    ("drive", drive_name, "object", extent.object_id), sid, parent, request,
                ))
            t += transfer
            record.transfer_s += transfer
            record.bytes_mb += extent.size_mb
        job.completed = len(ordered)
        yield env.timeout_at(t)
        return
    # The per-extent loop is the engine's hot path: with tracing off, even a
    # null-context call per seek/transfer is measurable, so hoist the check.
    # With tracing on, the seek/transfer spans (the majority of all spans in
    # any run) bypass the SpanContext machinery entirely: the span id is
    # claimed and the raw span tuple appended inline (the storage format
    # ``Trace._all`` materializes lazily), reproducing the context manager's
    # id-allocation order, timestamps and aborted-on-interrupt tagging.
    if tracing:
        span_append = trace._spans.append
    for extent in ordered:
        seek, transfer = drive.read_extent(extent)
        if seek > 0:
            if tracing:
                sid = trace._next_id
                trace._next_id = sid + 1
                started = env._now
                try:
                    yield env.timeout(seek)
                except BaseException:
                    span_append((
                        "seek", started, env._now,
                        {"drive": drive_name, "object": extent.object_id, "aborted": True},
                        sid, parent, request,
                    ))
                    raise
                span_append((
                    "seek", started, env._now,
                    ("drive", drive_name, "object", extent.object_id),
                    sid, parent, request,
                ))
            else:
                yield env.timeout(seek)
        record.seek_s += seek
        if disk is not None:
            requested_at = env.now
            with disk.request() as slot:
                yield slot
                if env.now > requested_at:
                    trace.record(
                        "disk_wait", requested_at, env.now,
                        parent=parent, request=request, drive=drive_name,
                    )
                if tracing:
                    sid = trace._next_id
                    trace._next_id = sid + 1
                    started = env._now
                    try:
                        yield env.timeout(transfer)
                    except BaseException:
                        span_append((
                            "transfer", started, env._now,
                            {"drive": drive_name, "object": extent.object_id, "aborted": True},
                            sid, parent, request,
                        ))
                        raise
                    span_append((
                        "transfer", started, env._now,
                        ("drive", drive_name, "object", extent.object_id),
                        sid, parent, request,
                    ))
                else:
                    yield env.timeout(transfer)
        elif tracing:
            sid = trace._next_id
            trace._next_id = sid + 1
            started = env._now
            try:
                yield env.timeout(transfer)
            except BaseException:
                span_append((
                    "transfer", started, env._now,
                    {"drive": drive_name, "object": extent.object_id, "aborted": True},
                    sid, parent, request,
                ))
                raise
            span_append((
                "transfer", started, env._now,
                ("drive", drive_name, "object", extent.object_id),
                sid, parent, request,
            ))
        else:
            yield env.timeout(transfer)
        record.transfer_s += transfer
        record.bytes_mb += extent.size_mb
        job.advance()


def _stride_end(env, trace: Trace, stages: tuple, parent, request) -> float:
    """End time of back-to-back ``(name, delay, attrs)`` stages starting now.

    The delays are added in stage order, as per-stage timeouts would have
    advanced the clock; with tracing on, each stage's span is appended with
    those computed times.
    """
    t = env._now
    for name, delay, attrs in stages:
        if trace.enabled:
            sid = trace._next_id
            trace._next_id = sid + 1
            trace._spans.append((name, t, t + delay, attrs, sid, parent, request))
        t += delay
    return t


def _switch_to(
    env,
    library: TapeLibrary,
    drive: TapeDrive,
    tape_id: TapeId,
    record: DriveServiceRecord,
    trace: Trace,
    parent: Optional[int] = None,
    request: Optional[int] = None,
    stride: bool = False,
):
    """Full tape switch: rewind, unload, robot exchange, load-and-thread.

    The rewind and the robot request are events of their own, so robot
    FIFO order still follows who asked first.  With ``stride`` the
    robot-held rest (unload + exchange + load, or fetch + load for an
    empty drive) is one kernel event: the cartridges are swapped when it
    starts, and it ends when the per-stage events would have.  Without
    it every stage is an event.
    """
    new_tape = library.tape(tape_id)
    drive_name = str(drive.id)
    robot = library.robot
    held = drive.mounted is not None

    # Same guarded fast lane as ``_serve_job``: a full switch emits one
    # parent span plus 3–4 leaf spans, all with fixed attributes, so each
    # site claims its id inline and appends the raw field tuple directly
    # (ids in the same order, timestamps and aborted-tagging identical to
    # the ``SpanContext`` path it replaces).
    tracing = trace.enabled
    if tracing:
        span_append = trace._spans.append
        swid = trace._next_id
        trace._next_id = swid + 1
        sw_started = env._now
    else:
        swid = None
    try:
        if held:
            rewind = drive.rewind_time()
            if rewind > 0:
                if tracing:
                    sid = trace._next_id
                    trace._next_id = sid + 1
                    started = env._now
                    try:
                        yield env.timeout(rewind)
                    except BaseException:
                        span_append((
                            "rewind", started, env._now,
                            {"drive": drive_name, "aborted": True},
                            sid, swid, request,
                        ))
                        raise
                    span_append((
                        "rewind", started, env._now, ("drive", drive_name),
                        sid, swid, request,
                    ))
                else:
                    yield env.timeout(rewind)

        requested_at = env.now
        with robot.resource.request() as grant:
            yield grant
            wait = env.now - requested_at
            if wait > 0:
                trace.record(
                    "robot_wait", requested_at, env.now,
                    parent=swid, request=request, drive=drive_name,
                )
            record.robot_wait_s += wait
            # The paper "models robotic arm mount/unmount operations as
            # constant time values": the arm is held for the whole
            # unload + return-to-cell + fetch + mount sequence.
            if stride:
                on_drive = ("drive", drive_name)
                if held:
                    stages = (
                        ("unload", drive.unload_time, on_drive),
                        ("robot_exchange", robot.exchange_time, on_drive),
                    )
                    drive.unmount()
                else:
                    stages = (("robot_fetch", robot.move_time, on_drive),)
                load = ("load", drive.load_time, ("drive", drive_name, "tape", str(tape_id)))
                end = _stride_end(env, trace, stages + (load,), swid, request)
                drive.mount(new_tape)
                yield env.timeout_at(end)
            else:
                if not held:
                    if tracing:
                        sid = trace._next_id
                        trace._next_id = sid + 1
                        started = env._now
                        try:
                            yield env.timeout(robot.move_time)  # fetch only: drive was empty
                        except BaseException:
                            span_append((
                                "robot_fetch", started, env._now,
                                {"drive": drive_name, "aborted": True},
                                sid, swid, request,
                            ))
                            raise
                        span_append((
                            "robot_fetch", started, env._now, ("drive", drive_name),
                            sid, swid, request,
                        ))
                    else:
                        yield env.timeout(robot.move_time)
                elif tracing:
                    sid = trace._next_id
                    trace._next_id = sid + 1
                    started = env._now
                    try:
                        yield env.timeout(drive.unload_time)
                    except BaseException:
                        span_append((
                            "unload", started, env._now,
                            {"drive": drive_name, "aborted": True},
                            sid, swid, request,
                        ))
                        raise
                    span_append((
                        "unload", started, env._now, ("drive", drive_name),
                        sid, swid, request,
                    ))
                    sid = trace._next_id
                    trace._next_id = sid + 1
                    started = env._now
                    try:
                        yield env.timeout(robot.exchange_time)
                    except BaseException:
                        span_append((
                            "robot_exchange", started, env._now,
                            {"drive": drive_name, "aborted": True},
                            sid, swid, request,
                        ))
                        raise
                    span_append((
                        "robot_exchange", started, env._now, ("drive", drive_name),
                        sid, swid, request,
                    ))
                else:
                    yield env.timeout(drive.unload_time)
                    yield env.timeout(robot.exchange_time)
                if held:
                    drive.unmount()
                drive.mount(new_tape)
                if tracing:
                    sid = trace._next_id
                    trace._next_id = sid + 1
                    started = env._now
                    try:
                        yield env.timeout(drive.load_time)
                    except BaseException:
                        span_append((
                            "load", started, env._now,
                            {"drive": drive_name, "tape": str(tape_id), "aborted": True},
                            sid, swid, request,
                        ))
                        raise
                    span_append((
                        "load", started, env._now,
                        ("drive", drive_name, "tape", str(tape_id)),
                        sid, swid, request,
                    ))
                else:
                    yield env.timeout(drive.load_time)
    except BaseException:
        if tracing:
            span_append((
                "switch", sw_started, env._now,
                {"drive": drive_name, "tape": str(tape_id), "aborted": True},
                swid, parent, request,
            ))
        raise
    if tracing:
        span_append((
            "switch", sw_started, env._now,
            ("drive", drive_name, "tape", str(tape_id)),
            swid, parent, request,
        ))

    record.num_switches += 1
