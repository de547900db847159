"""Per-request scheduling decisions (which drive serves which tape, when).

These are pure functions over hardware state so the policy is testable
without running the event loop:

* tapes already mounted with requested objects are served in place;
* mounted, switchable tapes *without* requested objects become switch
  targets immediately ("the tape switch operation happens to any tape drive
  containing no requested objects");
* offline tapes with requested objects queue longest-processing-time first
  and free switch drives pull from the queue greedily;
* when more drives are eligible than needed, mounted tapes are displaced in
  least-popular-first order (the replacement policy of [11] that the paper
  adopts for the always-mounted analysis);
* pinned drives (batch 0 of parallel batch placement) never switch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Mapping, Optional, Sequence, Tuple

from ..hardware import ObjectExtent, TapeLibrary, TapeId, TapeSpec
from .replacement import replacement_key
from .seekplanner import SeekPlanner, resolve_seek_planner

__all__ = [
    "TapeJob",
    "LibraryPlan",
    "estimate_job_time",
    "lpt_key",
    "lpt_plan",
    "build_library_plan",
]


@dataclass
class TapeJob:
    """All requested extents residing on one tape.

    ``completed`` is a completion *index* into ``extents``: the engine
    reorders ``extents`` into sweep order when service begins and advances
    the index as each extent finishes, so an interrupting drive failure can
    see what is left in O(1) instead of scanning-and-removing per extent.
    """

    tape_id: TapeId
    #: Never mutated in place: the open-system dispatcher shares one
    #: memoized tuple among the jobs of repeated requests.
    extents: Sequence[ObjectExtent]
    completed: int = 0
    #: ``(tape_spec, order)`` planned from beginning of tape by the LPT
    #: sort (:func:`lpt_key`, or :func:`lpt_plan` memoized by the open-system
    #: dispatcher); the engine serves ``order`` as is when the job starts
    #: at beginning of tape on a drive with that spec, instead of planning
    #: the same extents again.
    planned: Optional[tuple] = None

    @property
    def bytes_mb(self) -> float:
        return sum(e.size_mb for e in self.extents)

    @property
    def remaining_extents(self) -> Sequence[ObjectExtent]:
        """Extents not yet fully read (the in-flight one counts as unread)."""
        return self.extents[self.completed :]

    @property
    def is_done(self) -> bool:
        return self.completed >= len(self.extents)

    def begin(self, ordered: Sequence[ObjectExtent]) -> None:
        """Install the sweep order chosen by the engine and reset progress."""
        self.extents = ordered
        self.completed = 0

    def advance(self) -> None:
        """Mark the next extent in ``extents`` as fully read."""
        self.completed += 1

    def split_remaining(self) -> "TapeJob":
        """A fresh job holding only the unserved extents (for re-queueing)."""
        return TapeJob(self.tape_id, list(self.remaining_extents))

    def __len__(self) -> int:
        return len(self.extents)


@dataclass
class LibraryPlan:
    """The static part of one library's work for one request."""

    library_id: int
    #: (drive index, job) for tapes already on a drive.
    serving: List[tuple] = field(default_factory=list)
    #: Jobs needing a mount, LPT-first.
    offline: List[TapeJob] = field(default_factory=list)
    #: Drive indices eligible to switch, in preferred start order.
    switch_order: List[int] = field(default_factory=list)

    @property
    def is_empty(self) -> bool:
        return not self.serving and not self.offline


def estimate_job_time(
    job: TapeJob,
    library: TapeLibrary,
    head_mb: float = 0.0,
    planner: Optional[SeekPlanner] = None,
) -> float:
    """Service-time estimate (seek + transfer) of a whole job from ``head_mb``.

    The open-system dispatcher prices repair jobs and degraded-read members
    with it; LPT ordering uses :func:`lpt_key`.  The seek part is priced by
    the same planner the engine will execute with, against the ``TapeSpec``
    of the drive actually holding the job's tape when it is mounted (drives
    in a heterogeneous library may position at different rates); offline
    tapes fall back to the library's default spec since their drive
    assignment is not yet known.
    """
    drive = library.drive_holding(job.tape_id)
    tape_spec = drive.tape_spec if drive is not None else library.spec.tape
    _, seek = resolve_seek_planner(planner).plan(job.extents, head_mb, tape_spec)
    return seek + library.spec.drive.transfer_time(job.bytes_mb)


def lpt_plan(
    job: TapeJob,
    tape_spec: TapeSpec,
    transfer_time: Callable[[float], float],
    planner: SeekPlanner,
) -> Tuple[List[ObjectExtent], float]:
    """``job``'s beginning-of-tape order and estimated service time (seek
    plus transfer) from beginning of tape, the seek part planned against
    ``tape_spec`` (the holder's spec, or the library's default for an
    offline tape)."""
    order, seek = planner.plan(job.extents, 0.0, tape_spec)
    return order, seek + transfer_time(job.bytes_mb)


def lpt_key(
    job: TapeJob,
    tape_spec: TapeSpec,
    transfer_time: Callable[[float], float],
    planner: SeekPlanner,
) -> tuple:
    """Longest-processing-time-first sort key of ``job``: its
    :func:`lpt_plan` service time, negated, then its tape id.  The order
    is kept in ``job.planned`` for the engine to reuse."""
    order, seconds = lpt_plan(job, tape_spec, transfer_time, planner)
    job.planned = (tape_spec, order)
    return (-seconds, job.tape_id)


def build_library_plan(
    library: TapeLibrary,
    jobs_by_tape: Mapping[TapeId, Sequence[ObjectExtent]],
    tape_priority: Mapping[TapeId, float],
    replacement_policy: str = "least_popular",
    planner: Optional[SeekPlanner] = None,
) -> LibraryPlan:
    """Split one library's jobs into in-place serves and a switch queue."""
    plan = LibraryPlan(library_id=library.id)
    local_jobs = {
        tid: TapeJob(tid, sorted(extents, key=lambda e: e.start_mb))
        for tid, extents in jobs_by_tape.items()
        if tid.library == library.id
    }

    mounted = library.mounted_tapes()
    serving_drives: List[int] = []
    for tid, job in local_jobs.items():
        drive = mounted.get(tid)
        if drive is not None:
            plan.serving.append((drive.id.index, job))
            serving_drives.append(drive.id.index)

    offline = [job for tid, job in local_jobs.items() if tid not in mounted]
    if offline:
        # An offline tape has no holder: the library's default spec prices it.
        tape_spec = library.spec.tape
        transfer_time = library.spec.drive.transfer_time
        planner = resolve_seek_planner(planner)
        offline.sort(key=lambda job: lpt_key(job, tape_spec, transfer_time, planner))
    plan.offline = offline

    if offline:
        plan.switch_order = _switch_drive_order(
            library, set(local_jobs), tape_priority, replacement_policy
        )
    return plan


def _switch_drive_order(
    library: TapeLibrary,
    requested_tapes: set,
    tape_priority: Mapping[TapeId, float],
    replacement_policy: str,
) -> List[int]:
    """Eligible switch drives, in the order they should take queued tapes.

    1. empty switchable drives (nothing to displace);
    2. switchable drives whose mounted tape holds no requested object, in
       replacement-policy order (default: least popular displaced first);
    3. switchable drives currently serving (they join once done — placing
       them last keeps their in-place service uninterrupted).
    """
    def classify(include_pinned: bool) -> List[int]:
        empty: List[int] = []
        displaceable: List[tuple] = []
        busy: List[int] = []
        for drive in library.drives:
            if drive.failed or (drive.pinned and not include_pinned):
                continue
            if drive.mounted is None:
                empty.append(drive.id.index)
            elif drive.mounted.id in requested_tapes:
                busy.append(drive.id.index)
            else:
                key = replacement_key(replacement_policy, drive, tape_priority)
                displaceable.append((key, drive.id.index))
        displaceable.sort()
        return empty + [idx for _, idx in displaceable] + list(busy)

    order = classify(include_pinned=False)
    if not order:
        # Degraded operation: every designated switch drive has failed.
        # Pinning is a placement policy, not physics — surviving pinned
        # drives serve as the last-resort switch pool.
        order = classify(include_pinned=True)
    return order
