"""Declarative fault injection & recovery for the open-system simulator.

The paper's model assumes every drive and robot arm is healthy for the
whole run; PR 1's open system only supported one-shot, permanent,
absolute-time drive deaths (``failures={"L0.D3": 1800.0}``).  This module
replaces that ad-hoc map with composable, declarative fault *specs*:

:class:`DriveFailure`
    A one-shot drive death at an absolute time, optionally repaired a
    fixed delay later.  The legacy ``failures=`` mapping is kept as sugar
    for a list of these (see :func:`failures_to_specs`).

:class:`DriveFaultProcess`
    A stochastic alternating fail/repair renewal process per targeted
    drive: times to failure are drawn with the given MTBF, times to
    repair with the given MTTR, from an exponential or Weibull
    distribution.  Draws come from per-``(spec, drive)`` substreams
    derived with :class:`numpy.random.SeedSequence` (the same
    content-derived spawn-key construction as the sweep engine's
    :func:`~repro.experiments.parallel.spawn_seed`), so chaos runs are
    bit-reproducible for a fixed ``fault_seed`` — independent of sweep
    worker count, point order, or how many other specs are armed.

:class:`RobotOutage`
    A one-shot robot-arm jam: the arm is seized exclusively for the
    outage duration, stalling every exchange in the library behind it
    (capacity-1 robots make this library-wide by construction).

:class:`TransientFaults`
    Transient mount/read errors: before each gated drive operation, each
    armed stream flips a coin per attempt; errors are retried after a
    capped exponential backoff (:class:`RetryPolicy`) and *escalate to a
    hard drive failure* (:class:`FaultEscalation`) once the retry budget
    is exhausted.

A :class:`FaultInjector` owns the armed specs for one
:class:`~repro.sim.opensystem.OpenSystem`: it runs the fail/repair
processes on the shared environment, drives the dispatcher's
``fail_drive``/``repair_drive`` recovery hooks, keeps the availability /
degraded-time books, publishes ``faults.*`` counters and gauges on the
metrics registry, and records ``fault_*`` spans on the trace.

Lifecycle: recurring processes are (re)armed at each ``run()`` and stood
down when the last planned arrival completes, so the environment drains
instead of ticking MTBF clocks forever.  One-shot specs intentionally run
to completion even past the last arrival (matching the legacy watchdog
semantics, whose horizon extended to the failure instant).  A process
that is mid-repair at stand-down finishes the repair first — chaos runs
therefore never leak an injector-failed drive across runs; only transient
*escalations* are permanent (operator intervention required).

See ``docs/robustness.md`` for the full semantics, including degraded
parallel-batch failover and pinned-drive restore-on-repair.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..des import Interrupt

__all__ = [
    "FaultSpec",
    "DriveFailure",
    "DriveFaultProcess",
    "RobotOutage",
    "TransientFaults",
    "TapeFailure",
    "TapeWearProcess",
    "RetryPolicy",
    "FaultEscalation",
    "FaultInjector",
    "failures_to_specs",
    "known_drive_names",
    "known_tape_names",
]

#: Supported time-to-failure / time-to-repair distributions.
DISTRIBUTIONS = ("exponential", "weibull")

#: Drive operations a :class:`TransientFaults` stream can gate.
OPERATIONS = ("mount", "read")


class FaultEscalation(Exception):
    """Transient-error retries exhausted: escalate to a hard drive failure.

    Raised out of :meth:`FaultInjector.transient_gate` into the drive
    worker, which runs the same cleanup path as a failure interrupt: the
    cartridge is pulled, unserved extents re-queue, and the drive leaves
    the worker pool.  Escalated drives are *not* auto-repaired.
    """


def _check_finite(**values: Optional[float]) -> None:
    """Reject NaN and infinite parameters (``None`` means unset).

    Every NaN comparison is false, so a ``value <= 0`` bound alone lets
    NaN through (and a NaN MTBF never schedules a failure or ends a run).
    """
    for name, value in values.items():
        if value is not None and not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff for transient errors.

    Retry ``i`` (1-based) waits ``min(base_delay_s * multiplier**(i-1),
    max_delay_s)``; after ``max_retries`` failed attempts the error
    escalates to a hard failure.
    """

    max_retries: int = 4
    base_delay_s: float = 2.0
    multiplier: float = 2.0
    max_delay_s: float = 60.0

    def __post_init__(self) -> None:
        _check_finite(
            base_delay_s=self.base_delay_s,
            multiplier=self.multiplier,
            max_delay_s=self.max_delay_s,
        )
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.base_delay_s < 0:
            raise ValueError(f"base_delay_s must be >= 0, got {self.base_delay_s}")
        if self.multiplier < 1.0:
            raise ValueError(f"multiplier must be >= 1, got {self.multiplier}")
        if self.max_delay_s < self.base_delay_s:
            raise ValueError(
                f"max_delay_s {self.max_delay_s} < base_delay_s {self.base_delay_s}"
            )

    def delay_s(self, attempt: int) -> float:
        """Backoff before retry ``attempt`` (1-based)."""
        if attempt < 1:
            raise ValueError(f"attempt is 1-based, got {attempt}")
        return min(self.base_delay_s * self.multiplier ** (attempt - 1), self.max_delay_s)

    def schedule(self) -> Tuple[float, ...]:
        """The full backoff schedule, one delay per allowed retry."""
        return tuple(self.delay_s(i + 1) for i in range(self.max_retries))


def _check_distribution(distribution: str, shape: float) -> None:
    if distribution not in DISTRIBUTIONS:
        raise ValueError(
            f"unknown distribution {distribution!r}; known: {', '.join(DISTRIBUTIONS)}"
        )
    if shape <= 0:
        raise ValueError(f"weibull shape must be positive, got {shape}")


def _known_drives(system) -> Dict[str, Tuple[int, object]]:
    """Drive name -> (library id, drive) over the whole system."""
    return {
        str(drive.id): (library.id, drive)
        for library in system.libraries
        for drive in library.drives
    }


def _check_drive_names(system, names: Iterable[str]) -> None:
    known = _known_drives(system)
    for name in names:
        if name not in known:
            raise ValueError(
                f"unknown drive name {name!r}; known: {', '.join(sorted(known))}"
            )


def known_drive_names(system) -> List[str]:
    """Sorted drive names of the system (for CLI-side id validation)."""
    return sorted(_known_drives(system))


def _known_tapes(system) -> Dict[str, object]:
    """Tape name (``L0.T3``) -> :class:`~repro.hardware.tape.Tape`."""
    return {str(tape.id): tape for tape in system.all_tapes()}


def known_tape_names(system) -> List[str]:
    """Sorted tape names of the system (for CLI-side id validation)."""
    return sorted(_known_tapes(system))


def _check_tape_names(system, names: Iterable[str]) -> None:
    known = _known_tapes(system)
    for name in names:
        if name not in known:
            raise ValueError(
                f"unknown tape name {name!r}; known: {', '.join(sorted(known))}"
            )


@dataclass(frozen=True)
class FaultSpec:
    """Base class for declarative fault models.

    Subclasses are frozen pure-data dataclasses: picklable (they ride
    inside sweep points) and canonically hashable (they participate in
    the sweep engine's content-addressed cache keys).  ``validate`` runs
    at :class:`~repro.sim.opensystem.OpenSystem` construction time, so a
    bad spec errors before any simulation starts.
    """

    def validate(self, system) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


@dataclass(frozen=True)
class DriveFailure(FaultSpec):
    """One-shot drive death at ``at_s``; optionally repaired later.

    With ``repair_after_s=None`` this reproduces the legacy
    ``failures={drive: at_s}`` semantics exactly (permanent death, armed
    even if the failure instant lands after the last arrival completes).
    """

    drive: str
    at_s: float
    repair_after_s: Optional[float] = None

    def validate(self, system) -> None:
        _check_finite(at_s=self.at_s, repair_after_s=self.repair_after_s)
        if self.at_s < 0:
            raise ValueError(f"failure time must be >= 0, got {self.at_s}")
        if self.repair_after_s is not None and self.repair_after_s <= 0:
            raise ValueError(f"repair_after_s must be positive, got {self.repair_after_s}")
        _check_drive_names(system, [self.drive])


@dataclass(frozen=True)
class DriveFaultProcess(FaultSpec):
    """Stochastic alternating fail/repair process on the targeted drives.

    ``drives=None`` targets every drive in the system.  Each targeted
    drive runs an independent renewal process: up for a drawn
    time-to-failure (mean ``mtbf_s``), down for a drawn time-to-repair
    (mean ``mttr_s``).  ``distribution="weibull"`` rescales so the drawn
    mean still equals the configured MTBF/MTTR for any ``shape``.
    """

    mtbf_s: float
    mttr_s: float
    drives: Optional[Tuple[str, ...]] = None
    distribution: str = "exponential"
    shape: float = 1.0

    def validate(self, system) -> None:
        _check_finite(mtbf_s=self.mtbf_s, mttr_s=self.mttr_s, shape=self.shape)
        if self.mtbf_s <= 0:
            raise ValueError(f"mtbf_s must be positive, got {self.mtbf_s}")
        if self.mttr_s <= 0:
            raise ValueError(f"mttr_s must be positive, got {self.mttr_s}")
        _check_distribution(self.distribution, self.shape)
        if self.drives is not None:
            _check_drive_names(system, self.drives)


@dataclass(frozen=True)
class RobotOutage(FaultSpec):
    """One-shot robot-arm jam: exchanges stall library-wide for the duration.

    The outage seizes the (capacity-1) arm through its normal resource
    queue, so an exchange already in progress completes first — the jam
    begins at the next grant, exactly like a real arm seizing between
    moves.  ``library=None`` jams every library's arm.
    """

    at_s: float
    duration_s: float
    library: Optional[int] = None

    def validate(self, system) -> None:
        _check_finite(at_s=self.at_s, duration_s=self.duration_s)
        if self.at_s < 0:
            raise ValueError(f"outage time must be >= 0, got {self.at_s}")
        if self.duration_s <= 0:
            raise ValueError(f"outage duration must be positive, got {self.duration_s}")
        if self.library is not None:
            known = [library.id for library in system.libraries]
            if self.library not in known:
                raise ValueError(
                    f"unknown library {self.library!r}; known: {known}"
                )


@dataclass(frozen=True)
class TransientFaults(FaultSpec):
    """Transient mount/read errors, retried with capped exponential backoff.

    Before each gated operation on a targeted drive, the stream draws one
    coin per attempt: with probability ``probability`` the attempt errors
    and the worker backs off per ``retry`` before trying again.  Once the
    retry budget is exhausted the error escalates to a hard drive failure
    (:class:`FaultEscalation`), which is permanent.
    """

    probability: float
    retry: RetryPolicy = RetryPolicy()
    drives: Optional[Tuple[str, ...]] = None
    #: Which drive operations the stream gates.
    operations: Tuple[str, ...] = ("mount", "read")

    def validate(self, system) -> None:
        _check_finite(probability=self.probability)
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(
                f"probability must be in [0, 1], got {self.probability}"
            )
        if not self.operations:
            raise ValueError("operations must not be empty")
        for operation in self.operations:
            if operation not in OPERATIONS:
                raise ValueError(
                    f"unknown operation {operation!r}; known: "
                    + ", ".join(OPERATIONS)
                )
        if self.drives is not None:
            _check_drive_names(system, self.drives)


@dataclass(frozen=True)
class TapeFailure(FaultSpec):
    """One-shot whole-tape media loss at ``at_s``.

    Every extent on the cartridge becomes permanently unreadable: queued
    and future jobs targeting it abort, redundant reads fail over to the
    surviving members, and the repair manager (when redundancy allows)
    re-replicates the lost members onto fresh tapes.  Unlike drives, lost
    media is never auto-repaired — data comes back only through rebuild.
    """

    tape: str
    at_s: float

    def validate(self, system) -> None:
        _check_finite(at_s=self.at_s)
        if self.at_s < 0:
            raise ValueError(f"failure time must be >= 0, got {self.at_s}")
        _check_tape_names(system, [self.tape])


@dataclass(frozen=True)
class TapeWearProcess(FaultSpec):
    """Recurring media wear-out: Weibull threshold on mount/seek cycles.

    Each targeted tape draws a lifetime threshold (in *cycles*: one per
    mount, one per extent seek) from a Weibull with the configured mean
    and shape, using the same per-``(spec, tape)`` ``SeedSequence``
    substream construction as :class:`DriveFaultProcess` — wear deaths
    are bit-reproducible for a fixed ``fault_seed`` regardless of which
    other specs are armed.  The process is recurring in the fleet sense:
    any number of tapes can wear out over one run, whenever their
    accumulated cycles cross their drawn threshold.  ``tapes=None``
    targets every tape in the system.
    """

    mean_cycles: float
    shape: float = 2.0
    tapes: Optional[Tuple[str, ...]] = None

    def validate(self, system) -> None:
        _check_finite(mean_cycles=self.mean_cycles, shape=self.shape)
        if self.mean_cycles <= 0:
            raise ValueError(
                f"mean_cycles must be positive, got {self.mean_cycles}"
            )
        if self.shape <= 0:
            raise ValueError(f"weibull shape must be positive, got {self.shape}")
        if self.tapes is not None:
            _check_tape_names(system, self.tapes)


def failures_to_specs(failures: Dict[str, float]) -> Tuple[DriveFailure, ...]:
    """The legacy ``failures=`` mapping as one-shot permanent specs."""
    return tuple(
        DriveFailure(drive=name, at_s=float(at_s))
        for name, at_s in sorted(failures.items())
    )


def _draw(rng: np.random.Generator, distribution: str, mean_s: float, shape: float) -> float:
    """One time-to-event draw with the requested mean."""
    if distribution == "weibull":
        scale = mean_s / math.gamma(1.0 + 1.0 / shape)
        return float(scale * rng.weibull(shape))
    return float(rng.exponential(mean_s))


class _TransientStream:
    """One armed :class:`TransientFaults` spec bound to its substream."""

    __slots__ = ("spec", "rng")

    def __init__(self, spec: TransientFaults, rng: np.random.Generator) -> None:
        self.spec = spec
        self.rng = rng


class _WearState:
    """One targeted tape's media-wear odometer.

    ``threshold`` is drawn once per tape at injector bind time (the first
    draw of the tape's content-derived substream), so the serve-path hook
    ``note_tape_cycles`` is just an add-and-compare.
    """

    __slots__ = ("spec_index", "spec", "threshold", "cycles", "dead")

    def __init__(self, spec_index: int, spec: TapeWearProcess) -> None:
        self.spec_index = spec_index
        self.spec = spec
        self.threshold: Optional[float] = None
        self.cycles = 0.0
        self.dead = False


class _RecurringHandle:
    """A live recurring fail/repair process plus its stand-down phase."""

    __slots__ = ("process", "interruptible")

    def __init__(self, process) -> None:
        self.process = process
        #: True while the process is in its time-to-failure wait (safe to
        #: interrupt); False while a failure/repair cycle is in flight
        #: (stand-down lets the repair finish so no drive leaks as dead).
        self.interruptible = True


class FaultInjector:
    """Arms fault specs on one open system and keeps the availability books.

    Construct with the spec list and a ``seed``, then :meth:`bind` to the
    owning :class:`~repro.sim.opensystem.OpenSystem` (which registers the
    ``faults.*`` instruments).  The open system calls :meth:`arm` at each
    ``run()``, :meth:`stand_down` when the last planned arrival completes,
    and :meth:`finalize`/:meth:`summary` after the environment drains.
    """

    def __init__(self, specs: Sequence[FaultSpec], seed: int = 0) -> None:
        self.specs: Tuple[FaultSpec, ...] = tuple(specs)
        self.seed = int(seed)
        self._rngs: Dict[Tuple[int, str], np.random.Generator] = {}
        self._bound = False

    # -- binding ---------------------------------------------------------
    def bind(self, opensys) -> "FaultInjector":
        """Attach to the open system's env/trace/registry/dispatchers."""
        self.os = opensys
        self.env = opensys.env
        self.trace = opensys.trace
        registry = opensys.registry
        self._drive_failures = registry.counter("faults.drive_failures", unit="failures")
        self._drive_repairs = registry.counter("faults.drive_repairs", unit="repairs")
        self._robot_outage_count = registry.counter("faults.robot_outages", unit="outages")
        self._transient_errors = registry.counter("faults.transient_errors", unit="errors")
        self._retries = registry.counter("faults.retries", unit="retries")
        self._escalations = registry.counter("faults.escalations", unit="failures")
        self._drives_down = registry.gauge("faults.drives_down", unit="drives")

        #: drive name -> time it went down (open downtime intervals).
        self._down_since: Dict[str, float] = {}
        self._downtime_s: Dict[str, float] = {}
        self._degraded_since: Optional[float] = None
        self._degraded_s = 0.0
        #: Drives whose repair the injector has already committed to.
        self._pending_repairs: set = set()
        self._recurring: List[_RecurringHandle] = []
        self._stopped = False
        self._one_shots_armed = False

        #: (drive name, operation) -> streams that can actually fire there.
        #: Zero-probability streams are left out so the dispatchers never
        #: arm gates that cannot fire (the gate's hot path is one dict
        #: lookup plus one RNG draw per armed stream).
        self._gates: Dict[Tuple[str, str], List[_TransientStream]] = {}
        for spec_index, spec in enumerate(self.specs):
            if not isinstance(spec, TransientFaults):
                continue
            if spec.probability <= 0.0:
                continue
            for name in self._target_drive_names(spec.drives):
                stream = _TransientStream(spec, self._rng(spec_index, name))
                for operation in spec.operations:
                    self._gates.setdefault((name, operation), []).append(stream)

        #: tape id -> wear odometer, first targeting spec wins.  Media
        #: instruments are created only when a media spec is armed, so
        #: drive-only chaos runs keep their registry (and fleet snapshots)
        #: bit-identical to PR 8.
        self._wear: Dict[object, _WearState] = {}
        if self.has_media_faults:
            self._tape_losses = registry.counter("faults.tape_losses", unit="tapes")
            known_tapes = _known_tapes(opensys.system)
            for spec_index, spec in enumerate(self.specs):
                if not isinstance(spec, TapeWearProcess):
                    continue
                names = spec.tapes if spec.tapes is not None else sorted(known_tapes)
                for name in names:
                    tape_id = known_tapes[name].id
                    if tape_id not in self._wear:
                        state = _WearState(spec_index, spec)
                        # Draw the wear-out threshold now, at bind time: it
                        # is the first (and only) draw of this tape's
                        # substream either way, and paying ~fleet x rng
                        # setup here keeps it off the serve path that
                        # ``note_tape_cycles`` sits on.
                        state.threshold = _draw(
                            self._rng(spec_index, str(tape_id)),
                            "weibull",
                            spec.mean_cycles,
                            spec.shape,
                        )
                        self._wear[tape_id] = state
        self._bound = True
        return self

    @property
    def has_media_faults(self) -> bool:
        """True when any spec can destroy tape media (loss or wear)."""
        return any(
            isinstance(spec, (TapeFailure, TapeWearProcess)) for spec in self.specs
        )

    def _target_drive_names(self, names: Optional[Tuple[str, ...]]) -> List[str]:
        known = _known_drives(self.os.system)
        if names is None:
            return sorted(known)
        return list(names)

    def _rng(self, spec_index: int, label: str) -> np.random.Generator:
        """Persistent per-(spec, target) substream, content-derived.

        Mirrors :func:`~repro.experiments.parallel.spawn_seed`: the spawn
        key hashes the target's identity rather than a sequential child
        index, so adding or removing specs never reseeds the others, and
        re-arming across ``run()`` calls continues the same stream.
        """
        key = (spec_index, label)
        rng = self._rngs.get(key)
        if rng is None:
            digest = hashlib.sha256(f"{spec_index}:{label}".encode("utf-8")).digest()
            spawn_key = tuple(
                int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4)
            )
            rng = np.random.default_rng(
                np.random.SeedSequence(entropy=self.seed, spawn_key=spawn_key)
            )
            self._rngs[key] = rng
        return rng

    def _dispatcher_for(self, drive_name: str):
        library_id, drive = _known_drives(self.os.system)[drive_name]
        return self.os.policy.dispatchers[library_id], drive

    # -- arming / stand-down --------------------------------------------
    def arm(self) -> None:
        """(Re)start fault processes for one ``run()`` on the shared env."""
        env = self.env
        self._stopped = False
        for spec_index, spec in enumerate(self.specs):
            if isinstance(spec, DriveFaultProcess):
                for name in self._target_drive_names(spec.drives):
                    handle = _RecurringHandle(None)
                    handle.process = env.process(
                        self._recurring_process(spec_index, spec, name, handle)
                    )
                    self._recurring.append(handle)
            elif isinstance(spec, DriveFailure) and not self._one_shots_armed:
                env.process(self._one_shot_process(spec))
            elif isinstance(spec, RobotOutage) and not self._one_shots_armed:
                for library in self.os.system.libraries:
                    if spec.library is None or spec.library == library.id:
                        env.process(self._robot_outage_process(spec, library))
            elif isinstance(spec, TapeFailure) and not self._one_shots_armed:
                env.process(self._tape_failure_process(spec))
        self._one_shots_armed = True
        media = self.has_media_faults
        for dispatcher in self.os.policy.dispatchers.values():
            dispatcher.transients_armed = any(
                (str(drive.id), operation) in self._gates
                for drive in dispatcher.library.drives
                for operation in OPERATIONS
            )
            dispatcher.media_armed = media
            dispatcher.wear_armed = any(
                tape_id.library == dispatcher.library.id for tape_id in self._wear
            )

    def stand_down(self) -> None:
        """Stop recurring processes so the environment can drain.

        Processes waiting out a time-to-failure are interrupted; a process
        mid-repair finishes that repair first (the drive comes back up)
        and then exits — chaos runs never leak an injector-failed drive.
        One-shot specs are left to run to completion, matching the legacy
        watchdog semantics.
        """
        self._stopped = True
        recurring, self._recurring = self._recurring, []
        for handle in recurring:
            if handle.process.is_alive and handle.interruptible:
                handle.process.interrupt("stand-down")
            elif handle.process.is_alive:
                self._recurring.append(handle)  # exits after its repair

    def finalize(self) -> None:
        """Fold still-open downtime/degraded intervals into the totals.

        Called after the environment drains; drives left dead (permanent
        one-shots, escalations) get their open interval recorded as a
        ``fault_drive_down`` span and accounted up to the horizon.  The
        interval re-opens at the horizon so a continuation ``run()`` keeps
        counting.
        """
        now = self.env.now
        for name, since in list(self._down_since.items()):
            if now > since:
                self._downtime_s[name] = self._downtime_s.get(name, 0.0) + now - since
                self.trace.record("fault_drive_down", since, now, drive=name, open=True)
                self._down_since[name] = now
        if self._degraded_since is not None and now > self._degraded_since:
            self._degraded_s += now - self._degraded_since
            self._degraded_since = now

    # -- queries used by the scheduler ----------------------------------
    def will_recover(self, library) -> bool:
        """True if any of the library's drives has a committed repair.

        This is the dispatcher's deadlock-vs-wait decision when its last
        drive dies: queued jobs wait for a committed repair, and abort
        otherwise.  Only repairs the injector has already scheduled count —
        a *future* stochastic failure/repair cycle cannot resurrect a
        drive that died for another reason.
        """
        return any(str(d.id) in self._pending_repairs for d in library.drives)

    # -- accounting hooks (called by the dispatcher) ---------------------
    def note_drive_down(self, drive_name: str) -> None:
        """A drive left the worker pool (any cause: fault, legacy, escalation)."""
        now = self.env.now
        self._drive_failures.inc()
        self._drives_down.add(1, now)
        self._down_since[drive_name] = now
        if self._degraded_since is None:
            self._degraded_since = now

    def note_drive_up(self, drive_name: str) -> None:
        """A repaired drive rejoined the worker pool."""
        now = self.env.now
        since = self._down_since.pop(drive_name, None)
        if since is not None:
            self._downtime_s[drive_name] = (
                self._downtime_s.get(drive_name, 0.0) + now - since
            )
            self.trace.record("fault_drive_down", since, now, drive=drive_name)
        self._drive_repairs.inc()
        self._drives_down.add(-1, now)
        if not self._down_since and self._degraded_since is not None:
            self._degraded_s += now - self._degraded_since
            self._degraded_since = None

    # -- media loss --------------------------------------------------------
    def lose_tape(self, tape_id, cause: str = "media-loss") -> bool:
        """Destroy a cartridge: mark lost, purge its jobs, trigger repair.

        Idempotent (the first loss wins).  Queued and in-flight-but-not-
        started jobs targeting the tape abort immediately; a transfer
        already streaming finishes (the loss manifests at the next mount).
        The repair manager — when the open system has one — is notified
        last, so its rebuild reads never race the purge.
        """
        tape = self.os.system.tape(tape_id)
        if tape.lost:
            return False
        now = self.env.now
        tape.lost = True
        self._tape_losses.inc()
        self.trace.record(
            "fault_tape_loss", now, now, tape=str(tape_id), cause=cause
        )
        self.os.policy.dispatchers[tape_id.library].purge_lost_tape(tape_id)
        repair = getattr(self.os, "repair", None)
        if repair is not None:
            repair.on_tape_lost(tape_id)
        return True

    def note_tape_cycles(self, tape_id, cycles: float) -> None:
        """Advance a tape's wear odometer (called at job boundaries).

        Only invoked by dispatchers with ``wear_armed`` set, so the
        no-media-fault hot path never reaches this.
        """
        state = self._wear.get(tape_id)
        if state is None or state.dead:
            return
        state.cycles += cycles
        if state.cycles >= state.threshold:
            state.dead = True
            self.lose_tape(tape_id, cause="wear")

    # -- the transient-error gate ----------------------------------------
    def transient_gate(self, name: str, operation: str, parent=None, request=None):
        """Generator gating one drive operation behind its transient streams.

        Yields backoff timeouts for each drawn error; raises
        :class:`FaultEscalation` once a stream's retry budget is spent.
        Records one ``fault_transient`` span per completed backoff.  Only
        streams that can fire are indexed (see ``_gates``), so the common
        no-error path is one lookup and one draw per stream.
        """
        env = self.env
        for stream in self._gates.get((name, operation), ()):
            spec = stream.spec
            attempt = 0
            while stream.rng.random() < spec.probability:
                attempt += 1
                self._transient_errors.inc()
                if attempt > spec.retry.max_retries:
                    self._escalations.inc()
                    raise FaultEscalation(
                        f"transient {operation} errors on {name}: "
                        f"{spec.retry.max_retries} retries exhausted"
                    )
                self._retries.inc()
                start = env.now
                yield env.timeout(spec.retry.delay_s(attempt))
                self.trace.record(
                    "fault_transient", start, env.now, parent=parent, request=request,
                    drive=name, operation=operation, attempt=attempt,
                )

    # -- fault processes --------------------------------------------------
    def _recurring_process(
        self, spec_index: int, spec: DriveFaultProcess, name: str, handle: _RecurringHandle
    ):
        env = self.env
        rng = self._rng(spec_index, name)
        try:
            while not self._stopped:
                handle.interruptible = True
                yield env.timeout(_draw(rng, spec.distribution, spec.mtbf_s, spec.shape))
                handle.interruptible = False
                if self._stopped:
                    return
                dispatcher, drive = self._dispatcher_for(name)
                ttr = _draw(rng, spec.distribution, spec.mttr_s, spec.shape)
                self._pending_repairs.add(name)
                if not dispatcher.fail_drive(drive, cause=f"fault-process:{name}"):
                    # Already down (escalated / another spec's cycle): not
                    # ours to repair.  The TTR was still drawn, so stream
                    # consumption stays independent of other specs' timing.
                    self._pending_repairs.discard(name)
                    continue
                yield env.timeout(ttr)
                self._pending_repairs.discard(name)
                dispatcher.repair_drive(drive)
        except Interrupt:
            self._pending_repairs.discard(name)

    def _one_shot_process(self, spec: DriveFailure):
        env = self.env
        delay = spec.at_s - env.now
        if delay > 0:
            yield env.timeout(delay)
        dispatcher, drive = self._dispatcher_for(spec.drive)
        if spec.repair_after_s is not None:
            # Commit to the repair *before* the failure interrupt lands, so
            # the dispatcher's unservable check sees it and queued jobs wait
            # out the outage instead of aborting.
            self._pending_repairs.add(spec.drive)
        dispatcher.fail_drive(drive, cause=f"one-shot:{spec.drive}")
        if spec.repair_after_s is not None:
            yield env.timeout(spec.repair_after_s)
            self._pending_repairs.discard(spec.drive)
            dispatcher.repair_drive(drive)

    def _tape_failure_process(self, spec: TapeFailure):
        env = self.env
        delay = spec.at_s - env.now
        if delay > 0:
            yield env.timeout(delay)
        tape = _known_tapes(self.os.system)[spec.tape]
        self.lose_tape(tape.id, cause=f"one-shot:{spec.tape}")

    def _robot_outage_process(self, spec: RobotOutage, library):
        env = self.env
        delay = spec.at_s - env.now
        if delay > 0:
            yield env.timeout(delay)
        with library.robot.resource.request() as req:
            yield req
            start = env.now
            self._robot_outage_count.inc()
            yield env.timeout(spec.duration_s)
            self.trace.record(
                "fault_robot_outage", start, env.now, library=library.id
            )

    # -- reporting --------------------------------------------------------
    def summary(self, horizon_s: float, num_drives: int) -> Dict[str, float]:
        """Availability/degraded-time/fault counters for one finished run.

        Availability is the time-weighted mean fraction of drives up:
        ``1 - total_downtime / (num_drives * horizon)``.  Call
        :meth:`finalize` first so open intervals are folded in.
        """
        total_down = sum(self._downtime_s.values())
        denominator = horizon_s * num_drives
        availability = 1.0 - total_down / denominator if denominator > 0 else 1.0
        summary = {
            "availability": availability,
            "degraded_time_s": self._degraded_s,
            "downtime_s": total_down,
            "drive_failures": self._drive_failures.value,
            "drive_repairs": self._drive_repairs.value,
            "robot_outages": self._robot_outage_count.value,
            "transient_errors": self._transient_errors.value,
            "retries": self._retries.value,
            "escalations": self._escalations.value,
        }
        if self.has_media_faults:
            summary["tape_losses"] = self._tape_losses.value
        return summary
