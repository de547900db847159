"""The discrete-event simulation environment.

The :class:`Environment` owns the simulation clock and the event heap and
offers factory helpers (``timeout``, ``process``, ``event`` …) so that
simulation code rarely needs to import the event classes directly.

Example
-------
>>> from repro.des import Environment
>>> env = Environment()
>>> log = []
>>> def clock(env, name, tick):
...     while True:
...         log.append((name, env.now))
...         yield env.timeout(tick)
>>> _ = env.process(clock(env, "fast", 1))
>>> _ = env.process(clock(env, "slow", 2))
>>> env.run(until=4)
>>> log
[('fast', 0.0), ('slow', 0.0), ('fast', 1.0), ('slow', 2.0), ('fast', 2.0), ('fast', 3.0)]
"""

from __future__ import annotations

import gc
from heapq import heappop, heappush
from typing import Any, Iterable, List, Optional, Tuple

from .events import NORMAL, URGENT, AllOf, AnyOf, Event, Timeout
from .exceptions import EmptySchedule, SimulationError, StopSimulation
from .process import Process, ProcessGenerator
from .scheduler import EventScheduler, HeapScheduler, resolve_scheduler

__all__ = ["Environment", "Infinity"]

Infinity = float("inf")


class Environment:
    """Execution environment for an event-driven simulation.

    Parameters
    ----------
    initial_time:
        Starting value of the simulation clock (default 0).
    scheduler:
        Event-scheduler selection: a name from
        :data:`repro.des.scheduler.SCHEDULERS` (``"heapq"``,
        ``"calendar"``), an :class:`EventScheduler` instance, or ``None``
        to consult ``REPRO_SCHEDULER`` (default ``heapq``).  Every
        scheduler pops in the same (time, priority, eid) order, so the
        choice affects throughput only — results are bit-identical.
    """

    def __init__(
        self,
        initial_time: float = 0.0,
        scheduler: "str | EventScheduler | None" = None,
    ) -> None:
        self._now = float(initial_time)
        sched = resolve_scheduler(scheduler)
        self.scheduler = sched
        #: The heap scheduler is special-cased: the environment operates on
        #: its raw ``items`` list with inline ``heappush``/``heappop``,
        #: preserving the pre-pluggable fast path byte for byte.  Any other
        #: scheduler goes through the :class:`EventScheduler` interface.
        self._heapmode = type(sched) is HeapScheduler
        self._queue: List[Tuple[float, int, int, Event]] = (
            sched.items if self._heapmode else None  # type: ignore[assignment]
        )
        #: Monotonic schedule tiebreaker.  A plain int incremented inline is
        #: measurably cheaper than ``next(itertools.count())`` on the hot
        #: path while producing the exact same (time, priority, eid) order.
        self._eid = 0
        self._active_process: Optional[Process] = None
        #: Events processed since construction (throughput telemetry).
        self.events_processed = 0

    # -- introspection ----------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being resumed (None between steps)."""
        return self._active_process

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none remain."""
        if self._heapmode:
            return self._queue[0][0] if self._queue else Infinity
        return self.scheduler.peek_time()

    def __len__(self) -> int:
        return len(self._queue) if self._heapmode else len(self.scheduler)

    # -- event factories ----------------------------------------------------
    def event(self) -> Event:
        """Create a new, untriggered :class:`Event`."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create a :class:`Timeout` that fires after ``delay``.

        Fast lane: a timeout is born triggered with a known value, so the
        generic untriggered-event machinery (``Event.__init__`` +
        ``succeed`` + ``_schedule``) is bypassed and the fields are set
        directly before one inline heap push.  Semantics are identical to
        ``Timeout(self, delay, value)``, including the negative-delay check.
        """
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        t = Timeout.__new__(Timeout)
        t.env = self
        t.callbacks = []
        t._value = value
        t._ok = True
        t._defused = False
        t._delay = delay
        eid = self._eid
        self._eid = eid + 1
        if self._heapmode:
            heappush(self._queue, (self._now + delay, NORMAL, eid, t))
        else:
            self.scheduler.push((self._now + delay, NORMAL, eid, t))
        return t

    def timeout_at(self, when: float, value: Any = None) -> Timeout:
        """Create a :class:`Timeout` that fires at absolute time ``when``.

        Same fast lane as :meth:`timeout`.  A caller that folds a chain of
        back-to-back delays into one event adds them up itself, in the
        order the chain would have (``((now + a) + b) + ...``), and passes
        the sum here: the event then fires at the very float the last
        relative timeout of the chain would have reached.
        """
        if when < self._now:
            raise ValueError(f"timeout at {when} is before now ({self._now})")
        t = Timeout.__new__(Timeout)
        t.env = self
        t.callbacks = []
        t._value = value
        t._ok = True
        t._defused = False
        t._delay = when - self._now
        eid = self._eid
        self._eid = eid + 1
        if self._heapmode:
            heappush(self._queue, (when, NORMAL, eid, t))
        else:
            self.scheduler.push((when, NORMAL, eid, t))
        return t

    def process(self, generator: ProcessGenerator) -> Process:
        """Start a new :class:`Process` from ``generator``."""
        return Process(self, generator)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Condition that triggers when all ``events`` have triggered."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Condition that triggers when any of ``events`` has triggered."""
        return AnyOf(self, events)

    # -- scheduling ---------------------------------------------------------
    def _schedule(self, event: Event, priority: int = NORMAL, delay: float = 0.0) -> None:
        """Put ``event`` on the schedule ``delay`` time units from now."""
        eid = self._eid
        self._eid = eid + 1
        if self._heapmode:
            heappush(self._queue, (self._now + delay, priority, eid, event))
        else:
            self.scheduler.push((self._now + delay, priority, eid, event))

    def step(self) -> None:
        """Process the next scheduled event.

        Raises
        ------
        EmptySchedule
            If no events remain.
        """
        try:
            if self._heapmode:
                self._now, _, _, event = heappop(self._queue)
            else:
                self._now, _, _, event = self.scheduler.pop()
        except IndexError:
            raise EmptySchedule("no scheduled events left") from None

        self.events_processed += 1
        callbacks, event.callbacks = event.callbacks, None
        for callback in callbacks:
            callback(event)

        if not event._ok and not event._defused:
            # Nobody handled the failure: surface it.
            raise event._value

    def run(self, until: "float | Event | None" = None) -> Any:
        """Run until the heap empties, ``until`` time passes, or an event fires.

        ``until`` may be:

        * ``None`` — run until no events remain;
        * a number — run until the clock reaches it (exclusive of events at
          later times; the clock is set to ``until`` on return);
        * an :class:`Event` — run until it is processed and return its value.
        """
        if until is None:
            stop: Optional[Event] = None
            at = Infinity
        elif isinstance(until, Event):
            if until.callbacks is None:
                # Already processed.
                return until.value
            stop = until
            at = Infinity
            until.callbacks.append(_stop_simulation)
        else:
            at = float(until)
            if at <= self._now:
                raise ValueError(f"until ({at}) must be greater than now ({self._now})")
            stop = Event(self)
            stop._ok = True
            stop._value = None
            stop.callbacks = [_stop_simulation]
            eid = self._eid
            self._eid = eid + 1
            if self._heapmode:
                heappush(self._queue, (at, URGENT, eid, stop))
            else:
                self.scheduler.push((at, URGENT, eid, stop))

        # Inlined event loop: ``step()`` stays the single-step public API,
        # but calling it per event costs a method dispatch plus an
        # ``events_processed`` attribute round-trip each iteration.  The
        # loop below is behaviourally identical (same pop order, same
        # callback/failure handling, same count) with the heap, pop and the
        # processed counter held in locals; the counter is flushed in the
        # ``finally`` so every exit path — StopSimulation, an unhandled
        # failure, EmptySchedule — reports the true total.
        #
        # Automatic cyclic GC is paused for the duration of the loop: the
        # event loop allocates containers (heap entries, callbacks lists,
        # span tuples) at a rate that otherwise triggers repeated full-heap
        # collections, each rescanning the large persistent workload/layout
        # object graph — measured at up to ~40% of event-processing time at
        # paper scale with tracing enabled.  Collection is re-enabled (and
        # the deferred work happens on CPython's own schedule) on every exit
        # path; a caller that already disabled GC keeps it disabled.
        # Either way the loop body below is ``pop(queue)``: in heap mode the
        # queue is the raw list and pop is C ``heappop``; otherwise the
        # queue is the scheduler instance and pop its unbound ``pop``.
        if self._heapmode:
            queue = self._queue
            pop = heappop
        else:
            queue = self.scheduler
            pop = type(self.scheduler).pop
        processed = 0
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            while True:
                try:
                    self._now, _, _, event = pop(queue)
                except IndexError:
                    if isinstance(until, Event):
                        raise SimulationError(
                            "no scheduled events left but `until` event was not triggered"
                        ) from None
                    break
                processed += 1
                callbacks, event.callbacks = event.callbacks, None
                for callback in callbacks:
                    callback(event)
                if not event._ok and not event._defused:
                    # Nobody handled the failure: surface it.
                    raise event._value
        except StopSimulation as stopped:
            return stopped.value
        finally:
            self.events_processed += processed
            if gc_was_enabled:
                gc.enable()

        if at is not Infinity and at > self._now:
            self._now = at
        return None


def _stop_simulation(event: Event) -> None:
    if not event._ok:
        event._defused = True
        raise event._value  # propagate the failure to run()'s caller
    raise StopSimulation(event._value)
