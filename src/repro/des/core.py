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

from .events import NORMAL, URGENT, AllOf, Event, Timeout
from .exceptions import SimulationError, StopSimulation
from .process import Process, ProcessGenerator

__all__ = ["Environment", "Infinity"]

#: Positive infinity: the clock horizon of a ``run()`` without a time bound.
Infinity = float("inf")


class Environment:
    """Execution environment for an event-driven simulation.

    Parameters
    ----------
    initial_time:
        Starting value of the simulation clock (default 0).
    """

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        #: Binary heap of ``(time, priority, eid, event)`` entries, pushed
        #: and popped with inline ``heappush``/``heappop``.
        self._queue: List[Tuple[float, int, int, Event]] = []
        #: Monotonic schedule tiebreaker.  A plain int incremented inline is
        #: measurably cheaper than ``next(itertools.count())`` on the hot
        #: path while producing the exact same (time, priority, eid) order.
        self._eid = 0
        #: Events processed since construction (throughput telemetry).
        self.events_processed = 0

    # -- introspection ----------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    def __len__(self) -> int:
        return len(self._queue)

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
        eid = self._eid
        self._eid = eid + 1
        heappush(self._queue, (self._now + delay, NORMAL, eid, t))
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
        eid = self._eid
        self._eid = eid + 1
        heappush(self._queue, (when, NORMAL, eid, t))
        return t

    def process(self, generator: ProcessGenerator) -> Process:
        """Start a new :class:`Process` from ``generator``."""
        return Process(self, generator)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event that triggers when all ``events`` have triggered (:class:`AllOf`)."""
        return AllOf(self, events)

    # -- scheduling ---------------------------------------------------------
    def _schedule(self, event: Event, priority: int = NORMAL, delay: float = 0.0) -> None:
        """Put ``event`` on the schedule ``delay`` time units from now."""
        eid = self._eid
        self._eid = eid + 1
        heappush(self._queue, (self._now + delay, priority, eid, event))

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
            heappush(self._queue, (at, URGENT, eid, stop))

        # The event loop keeps the heap, ``heappop`` and the processed
        # counter in locals: an attribute round-trip per event is measurable
        # at this rate.  Events pop in ``(time, priority, eid)`` order; an
        # event whose failure no callback defused is raised to the caller.
        # The counter is flushed in the ``finally`` so every exit path —
        # StopSimulation, an unhandled failure, an empty heap — reports the
        # true total.
        #
        # Automatic cyclic GC is paused for the duration of the loop: the
        # event loop allocates containers (heap entries, callbacks lists,
        # span tuples) at a rate that otherwise triggers repeated full-heap
        # collections, each rescanning the large persistent workload/layout
        # object graph — measured at up to ~40% of event-processing time at
        # paper scale with tracing enabled.  Collection is re-enabled (and
        # the deferred work happens on CPython's own schedule) on every exit
        # path; a caller that already disabled GC keeps it disabled.
        queue = self._queue
        pop = heappop
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
