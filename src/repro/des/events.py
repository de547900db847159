"""Event primitives for the discrete-event simulation kernel.

An :class:`Event` is the unit of coordination: processes yield events and are
resumed when the event is *processed* (its callbacks run).  Events move
through three states:

``pending``   -> created, not yet triggered; may sit inside resources/queues
``triggered`` -> has a value (or exception) and is scheduled on the event heap
``processed`` -> its callbacks have run

Triggered events are ordered by the ``(time, priority, eid)`` key the
environment assigns at schedule time: ties on time break on priority
(:data:`URGENT` before :data:`NORMAL`) and then FIFO on the monotonically
increasing event id.

This mirrors the SimPy event model closely so that simulation code written
against one transfers to the other, but the implementation here is
self-contained (no third-party dependency is available in this environment).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Iterable, List, Optional

from .exceptions import SimulationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .core import Environment

__all__ = ["PENDING", "Event", "Timeout", "AllOf", "ConditionValue"]


class _Pending:
    """Sentinel marking an event that has no value yet."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<PENDING>"


PENDING: Any = _Pending()

#: Scheduling priorities.  URGENT events at the same timestamp run before
#: NORMAL ones; the kernel uses URGENT for bookkeeping events (e.g. resource
#: releases) so user-visible state is consistent when processes resume.
URGENT = 0
NORMAL = 1


class Event:
    """A one-shot occurrence that processes can wait on.

    Parameters
    ----------
    env:
        The owning :class:`~repro.des.core.Environment`.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = PENDING
        self._ok: bool = True
        #: Failed events raise at the kernel level unless some waiter (or
        #: ``defused = True``) marks the failure as handled.
        self._defused: bool = False

    # -- state ----------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has a value and is scheduled."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have been executed."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only valid once triggered."""
        if not self.triggered:
            raise SimulationError(f"{self!r} has not been triggered")
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or the exception it failed with)."""
        if self._value is PENDING:
            raise SimulationError(f"{self!r} has no value yet")
        return self._value

    @property
    def defused(self) -> bool:
        return self._defused

    @defused.setter
    def defused(self, value: bool) -> None:
        self._defused = bool(value)

    # -- triggering -----------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self.triggered:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self.env._schedule(self, priority=NORMAL)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        Waiting processes will have ``exception`` thrown into them.
        """
        if self.triggered:
            raise SimulationError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        self._ok = False
        self._value = exception
        self.env._schedule(self, priority=NORMAL)
        return self

    def __repr__(self) -> str:
        state = (
            "processed" if self.processed else "triggered" if self.triggered else "pending"
        )
        return f"<{type(self).__name__} ({state}) at {id(self):#x}>"


class Timeout(Event):
    """An event that triggers after a fixed simulated delay."""

    __slots__ = ()

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        super().__init__(env)
        self._ok = True
        self._value = value
        env._schedule(self, priority=NORMAL, delay=delay)


class AllOf(Event):
    """Triggers when *all* child events have triggered.

    The value is a :class:`ConditionValue` mapping each child event to its
    value.  A failing child fails the whole condition immediately; a child
    that fails after that is defused, so it cannot crash the simulation.
    """

    __slots__ = ("_events", "_count")

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env)
        self._events = list(events)
        self._count = 0

        for event in self._events:
            if event.env is not env:
                raise SimulationError("events belong to different environments")

        if not self._events:
            self.succeed(ConditionValue([]))
            return

        for event in self._events:
            if event.processed:
                self._check(event)
            else:
                assert event.callbacks is not None
                event.callbacks.append(self._check)

    def _check(self, event: Event) -> None:
        if self.triggered:
            if not event._ok:
                # The condition no longer cares; don't let the child's
                # failure crash the simulation.
                event._defused = True
            return
        self._count += 1
        if not event._ok:
            event._defused = True
            self.fail(event._value)
        elif self._count == len(self._events):
            # Every child is processed by now: each one was counted either
            # at construction (already processed) or from its own callbacks.
            self.succeed(ConditionValue(list(self._events)))


class ConditionValue:
    """Ordered mapping of triggered child events to their values."""

    __slots__ = ("events",)

    def __init__(self, events: List[Event]) -> None:
        self.events = events

    def __getitem__(self, key: Event) -> Any:
        if key not in self.events:
            raise KeyError(key)
        return key._value

    def __contains__(self, key: Event) -> bool:
        return key in self.events

    def __iter__(self):
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ConditionValue):
            return self.todict() == other.todict()
        if isinstance(other, dict):
            return self.todict() == other
        return NotImplemented

    def todict(self) -> dict:
        return {event: event._value for event in self.events}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<ConditionValue {self.todict()!r}>"
