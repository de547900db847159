"""Generator-based processes for the discrete-event simulation kernel.

A *process* wraps a Python generator.  The generator describes behaviour over
simulated time by ``yield``-ing events; the process resumes when each yielded
event is processed, receiving the event's value at the yield expression (or
having the event's exception thrown in, if it failed).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, Optional

from .events import PENDING, Event
from .exceptions import Interrupt, SimulationError

if TYPE_CHECKING:  # pragma: no cover
    from .core import Environment

__all__ = ["Process", "Initialize", "InterruptEvent"]

ProcessGenerator = Generator[Event, Any, Any]


class Initialize(Event):
    """Immediately-scheduled event that starts a process."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process") -> None:
        super().__init__(env)
        assert self.callbacks is not None
        self.callbacks.append(process._resume)
        self._ok = True
        self._value = None
        env._schedule(self, priority=0)  # URGENT


class InterruptEvent(Event):
    """Immediately-scheduled event that throws an Interrupt into a process."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process", cause: Any) -> None:
        super().__init__(env)
        assert self.callbacks is not None
        self.callbacks.append(process._throw_interrupt)
        self._ok = False
        self._value = Interrupt(cause)
        self._defused = True
        env._schedule(self, priority=0)  # URGENT


class Process(Event):
    """An event that is also an executing generator.

    The process event triggers when the generator returns (success, with the
    return value) or raises (failure, with the exception).  Other processes
    may therefore ``yield`` a process to wait for its completion.
    """

    __slots__ = ("_generator", "_target")

    def __init__(self, env: "Environment", generator: ProcessGenerator) -> None:
        if not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        #: The event this process is currently waiting on (None when running
        #: its own code or finished).
        self._target: Optional[Event] = Initialize(env, self)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not exited."""
        return self._value is PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw an :class:`Interrupt` into the process.

        The process is rescheduled immediately; the event it was waiting on
        remains pending and may be re-yielded by the interrupt handler.
        """
        if not self.is_alive:
            raise SimulationError(f"{self!r} has terminated and cannot be interrupted")
        InterruptEvent(self.env, self, cause)

    # -- kernel plumbing --------------------------------------------------
    def _throw_interrupt(self, event: Event) -> None:
        """Deliver an interrupt, detaching from the current target first."""
        if not self.is_alive:
            # Process ended between scheduling and delivery; swallow.
            return
        if self._target is not None and self._target.callbacks is not None:
            try:
                self._target.callbacks.remove(self._resume)
            except ValueError:  # pragma: no cover - already detached
                pass
        self._resume(event)

    def _resume(self, event: Event) -> None:
        """Advance the generator with ``event``'s outcome."""
        try:
            if event._ok:
                next_target = self._generator.send(event._value)
            else:
                # Mark handled: the generator gets a chance to catch it.
                event._defused = True
                assert isinstance(event._value, BaseException)
                next_target = self._generator.throw(event._value)
        except StopIteration as stop:
            self._target = None
            self.succeed(stop.value)
            return
        except BaseException as error:
            self._target = None
            # Waiters (if any) will defuse this when they handle it; with no
            # waiter the kernel crashes loudly, which is what we want.
            self.fail(error)
            return

        while not isinstance(next_target, Event):
            try:
                next_target = self._generator.throw(
                    SimulationError(f"process yielded a non-event: {next_target!r}")
                )
            except StopIteration as stop:
                self._target = None
                self.succeed(stop.value)
                return
            except BaseException as error:
                self._target = None
                self.fail(error)
                return

        if next_target.callbacks is not None:
            next_target.callbacks.append(self._resume)
            self._target = next_target
        else:
            # Already processed: resume immediately via an urgent event.
            self._target = next_target
            bridge = Event(self.env)
            assert bridge.callbacks is not None
            bridge.callbacks.append(self._resume)
            bridge._ok = next_target._ok
            bridge._value = next_target._value
            if not next_target._ok:
                bridge._defused = True
            self.env._schedule(bridge, priority=0)

    def __repr__(self) -> str:
        name = getattr(self._generator, "__name__", str(self._generator))
        return f"<Process {name} at {id(self):#x}>"
