"""A shared resource with a FIFO wait queue for the DES kernel.

:class:`Resource` models a pool of ``capacity`` identical servers whose
waiters are granted in request order.  The tape-library simulator uses a
capacity-1 resource per robot arm, so all mount/unmount operations within
one library serialize behind it while robots of different libraries proceed
independently; the optional disk stage is a resource with one slot per
stream.

Usage follows the context-manager idiom::

    def user(env, robot):
        with robot.request() as req:
            yield req            # wait until the robot is ours
            yield env.timeout(7.6)
        # released automatically
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

from .events import Event

if TYPE_CHECKING:  # pragma: no cover
    from .core import Environment

__all__ = ["Resource", "RequestEvent"]


class RequestEvent(Event):
    """Event that triggers once the resource grants this request."""

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource") -> None:
        super().__init__(resource.env)
        self.resource = resource
        resource._do_request(self)

    # Context-manager support: ``with resource.request() as req: yield req``
    def __enter__(self) -> "RequestEvent":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.cancel()

    def cancel(self) -> None:
        """Release the slot (if granted) or withdraw from the queue."""
        self.resource._do_cancel(self)


class Resource:
    """A pool of ``capacity`` slots with a FIFO queue.

    Setting :attr:`monitor` (see
    :class:`~repro.des.monitor.ResourceUsageMonitor`) records every
    grant/release with its simulation time — the open-system metrics layer
    uses this for per-resource utilization, and tests use it to assert
    concurrency invariants (e.g. a capacity-1 robot arm is never held
    twice).
    """

    def __init__(self, env: "Environment", capacity: int = 1) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.env = env
        self._capacity = capacity
        self.users: List[RequestEvent] = []
        self.queue: List[RequestEvent] = []
        #: Optional occupancy observer (duck-typed: ``on_grant(now)`` /
        #: ``on_release(now)`` / ``on_enqueue(now)`` / ``on_dequeue(now)``);
        #: None keeps the hot path branch-cheap.
        self.monitor = None

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def count(self) -> int:
        """Number of slots currently in use."""
        return len(self.users)

    def request(self) -> RequestEvent:
        """Ask for a slot; the returned event triggers when granted."""
        return RequestEvent(self)

    # -- internals ------------------------------------------------------
    def _do_request(self, request: RequestEvent) -> None:
        if len(self.users) < self._capacity:
            self.users.append(request)
            if self.monitor is not None:
                self.monitor.on_grant(self.env.now)
            request.succeed()
        else:
            self.queue.append(request)
            if self.monitor is not None:
                self.monitor.on_enqueue(self.env.now)

    def _do_cancel(self, request: RequestEvent) -> None:
        if request in self.users:
            self.users.remove(request)
            if self.monitor is not None:
                self.monitor.on_release(self.env.now)
            self._grant_next()
        elif request in self.queue:
            self.queue.remove(request)
            if self.monitor is not None:
                self.monitor.on_dequeue(self.env.now)

    def _grant_next(self) -> None:
        while len(self.users) < self._capacity and self.queue:
            nxt = self.queue.pop(0)
            if self.monitor is not None:
                self.monitor.on_dequeue(self.env.now)
            self.users.append(nxt)
            if self.monitor is not None:
                self.monitor.on_grant(self.env.now)
            nxt.succeed()
