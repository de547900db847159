"""A self-contained process-based discrete-event simulation kernel.

The tape-library simulator (:mod:`repro.sim`) is built on this kernel.  The
API intentionally mirrors SimPy's core surface (``Environment``, ``Timeout``,
generator processes, ``Resource``), so the simulator reads like standard
simulation code, but the implementation is entirely local — no third-party
simulation dependency is required.
"""

from .core import Environment, Infinity
from .events import AllOf, AnyOf, Condition, ConditionValue, Event, Timeout
from .exceptions import EmptySchedule, Interrupt, SimulationError
from .monitor import ResourceUsageMonitor, Span, SpanContext, Trace, trace_enabled_by_env
from .process import Process
from .resources import PriorityResource, ReleaseEvent, RequestEvent, Resource
from .stores import Container, PriorityItem, PriorityStore, Store

__all__ = [
    "Environment",
    "Infinity",
    "Event",
    "Timeout",
    "Condition",
    "ConditionValue",
    "AllOf",
    "AnyOf",
    "Process",
    "Resource",
    "PriorityResource",
    "RequestEvent",
    "Store",
    "PriorityStore",
    "PriorityItem",
    "Container",
    "ReleaseEvent",
    "Interrupt",
    "SimulationError",
    "EmptySchedule",
    "Span",
    "SpanContext",
    "Trace",
    "ResourceUsageMonitor",
    "trace_enabled_by_env",
]
