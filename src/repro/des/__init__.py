"""A self-contained process-based discrete-event simulation kernel.

The tape-library simulator (:mod:`repro.sim`) is built on this kernel, and
the kernel offers only what the simulator runs: timeouts, generator
processes, ``all_of`` joins, interrupts (drive failures) and a FIFO
``Resource`` (the robot arm and the disk stage), plus span tracing and
resource monitoring.  The names mirror SimPy's core surface (``Environment``,
``Timeout``, generator processes, ``Resource``), so the simulator reads like
standard simulation code, but no third-party simulation dependency is
required.
"""

from .core import Environment, Infinity
from .events import AllOf, ConditionValue, Event, Timeout
from .exceptions import Interrupt, SimulationError
from .monitor import ResourceUsageMonitor, Span, SpanContext, Trace, trace_enabled_by_env
from .process import Process
from .resources import RequestEvent, Resource

__all__ = [
    "Environment",
    "Infinity",
    "Event",
    "Timeout",
    "ConditionValue",
    "AllOf",
    "Process",
    "Resource",
    "RequestEvent",
    "Interrupt",
    "SimulationError",
    "Span",
    "SpanContext",
    "Trace",
    "ResourceUsageMonitor",
    "trace_enabled_by_env",
]
