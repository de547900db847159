"""Lightweight telemetry for simulations.

The tape simulator records *spans* (named intervals with attributes) so that
the metrics layer can decompose response times and tests can assert on
scheduling decisions without reaching into engine internals.

Spans form **causal trees**: every span carries a unique ``span_id``, an
optional ``parent_id`` (the enclosing stage) and an optional ``request_id``
(the retrieval request whose service it belongs to).  Instrumentation points
open spans with the :meth:`Trace.span` context manager, which reads the
simulation clock at entry and exit::

    with trace.span(env, "seek", parent=job_ctx.id, request=req.id, drive=name):
        yield env.timeout(seek_s)

A span closed by an exception (e.g. a drive-failure :class:`Interrupt`
unwinding a worker) is still recorded exactly once, tagged
``aborted=True`` so duration accounting can exclude work that restarted
elsewhere.

Tracing can be globally disabled with ``REPRO_TRACE=0`` in the environment;
a disabled trace's :meth:`~Trace.record` is a bound no-op that allocates no
span, and :meth:`~Trace.span` returns a shared null context manager.

Pickling: a :class:`Trace` pickles its span list as one nested pickle (the
``_blob`` of its state) and decodes it only when something first reads
``_spans`` -- a query, ``len()``, a new span or the engine's append fast
lane.  A result replayed from the sweep cache, or shipped back from a pool
worker, thus pays nothing for spans nobody reads, and re-pickling a trace
that was never read passes the blob through undecoded.  Because two equal
traces may hold their spans in different forms (decoded list vs blob),
:class:`Trace` compares by content.  Unpickling never re-reads
``REPRO_TRACE``: a trace keeps the enabled flag it was recorded with.
:class:`Span` pickles as its constructor arguments.
"""

from __future__ import annotations

import os
import pickle
from sys import intern as _intern
from typing import Any, Dict, Iterator, List, Optional

__all__ = [
    "Span",
    "SpanContext",
    "Trace",
    "ResourceUsageMonitor",
    "trace_enabled_by_env",
]

_FALSY = {"0", "false", "off", "no"}


def trace_enabled_by_env() -> bool:
    """False when ``REPRO_TRACE`` is set to ``0``/``false``/``off``/``no``."""
    return os.environ.get("REPRO_TRACE", "1").strip().lower() not in _FALSY


class Span:
    """A named interval of simulated time.

    A plain ``__slots__`` class rather than a frozen dataclass: spans are
    the single most-allocated telemetry object (one per instrumented stage),
    and the frozen-dataclass ``object.__setattr__``-per-field constructor
    showed up directly in the kernel profile.  Field order, defaults,
    keyword construction, value equality and the ``end >= start`` check are
    all preserved.

    Attributes
    ----------
    name:
        Category, e.g. ``"transfer"``, ``"rewind"``, ``"robot_wait"``.
    start, end:
        Simulation timestamps; ``end >= start``.
    attrs:
        Free-form context (drive id, tape id, object id, …).
    span_id:
        Unique id within the owning :class:`Trace` (0 for bare literals).
    parent_id:
        The enclosing span's id, or None for a root span.
    request_id:
        The request whose service this span belongs to, if any.
    """

    __slots__ = ("name", "start", "end", "attrs", "span_id", "parent_id", "request_id")

    def __init__(
        self,
        name: str,
        start: float,
        end: float,
        attrs: Optional[Dict[str, Any]] = None,
        span_id: int = 0,
        parent_id: Optional[int] = None,
        request_id: Optional[int] = None,
    ) -> None:
        if end < start:
            raise ValueError(f"span {name!r} ends ({end}) before it starts ({start})")
        self.name = _intern(name)
        self.start = start
        self.end = end
        self.attrs = {} if attrs is None else attrs
        self.span_id = span_id
        self.parent_id = parent_id
        self.request_id = request_id

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def aborted(self) -> bool:
        """True when the instrumented stage unwound with an exception."""
        return bool(self.attrs.get("aborted", False))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Span):
            return (
                self.name == other.name
                and self.start == other.start
                and self.end == other.end
                and self.attrs == other.attrs
                and self.span_id == other.span_id
                and self.parent_id == other.parent_id
                and self.request_id == other.request_id
            )
        return NotImplemented

    # Like the frozen dataclass it replaces (whose generated hash tripped
    # over the dict field), spans are not hashable.
    __hash__ = None  # type: ignore[assignment]

    def __reduce__(self):
        return (
            Span,
            (self.name, self.start, self.end, self.attrs,
             self.span_id, self.parent_id, self.request_id),
        )

    def __repr__(self) -> str:
        return (
            f"Span(name={self.name!r}, start={self.start!r}, end={self.end!r}, "
            f"attrs={self.attrs!r}, span_id={self.span_id!r}, "
            f"parent_id={self.parent_id!r}, request_id={self.request_id!r})"
        )


class _NullSpanContext:
    """Shared no-op stand-in returned by a disabled trace (no allocation)."""

    __slots__ = ()
    id: Optional[int] = None
    span: Optional[Span] = None

    def __enter__(self) -> "_NullSpanContext":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> bool:
        return False


_NULL_SPAN_CONTEXT = _NullSpanContext()


class SpanContext:
    """An *open* span: a context manager timing one stage on the DES clock.

    The id is allocated eagerly so nested stages can name this span as
    their parent while it is still open.  ``__exit__`` appends the closed
    span exactly once — re-entering a finished context raises, and an
    exception unwinding the block (worker interrupt) closes the span at the
    interruption time with ``aborted=True``.

    The exit path appends a raw field tuple rather than building a
    :class:`Span`: span objects are materialized lazily by the first query
    (see :meth:`Trace._all`), keeping per-span bookkeeping off the
    per-event hot path.
    """

    __slots__ = ("_trace", "_env", "name", "attrs", "id", "parent_id", "request_id", "_start", "_closed")

    def __init__(self, trace: "Trace", env, name: str, parent: Optional[int], request: Optional[int], attrs: Dict[str, Any]) -> None:
        self._trace = trace
        self._env = env
        self.name = name
        self.attrs = attrs
        sid = trace._next_id
        trace._next_id = sid + 1
        self.id = sid
        self.parent_id = parent
        self.request_id = request
        self._start: Optional[float] = None
        self._closed = False

    def __enter__(self) -> "SpanContext":
        if self._closed:
            raise RuntimeError(f"span context {self.name!r} (id {self.id}) already closed")
        self._start = self._env.now
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> bool:
        if not self._closed:  # close exactly once
            self._closed = True
            attrs = self.attrs
            if exc_type is not None:
                attrs = dict(attrs)
                attrs["aborted"] = True
            self._trace._spans.append(
                (self.name, self._start, self._env.now, attrs,
                 self.id, self.parent_id, self.request_id)
            )
        return False


def _record_disabled(name: str, start: float, end: float, **attrs: Any) -> None:
    """No-op ``record`` bound onto disabled traces: no span, no append."""
    return None


def _span_disabled(env, name: str, parent=None, request=None, **attrs: Any) -> _NullSpanContext:
    """``span`` shadow for disabled traces: shared null context, no state."""
    return _NULL_SPAN_CONTEXT


class _SpansOnFirstRead:
    """``Trace._spans`` of a loaded trace: decodes ``_blob`` on first read.

    A non-data descriptor, so the ``_spans`` in a live trace's ``__dict__``
    shadows it and reads never get here.  (A ``__getattr__`` would do the
    same job, but it turns off the interpreter's attribute-read fast path
    for every attribute of every trace.)
    """

    def __get__(self, trace, owner=None):
        if trace is None:
            return self
        state = trace.__dict__
        if "_blob" not in state:
            raise AttributeError(f"{type(trace).__name__!r} object has no attribute '_spans'")
        spans = state["_spans"] = pickle.loads(state["_blob"])
        del state["_blob"]
        return spans


class Trace:
    """An append-only collection of spans with causal-tree query helpers.

    Hot-path storage is *lazy*: the :class:`SpanContext` exit path appends a
    raw field tuple, and :class:`Span` objects are only built (in place, at
    most once per entry) when the trace is first queried — which in every
    simulation driver happens after ``env.run()`` returns, so span
    construction never competes with event processing for wall time.
    """

    _spans = _SpansOnFirstRead()

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = bool(enabled) and trace_enabled_by_env()
        #: Mixed storage: Span instances (from ``record``/``record_reserved``)
        #: and raw field tuples ``(name, start, end, attrs, span_id,
        #: parent_id, request_id)``, in recording order.  Tuples come from
        #: SpanContext exits and from the engine's guarded seek/transfer
        #: fast lane, which appends here directly.
        self._spans: List[Any] = []
        self._next_id = 1
        self._clean_upto = 0  # entries below this index are Span objects
        if not self.enabled:
            # Shadow the bound methods so the disabled hot path is a plain
            # function call that touches no instance state.
            self.record = _record_disabled  # type: ignore[method-assign]
            self.span = _span_disabled  # type: ignore[method-assign]

    # -- recording --------------------------------------------------------
    def _reserve_id(self) -> int:
        sid = self._next_id
        self._next_id = sid + 1
        return sid

    def _all(self) -> List[Span]:
        """The span list with any raw tuples materialized in place."""
        spans = self._spans
        n = len(spans)
        if self._clean_upto != n:
            for i in range(self._clean_upto, n):
                entry = spans[i]
                if type(entry) is tuple:
                    attrs = entry[3]
                    if type(attrs) is tuple:
                        # Flat (key, value, key, value, ...) from the engine
                        # fast lane: the dict is only built here, lazily.
                        entry = entry[:3] + (dict(zip(attrs[::2], attrs[1::2])),) + entry[4:]
                    spans[i] = Span(*entry)
            self._clean_upto = n
        return spans

    def record(
        self,
        name: str,
        start: float,
        end: float,
        parent: Optional[int] = None,
        request: Optional[int] = None,
        **attrs: Any,
    ) -> Optional[Span]:
        """Append a closed span (no-op when disabled)."""
        if not self.enabled:
            return None
        sid = self._next_id
        self._next_id = sid + 1
        span = Span(name, start, end, attrs, sid, parent, request)
        self._spans.append(span)
        return span

    def reserve_id(self) -> Optional[int]:
        """Reserve a span id to close later via :meth:`record_reserved`.

        Lets a span that *ends* after its children (e.g. a request root
        finalized once every drive lands) still be named as their parent.
        Returns None when disabled.
        """
        if not self.enabled:
            return None
        return self._reserve_id()

    def record_reserved(
        self,
        span_id: Optional[int],
        name: str,
        start: float,
        end: float,
        parent: Optional[int] = None,
        request: Optional[int] = None,
        **attrs: Any,
    ) -> Optional[Span]:
        """Close a span whose id was handed out by :meth:`reserve_id`."""
        if not self.enabled or span_id is None:
            return None
        span = Span(name, start, end, attrs, span_id, parent, request)
        self._spans.append(span)
        return span

    def span(
        self,
        env,
        name: str,
        parent: Optional[int] = None,
        request: Optional[int] = None,
        **attrs: Any,
    ):
        """Open a span as a context manager clocked by ``env.now``.

        Returns a shared null context (``id is None``) when disabled, so
        instrumentation points cost one call and no allocation.
        """
        if not self.enabled:
            return _NULL_SPAN_CONTEXT
        return SpanContext(self, env, name, parent, request, attrs)

    def clear(self) -> None:
        self._spans.clear()
        self._next_id = 1
        self._clean_upto = 0

    # -- pickling -------------------------------------------------------------
    def __getstate__(self) -> Dict[str, Any]:
        """State with the span list as one nested pickle, ``_blob``.

        A trace loaded but never read still holds its ``_blob``, which
        passes through as it is.  Loading is the default ``__dict__``
        update, so an older state holding ``_spans`` itself still loads.
        """
        state = self.__dict__.copy()
        spans = state.pop("_spans", None)
        if spans is not None:
            state["_blob"] = pickle.dumps(spans, pickle.HIGHEST_PROTOCOL)
        return state

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Trace):
            return (
                self.enabled == other.enabled
                and self._next_id == other._next_id
                and self._all() == other._all()
            )
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    # -- queries ------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._spans)

    def __iter__(self) -> Iterator[Span]:
        return iter(self._all())

    def spans(self, name: Optional[str] = None, **attrs: Any) -> List[Span]:
        """Spans matching ``name`` and all given attribute values."""
        out = []
        for span in self._all():
            if name is not None and span.name != name:
                continue
            if any(span.attrs.get(k) != v for k, v in attrs.items()):
                continue
            out.append(span)
        return out

    def total(self, name: Optional[str] = None, **attrs: Any) -> float:
        """Summed duration of matching spans."""
        return sum(span.duration for span in self.spans(name, **attrs))

    def busy_time(self, name: Optional[str] = None, **attrs: Any) -> float:
        """Union length of matching spans (overlaps counted once)."""
        intervals = sorted((s.start, s.end) for s in self.spans(name, **attrs))
        total = 0.0
        cur_start: Optional[float] = None
        cur_end = 0.0
        for start, end in intervals:
            if cur_start is None:
                cur_start, cur_end = start, end
            elif start <= cur_end:
                cur_end = max(cur_end, end)
            else:
                total += cur_end - cur_start
                cur_start, cur_end = start, end
        if cur_start is not None:
            total += cur_end - cur_start
        return total

    # -- causal-tree views ---------------------------------------------------
    def by_id(self) -> Dict[int, Span]:
        """Map span_id -> span (bare spans with id 0 are excluded)."""
        return {s.span_id: s for s in self._all() if s.span_id}

    def children(self, span_id: int) -> List[Span]:
        """Direct children of one span, in recording order."""
        return [s for s in self._all() if s.parent_id == span_id]

    def roots(self, request_id: Optional[int] = None) -> List[Span]:
        """Parentless spans (optionally restricted to one request)."""
        return [
            s
            for s in self._all()
            if s.parent_id is None
            and (request_id is None or s.request_id == request_id)
        ]

    def request_spans(self, request_id: int) -> List[Span]:
        """Every span attributed to one request, in recording order."""
        return [s for s in self._all() if s.request_id == request_id]

    def leaves(self, request_id: Optional[int] = None) -> List[Span]:
        """Spans with no children (optionally restricted to one request)."""
        all_spans = self._all()
        parents = {s.parent_id for s in all_spans if s.parent_id is not None}
        return [
            s
            for s in all_spans
            if s.span_id not in parents
            and (request_id is None or s.request_id == request_id)
        ]

    def request_ids(self) -> List[int]:
        """Distinct request ids present, in first-seen order."""
        seen: Dict[int, None] = {}
        for s in self._all():
            if s.request_id is not None:
                seen.setdefault(s.request_id, None)
        return list(seen)


class ResourceUsageMonitor:
    """Occupancy accounting for one :class:`~repro.des.resources.Resource`.

    Attach via :meth:`attach` (or assign to ``resource.monitor``); every
    grant and release is then folded into:

    * ``grants`` — total number of grants;
    * ``max_in_use`` — peak concurrent occupancy (the concurrency-invariant
      check: must never exceed the resource's capacity);
    * ``busy_s`` — union time with at least one slot in use;
    * ``slot_busy_s`` — ∫ occupancy dt (per-slot utilization numerator);
    * ``queue_depth`` / ``max_queue_depth`` / ``queue_wait_s`` — live wait
      queue length, its peak, and ∫ depth dt (mean waiters via Little's law).

    Pass a :class:`~repro.obs.MetricsRegistry` to additionally publish the
    live occupancy and queue depth as gauges and the grant count as a
    counter (names ``resource.<name>.in_use`` / ``.queue_depth`` /
    ``.grants``), sampled by the registry's periodic snapshots.
    """

    __slots__ = (
        "name", "grants", "in_use", "max_in_use", "busy_s", "slot_busy_s",
        "_since", "queue_depth", "max_queue_depth", "queue_wait_s",
        "_queue_since", "_grants_counter", "_in_use_gauge", "_queue_gauge",
    )

    def __init__(self, name: str, registry=None) -> None:
        self.name = name
        self.grants = 0
        self.in_use = 0
        self.max_in_use = 0
        self.busy_s = 0.0
        self.slot_busy_s = 0.0
        self._since: Optional[float] = None  # last occupancy change
        self.queue_depth = 0
        self.max_queue_depth = 0
        self.queue_wait_s = 0.0
        self._queue_since: Optional[float] = None
        self._grants_counter = None
        self._in_use_gauge = None
        self._queue_gauge = None
        if registry is not None:
            self.bind_registry(registry)

    def bind_registry(self, registry) -> "ResourceUsageMonitor":
        """Publish live occupancy/queue metrics into ``registry``."""
        self._grants_counter = registry.counter(
            f"resource.{self.name}.grants", unit="grants"
        )
        self._in_use_gauge = registry.gauge(f"resource.{self.name}.in_use", unit="slots")
        self._queue_gauge = registry.gauge(
            f"resource.{self.name}.queue_depth", unit="requests"
        )
        return self

    def attach(self, resource) -> "ResourceUsageMonitor":
        if resource.users:
            raise ValueError(
                f"cannot attach monitor {self.name!r}: resource already has users"
            )
        resource.monitor = self
        return self

    def _settle(self, now: float) -> None:
        if self._since is not None and self.in_use > 0:
            elapsed = now - self._since
            self.busy_s += elapsed
            self.slot_busy_s += elapsed * self.in_use
        self._since = now

    def _settle_queue(self, now: float) -> None:
        if self._queue_since is not None and self.queue_depth > 0:
            self.queue_wait_s += (now - self._queue_since) * self.queue_depth
        self._queue_since = now

    def on_grant(self, now: float) -> None:
        self._settle(now)
        self.grants += 1
        self.in_use += 1
        self.max_in_use = max(self.max_in_use, self.in_use)
        if self._grants_counter is not None:
            self._grants_counter.inc()
            self._in_use_gauge.set(self.in_use, now)

    def on_release(self, now: float) -> None:
        self._settle(now)
        self.in_use -= 1
        if self._in_use_gauge is not None:
            self._in_use_gauge.set(self.in_use, now)

    def on_enqueue(self, now: float) -> None:
        self._settle_queue(now)
        self.queue_depth += 1
        self.max_queue_depth = max(self.max_queue_depth, self.queue_depth)
        if self._queue_gauge is not None:
            self._queue_gauge.set(self.queue_depth, now)

    def on_dequeue(self, now: float) -> None:
        self._settle_queue(now)
        self.queue_depth -= 1
        if self._queue_gauge is not None:
            self._queue_gauge.set(self.queue_depth, now)

    def utilization(self, horizon_s: float, capacity: int = 1) -> float:
        """Mean fraction of ``capacity`` slots busy over ``[0, horizon_s]``."""
        if horizon_s <= 0:
            return 0.0
        return self.slot_busy_s / (horizon_s * capacity)

    def summary(self) -> Dict[str, float]:
        return {
            "grants": self.grants,
            "max_in_use": self.max_in_use,
            "busy_s": self.busy_s,
            "slot_busy_s": self.slot_busy_s,
            "max_queue_depth": self.max_queue_depth,
            "queue_wait_s": self.queue_wait_s,
        }

    def __repr__(self) -> str:
        return (
            f"<ResourceUsageMonitor {self.name}: {self.grants} grants, "
            f"peak {self.max_in_use}, busy {self.busy_s:.1f}s>"
        )
