"""Tests for the Span/Trace telemetry helpers."""

import pytest

from repro.des import Environment, Resource, ResourceUsageMonitor, Span, Trace
from repro.obs import MetricsRegistry


@pytest.fixture(autouse=True)
def _tracing_on(monkeypatch):
    """These tests record spans: keep ``REPRO_TRACE=0`` from disabling them."""
    monkeypatch.delenv("REPRO_TRACE", raising=False)


class _Clock:
    """Minimal env stand-in for SpanContext unit tests."""

    def __init__(self, now=0.0):
        self.now = now


def test_span_duration():
    assert Span("x", 1.0, 3.5).duration == 2.5


def test_span_rejects_negative_duration():
    with pytest.raises(ValueError):
        Span("x", 2.0, 1.0)


def test_record_and_len():
    trace = Trace()
    trace.record("a", 0, 1)
    trace.record("b", 1, 2)
    assert len(trace) == 2


def test_repro_trace_0_disables_a_default_trace(monkeypatch):
    monkeypatch.setenv("REPRO_TRACE", "0")
    trace = Trace()
    assert not trace.enabled
    assert trace.record("a", 0, 1) is None
    assert len(trace) == 0


def test_disabled_trace_records_nothing():
    trace = Trace(enabled=False)
    assert trace.record("a", 0, 1) is None
    assert len(trace) == 0


def test_spans_filter_by_name():
    trace = Trace()
    trace.record("seek", 0, 1)
    trace.record("transfer", 1, 3)
    trace.record("seek", 3, 4)
    assert len(trace.spans("seek")) == 2


def test_spans_filter_by_attrs():
    trace = Trace()
    trace.record("transfer", 0, 1, drive=1)
    trace.record("transfer", 0, 1, drive=2)
    assert len(trace.spans("transfer", drive=2)) == 1


def test_total_sums_durations():
    trace = Trace()
    trace.record("seek", 0, 2)
    trace.record("seek", 5, 6)
    assert trace.total("seek") == 3


def test_busy_time_merges_overlaps():
    trace = Trace()
    trace.record("x", 0, 4)
    trace.record("x", 2, 6)   # overlaps
    trace.record("x", 10, 11)  # disjoint
    assert trace.busy_time("x") == 7


def test_busy_time_empty_is_zero():
    assert Trace().busy_time() == 0.0


def test_clear():
    trace = Trace()
    trace.record("a", 0, 1)
    trace.clear()
    assert len(trace) == 0


def test_iteration_yields_spans_in_order():
    trace = Trace()
    trace.record("a", 0, 1)
    trace.record("b", 1, 2)
    assert [s.name for s in trace] == ["a", "b"]


# ---------------------------------------------------------------------------
# Causal span trees
# ---------------------------------------------------------------------------


def test_span_context_records_nested_tree():
    trace = Trace()
    clock = _Clock()
    with trace.span(clock, "request", request=5) as root:
        clock.now = 1.0
        with trace.span(clock, "seek", parent=root.id, request=5, drive="L0.D0"):
            clock.now = 3.0
        clock.now = 9.0
    seek, request = trace.spans("seek")[0], trace.spans("request")[0]
    assert seek.parent_id == request.span_id
    assert seek.request_id == request.request_id == 5
    assert (seek.start, seek.end) == (1.0, 3.0)
    assert (request.start, request.end) == (0.0, 9.0)


def test_span_context_closes_exactly_once():
    trace = Trace()
    ctx = trace.span(_Clock(), "seek")
    with ctx:
        pass
    with pytest.raises(RuntimeError):
        with ctx:
            pass
    assert len(trace.spans("seek")) == 1


def test_span_context_tags_aborted_on_exception():
    trace = Trace()
    clock = _Clock()
    with pytest.raises(KeyError):
        with trace.span(clock, "transfer", drive="L0.D0"):
            clock.now = 4.0
            raise KeyError("interrupted")
    (span,) = trace.spans("transfer")
    assert span.aborted
    assert span.end == 4.0
    assert span.attrs["drive"] == "L0.D0"  # original attrs kept


def test_reserved_id_parents_children_recorded_first():
    trace = Trace()
    root_id = trace.reserve_id()
    trace.record("seek", 0.0, 2.0, parent=root_id, request=1)
    trace.record_reserved(root_id, "request", 0.0, 5.0, request=1)
    (seek,) = trace.spans("seek")
    (root,) = trace.spans("request")
    assert root.span_id == root_id
    assert seek.parent_id == root_id
    assert trace.by_id()[root_id] is root


def test_tree_queries():
    trace = Trace()
    a = trace.record("request", 0, 10, request=1)
    b = trace.record("tape_job", 0, 10, parent=a.span_id, request=1)
    c = trace.record("seek", 0, 2, parent=b.span_id, request=1)
    d = trace.record("request", 0, 4, request=2)
    assert trace.roots() == [a, d]
    assert trace.roots(request_id=2) == [d]
    assert trace.children(a.span_id) == [b]
    assert trace.request_spans(1) == [a, b, c]
    assert trace.leaves(request_id=1) == [c]
    assert trace.request_ids() == [1, 2]


def test_disabled_trace_reserved_ids_are_none():
    trace = Trace(enabled=False)
    assert trace.reserve_id() is None
    assert trace.record_reserved(None, "request", 0, 1) is None
    assert len(trace) == 0


# ---------------------------------------------------------------------------
# ResourceUsageMonitor occupancy and queue accounting
# ---------------------------------------------------------------------------


def _hold(env, resource, hold_s):
    with resource.request() as req:
        yield req
        yield env.timeout(hold_s)


def test_monitor_counts_grants_and_occupancy():
    env = Environment()
    resource = Resource(env, capacity=2)
    monitor = ResourceUsageMonitor("pool").attach(resource)
    for _ in range(3):
        env.process(_hold(env, resource, 4.0))
    env.run()
    assert monitor.grants == 3
    assert monitor.max_in_use == 2  # capacity bound respected
    # Two overlap on [0, 4], the third runs [4, 8]: busy union is 8s,
    # slot-seconds are 3 holds x 4s.
    assert monitor.busy_s == pytest.approx(8.0)
    assert monitor.slot_busy_s == pytest.approx(12.0)
    assert monitor.max_queue_depth == 1
    assert monitor.queue_wait_s == pytest.approx(4.0)
    assert monitor.queue_depth == 0 and monitor.in_use == 0


def test_monitor_rejects_attaching_to_busy_resource():
    env = Environment()
    resource = Resource(env, capacity=1)
    env.process(_hold(env, resource, 1.0))
    env.run()  # drains, but exercise the guard with a live user
    resource.request()  # immediate grant, never released
    with pytest.raises(ValueError):
        ResourceUsageMonitor("late").attach(resource)


def test_monitor_publishes_registry_instruments():
    env = Environment()
    registry = MetricsRegistry()
    resource = Resource(env, capacity=1)
    ResourceUsageMonitor("robot", registry=registry).attach(resource)
    env.process(_hold(env, resource, 2.0))
    env.process(_hold(env, resource, 2.0))
    env.run()
    assert registry.counters["resource.robot.grants"].value == 2
    in_use = registry.gauges["resource.robot.in_use"]
    queue = registry.gauges["resource.robot.queue_depth"]
    assert in_use.value == 0 and in_use.max == 1
    assert queue.value == 0 and queue.max == 1
    # Gauge integral matches the monitor's own slot accounting.
    assert in_use.time_weighted_mean(now=env.now) == pytest.approx(4.0 / env.now)
