"""End-to-end telemetry: span trees, trace export round-trip, attribution.

The acceptance contract for the observability layer:

* exporting an open-system run to Chrome/Perfetto ``trace_event`` JSON and
  re-importing it reproduces every request's ``seek_s``/``transfer_s``/
  ``switch_s``/``response_s`` within 1e-6 (the trace carries exact
  simulated timestamps in ``args``);
* the stage-attribution report agrees with the
  :class:`~repro.sim.metrics.EvaluationResult` aggregates computed by the
  engine itself;
* spans close exactly once — including tape jobs cut down mid-stage by a
  drive-failure watchdog, which must land as ``aborted`` spans, not
  duplicates or leaks;
* ``REPRO_TRACE=0`` turns all of it off without changing the simulation.
"""

import pytest

from repro.des import Trace
from repro.obs import (
    attribute_requests,
    spans_from_chrome_trace,
    validate_chrome_trace,
)
from repro.sim import EvaluationResult, simulate_open_system

from .test_opensystem import _session, _spec, _workload, spec, workload  # noqa: F401


def _run(workload, spec, policy, rate=120.0, n=20, seed=4, **kwargs):
    return simulate_open_system(
        _session(workload, spec), rate, num_arrivals=n, seed=seed, policy=policy, **kwargs
    )


# ---------------------------------------------------------------------------
# Acceptance: trace export round-trip reproduces the engine's decomposition
# ---------------------------------------------------------------------------


class TestRoundTrip:
    @pytest.mark.parametrize("policy", ["serial-fcfs", "concurrent"])
    def test_reimported_trace_reproduces_metrics(self, workload, spec, policy, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE", raising=False)  # reads spans
        result = _run(workload, spec, policy)
        doc = result.to_chrome_trace()
        assert validate_chrome_trace(doc) == []

        report = attribute_requests(spans_from_chrome_trace(doc))
        assert len(report) == len(result)
        # Tokens are assigned in arrival order and metrics are sorted by
        # arrival, so attribution i pairs with metrics[i].
        for attribution, metrics in zip(report.requests, result.metrics):
            assert attribution.response_s == pytest.approx(metrics.response_s, abs=1e-6)
            assert attribution.seek_s == pytest.approx(metrics.seek_s, abs=1e-6)
            assert attribution.transfer_s == pytest.approx(metrics.transfer_s, abs=1e-6)
            assert attribution.switch_s == pytest.approx(metrics.switch_s, abs=1e-6)

    def test_stage_report_agrees_with_evaluation_aggregates(self, workload, spec, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE", raising=False)  # reads spans
        result = _run(workload, spec, "concurrent")
        report = result.stage_report()
        ev = EvaluationResult(scheme=result.scheme, samples=result.metrics)
        assert report.avg_response_s == pytest.approx(ev.avg_response_s, abs=1e-6)
        assert report.avg_seek_s == pytest.approx(ev.avg_seek_s, abs=1e-6)
        assert report.avg_transfer_s == pytest.approx(ev.avg_transfer_s, abs=1e-6)
        assert report.avg_switch_s == pytest.approx(ev.avg_switch_s, abs=1e-6)


# ---------------------------------------------------------------------------
# Span-tree structure
# ---------------------------------------------------------------------------


class TestSpanTree:
    def test_every_request_has_a_rooted_tree(self, workload, spec, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE", raising=False)  # reads spans
        result = _run(workload, spec, "concurrent")
        trace = result.trace
        by_id = trace.by_id()
        for span in trace:
            if span.parent_id is not None:
                parent = by_id[span.parent_id]  # parent exists
                assert parent.request_id == span.request_id
        # One root per served request, named "request", token-keyed.
        roots = trace.roots()
        assert sorted(s.request_id for s in roots) == list(range(len(result)))
        assert {s.name for s in roots} == {"request"}
        # Catalog ids ride along as an attribute (requests are sampled with
        # replacement, so they can repeat across tokens).
        assert all("catalog_id" in s.attrs for s in roots)

    def test_span_ids_are_unique(self, workload, spec):
        result = _run(workload, spec, "concurrent")
        ids = [s.span_id for s in result.trace]
        assert len(ids) == len(set(ids))

    def test_registry_sampler_snapshots_on_the_sim_clock(self, workload, spec):
        result = _run(workload, spec, "concurrent", sample_period_s=600.0)
        times = [snap["t_s"] for snap in result.registry.snapshots]
        assert times == sorted(times)
        assert len(times) >= 2  # periodic samples plus the final snapshot
        counters = result.registry.snapshots[-1]["counters"]
        assert counters["requests.arrived"] == len(result)
        assert counters["requests.completed"] == len(result)
        assert result.registry.snapshots[-1]["gauges"]["requests.in_flight"] == 0


# ---------------------------------------------------------------------------
# S4: watchdog-killed workers — exactly-once closure, occupancy accounting
# ---------------------------------------------------------------------------


class TestFailureTelemetry:
    @pytest.fixture(scope="class")
    def failed_run(self):
        with pytest.MonkeyPatch.context() as monkeypatch:
            monkeypatch.delenv("REPRO_TRACE", raising=False)  # reads spans
            wl, sp = _workload(), _spec()
            healthy = _run(wl, sp, "concurrent")
            failures = {"L0.D0": healthy.horizon_s / 4, "L0.D1": healthy.horizon_s / 2}
            return _run(wl, sp, "concurrent", failures=failures)

    def test_spans_close_exactly_once_under_failures(self, failed_run):
        ids = [s.span_id for s in failed_run.trace]
        assert len(ids) == len(set(ids))
        # The kill is visible: failure instants plus aborted stage spans.
        assert failed_run.trace.spans("drive_failure")
        assert any(s.aborted for s in failed_run.trace)

    def test_aborted_work_is_excluded_from_attribution(self, failed_run):
        report = attribute_requests(failed_run.spans())
        for attribution, metrics in zip(report.requests, failed_run.metrics):
            assert attribution.response_s == pytest.approx(metrics.response_s, abs=1e-6)
            assert attribution.seek_s == pytest.approx(metrics.seek_s, abs=1e-6)
            assert attribution.transfer_s == pytest.approx(metrics.transfer_s, abs=1e-6)

    def test_monitor_occupancy_stays_consistent(self, failed_run):
        for name, summary in failed_run.resources.items():
            capacity = 1 if name.endswith(".robot") else summary["max_in_use"]
            assert summary["max_in_use"] <= capacity
            assert summary["grants"] >= summary["max_in_use"]
            assert summary["busy_s"] <= failed_run.horizon_s + 1e-9
            assert summary["queue_wait_s"] >= 0.0

    def test_export_stays_valid_under_failures(self, failed_run):
        assert validate_chrome_trace(failed_run.to_chrome_trace()) == []


# ---------------------------------------------------------------------------
# S2: REPRO_TRACE=0 disables span recording without touching the simulation
# ---------------------------------------------------------------------------


class TestTraceGating:
    def test_disabled_trace_records_nothing(self, workload, spec, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "0")
        result = _run(workload, spec, "concurrent")
        assert len(result.spans()) == 0
        assert not result.trace.enabled

    def test_disabled_run_matches_enabled_run(self, workload, spec, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        enabled = _run(workload, spec, "concurrent")
        monkeypatch.setenv("REPRO_TRACE", "0")
        disabled = _run(workload, spec, "concurrent")
        assert [r.finish_s for r in disabled.records] == [
            r.finish_s for r in enabled.records
        ]
        assert [m.response_s for m in disabled.metrics] == [
            m.response_s for m in enabled.metrics
        ]

    def test_disabled_span_context_is_shared_and_null(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "0")
        trace = Trace()
        ctx_a = trace.span(None, "seek")
        ctx_b = trace.span(None, "transfer", parent=3, request=7)
        assert ctx_a is ctx_b  # one shared null context, no allocation
        assert ctx_a.id is None
        with ctx_a:
            pass
        assert trace.record("robot_wait", 0.0, 1.0) is None
        assert len(trace) == 0
