"""Tests for the persistent open-system engine (`repro.sim.opensystem`).

Covers the refactor's contract from three sides:

* **Regression** — the closed-loop wrappers (`session.evaluate`,
  `simulate_fcfs_queue`) still produce the pre-refactor numbers, and the
  ``serial-fcfs`` policy reproduces `simulate_fcfs_queue` record-for-record
  on the shared clock.
* **Concurrency invariants** — the robot arm is never held by two drives at
  once, the disk-stream cap is never exceeded, a cartridge is never in two
  drives, and the concurrent policy never loses to serial FCFS.
* **Instrumentation** — windowed metrics, in-flight profile, and the
  overlap-aware `QueueingResult` aggregates.
"""

import hashlib

import numpy as np
import pytest

from repro.des import trace_enabled_by_env
from repro.hardware import DriveSpec, LibrarySpec, ObjectExtent, SystemSpec, TapeId, TapeSpec
from repro.placement import (
    ClusterProbabilityPlacement,
    ObjectProbabilityPlacement,
    ParallelBatchPlacement,
)
from repro.sim import (
    DriveFailure,
    DriveFaultProcess,
    OpenSystem,
    QueuedRequestRecord,
    QueueingResult,
    SimulationSession,
    TapeJob,
    TransientFaults,
    available_scheduling_policies,
    in_flight_profile,
    simulate_fcfs_queue,
    sliding_window_stats,
)
from repro.workload import generate_workload


def _workload(**overrides):
    params = dict(
        num_objects=400,
        num_requests=25,
        request_size_bounds=(5, 12),
        object_size_bounds_mb=(10.0, 500.0),
        mean_object_size_mb=120.0,
        seed=21,
    )
    params.update(overrides)
    return generate_workload(**params)


def _spec(
    num_drives=4,
    num_tapes=12,
    num_libraries=2,
    disk_bandwidth_mb_s=None,
    tape_capacity_mb=10_000.0,
):
    return SystemSpec(
        num_libraries=num_libraries,
        disk_bandwidth_mb_s=disk_bandwidth_mb_s,
        library=LibrarySpec(
            num_drives=num_drives,
            num_tapes=num_tapes,
            cell_to_drive_s=2.0,
            drive=DriveSpec(transfer_rate_mb_s=10.0, load_s=5.0, unload_s=5.0),
            tape=TapeSpec(capacity_mb=tape_capacity_mb, max_rewind_s=10.0),
        ),
    )


@pytest.fixture(scope="module")
def workload():
    return _workload()


@pytest.fixture(scope="module")
def spec():
    return _spec()


def _session(workload, spec, scheme=None):
    return SimulationSession(workload, spec, scheme=scheme or ParallelBatchPlacement(m=2))


# ---------------------------------------------------------------------------
# Regression: the refactor must not move the closed-loop numbers
# ---------------------------------------------------------------------------


class TestClosedLoopRegression:
    """`session.evaluate()` golden values captured before the refactor."""

    GOLDEN_AVG_RESPONSE_S = [
        (ParallelBatchPlacement(m=2), 55.402534371552925),
        (ObjectProbabilityPlacement(), 44.743189844267576),
        (ClusterProbabilityPlacement(), 83.95834191883735),
    ]

    @pytest.mark.parametrize(
        "scheme,golden", GOLDEN_AVG_RESPONSE_S, ids=lambda v: getattr(v, "name", "")
    )
    def test_evaluate_unchanged(self, workload, spec, scheme, golden):
        session = _session(workload, spec, scheme=scheme)
        result = session.evaluate(num_samples=30, seed=5)
        assert result.avg_response_s == pytest.approx(golden, rel=1e-12)


class TestSerialFcfsRegression:
    """serial-fcfs on the shared clock == the closed-loop FCFS queue."""

    def test_matches_simulate_fcfs_queue_record_for_record(self, workload, spec):
        closed = simulate_fcfs_queue(
            _session(workload, spec), 30.0, num_arrivals=25, seed=7
        )
        opened = _session(workload, spec).open(policy="serial-fcfs").run(
            30.0, num_arrivals=25, seed=7
        )
        assert opened.policy == "serial-fcfs"
        assert len(opened) == len(closed)
        for a, b in zip(opened.records, closed.records):
            assert a.request_id == b.request_id
            assert a.arrival_s == pytest.approx(b.arrival_s)
            # Absolute-clock arithmetic differs in the last ulp only.
            assert a.start_s == pytest.approx(b.start_s, rel=1e-9)
            assert a.finish_s == pytest.approx(b.finish_s, rel=1e-9)
        assert opened.mean_sojourn_s == pytest.approx(closed.mean_sojourn_s, rel=1e-9)

    def test_serial_services_never_overlap(self, workload, spec):
        result = _session(workload, spec).open(policy="serial-fcfs").run(
            60.0, num_arrivals=20, seed=3
        )
        by_start = sorted(result.records, key=lambda r: r.start_s)
        for prev, cur in zip(by_start, by_start[1:]):
            assert cur.start_s >= prev.finish_s - 1e-9

    def test_rejects_failure_injection(self, workload, spec):
        session = _session(workload, spec)
        with pytest.raises(ValueError, match="concurrent"):
            session.open(policy="serial-fcfs", faults=(DriveFailure("L0.D0", at_s=100.0),))


# ---------------------------------------------------------------------------
# The concurrent policy
# ---------------------------------------------------------------------------


class TestConcurrentPolicy:
    def test_never_loses_to_serial(self, workload, spec):
        serial = _session(workload, spec).open(policy="serial-fcfs").run(
            120.0, num_arrivals=40, seed=7
        )
        concurrent = _session(workload, spec).open(policy="concurrent").run(
            120.0, num_arrivals=40, seed=7
        )
        assert concurrent.mean_sojourn_s <= serial.mean_sojourn_s * 1.02
        # At this offered load with 2 libraries the win must be strict.
        assert concurrent.mean_sojourn_s < serial.mean_sojourn_s
        assert concurrent.peak_in_flight >= 2

    def test_all_bytes_served(self, workload, spec):
        result = _session(workload, spec).open().run(60.0, num_arrivals=15, seed=1)
        assert len(result.metrics) == 15
        for record, metrics in zip(result.records, result.metrics):
            assert record.request_id == metrics.request_id
            assert record.size_mb == pytest.approx(metrics.size_mb)
            assert metrics.size_mb > 0
            # Open-system response is the sojourn: arrival -> last byte.
            assert metrics.response_s == pytest.approx(record.sojourn_s, rel=1e-9)

    def test_low_load_matches_serial(self, workload, spec):
        """With arrivals far apart there is no overlap to exploit: both
        policies serve an idle system and agree on every sojourn."""
        serial = _session(workload, spec).open(policy="serial-fcfs").run(
            0.5, num_arrivals=10, seed=2
        )
        concurrent = _session(workload, spec).open(policy="concurrent").run(
            0.5, num_arrivals=10, seed=2
        )
        assert concurrent.peak_in_flight == 1
        assert concurrent.mean_sojourn_s == pytest.approx(
            serial.mean_sojourn_s, rel=1e-6
        )

    def test_reproducible(self, workload, spec):
        a = _session(workload, spec).open().run(60.0, num_arrivals=20, seed=9)
        b = _session(workload, spec).open().run(60.0, num_arrivals=20, seed=9)
        assert [r.finish_s for r in a.records] == [r.finish_s for r in b.records]


class TestConcurrentFailures:
    def test_drive_failure_is_rescued(self, workload, spec):
        """Failing a drive mid-stream loses no request: survivors rescue."""
        healthy = _session(workload, spec).open().run(120.0, num_arrivals=20, seed=4)
        faults = (
            DriveFailure("L0.D0", at_s=healthy.horizon_s / 4),
            DriveFailure("L0.D1", at_s=healthy.horizon_s / 2),
        )
        session = _session(workload, spec)
        result = session.open(faults=faults).run(120.0, num_arrivals=20, seed=4)
        assert len(result) == 20
        failed = {fault.drive for fault in faults}
        for drive in session.system.libraries[0].drives:
            if str(drive.id) in failed:
                assert drive.failed
        # Same bytes served despite the failures.
        assert sum(m.size_mb for m in result.metrics) == pytest.approx(
            sum(m.size_mb for m in healthy.metrics)
        )
        assert result.mean_sojourn_s >= healthy.mean_sojourn_s

    def test_unknown_drive_name_rejected(self, workload, spec):
        with pytest.raises(ValueError, match="unknown drive"):
            _session(workload, spec).open(faults=(DriveFailure("L9.D9", at_s=10.0),))


# ---------------------------------------------------------------------------
# Concurrency invariants on the physical resources
# ---------------------------------------------------------------------------


def _starved_session():
    """A drive-starved system: small tapes spread even the popular objects
    across many cartridges while only two drives serve each library, so
    every request forces tape switches and the robot arm and the
    displacement logic are genuinely contended."""
    workload = _workload(
        num_objects=600, request_size_bounds=(8, 16), mean_object_size_mb=None
    )
    spec = _spec(
        num_drives=2, num_tapes=40, disk_bandwidth_mb_s=20.0,
        tape_capacity_mb=2_000.0,
    )
    return SimulationSession(workload, spec, scheme=ObjectProbabilityPlacement())


class TestResourceInvariants:
    @pytest.fixture(scope="class")
    def starved(self):
        return _starved_session()

    @pytest.fixture(scope="class")
    def starved_result(self, starved):
        return starved.open().run(240.0, num_arrivals=30, seed=11)

    def test_switches_actually_happen(self, starved_result):
        assert sum(m.num_switches for m in starved_result.metrics) > 0

    def test_robot_never_held_twice(self, starved_result):
        for name, stats in starved_result.resources.items():
            if name.endswith(".robot"):
                assert stats["grants"] > 0
                assert stats["max_in_use"] <= 1
                assert stats["busy_s"] <= starved_result.horizon_s

    def test_disk_stream_cap_respected(self, starved, starved_result):
        cap = starved.spec.disk_streams
        assert cap == 2
        disk = starved_result.resources["disk"]
        assert disk["max_in_use"] <= cap
        # The slot-time integral can exceed single-resource busy time only
        # through genuine multi-stream overlap, and never beyond the cap.
        assert disk["slot_busy_s"] <= cap * starved_result.horizon_s
        assert starved_result.resource_utilization("disk", capacity=cap) <= 1.0

    def test_cartridge_exists_once(self, starved, starved_result):
        """After draining, every tape is mounted in at most one drive."""
        seen = {}
        for library in starved.system.libraries:
            for drive in library.drives:
                if drive.mounted is not None:
                    assert drive.mounted.id not in seen
                    seen[drive.mounted.id] = drive.id


# ---------------------------------------------------------------------------
# OpenSystem lifecycle and validation
# ---------------------------------------------------------------------------


class TestOpenSystemLifecycle:
    def test_policies_registered(self):
        assert available_scheduling_policies() == ("concurrent", "serial-fcfs")

    def test_unknown_policy(self, workload, spec):
        with pytest.raises(ValueError, match="unknown scheduling policy"):
            _session(workload, spec).open(policy="shortest-job-first")

    def test_validates_run_args(self, workload, spec):
        osys = _session(workload, spec).open()
        with pytest.raises(ValueError):
            osys.run(0.0)
        with pytest.raises(ValueError):
            osys.run(10.0, num_arrivals=0)

    def test_second_run_continues_the_clock(self, workload, spec):
        osys = _session(workload, spec).open()
        first = osys.run(60.0, num_arrivals=10, seed=0)
        with pytest.raises(ValueError, match="reset"):
            osys.run(60.0, num_arrivals=10, seed=1)
        second = osys.run(60.0, num_arrivals=10, seed=1, reset=False)
        assert second.records[0].arrival_s > first.horizon_s - 1e-9
        assert second.horizon_s > first.horizon_s

    def test_session_open_entry_point(self, workload, spec):
        osys = _session(workload, spec).open(policy="concurrent")
        assert isinstance(osys, OpenSystem)
        assert "concurrent" in repr(osys)


# ---------------------------------------------------------------------------
# Windowed metrics and the in-flight profile
# ---------------------------------------------------------------------------


class TestWindowedMetrics:
    @pytest.fixture(scope="class")
    def result(self, workload, spec):
        return _session(workload, spec).open().run(120.0, num_arrivals=30, seed=7)

    def test_profile_counts(self, result):
        times, counts = in_flight_profile(result.records)
        assert len(times) == len(counts)
        assert (counts >= 0).all()
        assert counts.max() == result.peak_in_flight
        assert counts[-1] == 0  # everything eventually completes

    def test_windows_partition_the_horizon(self, result):
        windows = result.windowed(window_s=600.0)
        assert windows
        assert windows[0].start_s == 0.0
        for prev, cur in zip(windows, windows[1:]):
            assert cur.start_s == pytest.approx(prev.end_s)
        assert sum(w.arrivals for w in windows) == len(result)
        assert sum(w.completions for w in windows) == len(result)

    def test_window_stats_bounded(self, result):
        for w in result.windowed(window_s=600.0):
            assert 0 <= w.mean_in_flight <= result.peak_in_flight
            if w.completions:
                assert w.p50_sojourn_s <= w.p95_sojourn_s
            else:
                assert np.isnan(w.p50_sojourn_s)

    def test_sliding_step(self, result):
        overlapping = sliding_window_stats(result.records, 1200.0, step_s=600.0)
        tumbling = result.windowed(1200.0)
        assert len(overlapping) >= len(tumbling)

    def test_empty_records(self):
        assert sliding_window_stats([], 100.0) == []
        times, counts = in_flight_profile([])
        assert len(times) == 0 and len(counts) == 0


# ---------------------------------------------------------------------------
# QueueingResult aggregates (satellite: NaN guards + busy-union utilization)
# ---------------------------------------------------------------------------


class TestQueueingResultAggregates:
    def test_empty_records_yield_nan_not_crash(self):
        empty = QueueingResult("s", 1.0)
        assert np.isnan(empty.mean_wait_s)
        assert np.isnan(empty.mean_service_s)
        assert np.isnan(empty.mean_sojourn_s)
        assert np.isnan(empty.sojourn_percentile(50))
        assert empty.utilization == 0.0

    def test_utilization_unions_overlap(self):
        result = QueueingResult("s", 1.0)
        result.records = [
            QueuedRequestRecord(0, 0.0, 0.0, 10.0, 1.0),
            QueuedRequestRecord(1, 0.0, 5.0, 15.0, 1.0),  # overlaps the first
            QueuedRequestRecord(2, 0.0, 30.0, 40.0, 1.0),
        ]
        # union busy = [0, 15] + [30, 40] = 25 over horizon 40.
        assert result.utilization == pytest.approx(25.0 / 40.0)

    def test_utilization_out_of_order_records(self):
        result = QueueingResult("s", 1.0)
        result.records = [
            QueuedRequestRecord(1, 0.0, 20.0, 30.0, 1.0),
            QueuedRequestRecord(0, 0.0, 0.0, 10.0, 1.0),
        ]
        assert result.utilization == pytest.approx(20.0 / 30.0)


# ---------------------------------------------------------------------------
# TapeJob completion index (satellite: O(n) extent consumption)
# ---------------------------------------------------------------------------


class TestTapeJobCompletion:
    def _job(self, n=4):
        extents = [
            ObjectExtent(object_id=i, start_mb=10.0 * i, size_mb=5.0)
            for i in range(n)
        ]
        return TapeJob(TapeId(0, 0), extents)

    def test_begin_advance(self):
        job = self._job(3)
        ordered = list(reversed(job.extents))
        job.begin(ordered)
        assert job.extents == ordered
        assert not job.is_done
        for i in range(3):
            assert len(job.remaining_extents) == 3 - i
            job.advance()
        assert job.is_done
        assert job.remaining_extents == []

    def test_split_remaining(self):
        job = self._job(4)
        job.begin(list(job.extents))
        job.advance()
        job.advance()
        rest = job.split_remaining()
        assert rest.tape_id == job.tape_id
        assert rest.completed == 0
        assert rest.extents == job.extents[2:]


# ---------------------------------------------------------------------------
# Kernel fast-path parity: seed-for-seed goldens over the full result surface
# ---------------------------------------------------------------------------


def _digest(values):
    return hashlib.sha256(repr(tuple(values)).encode()).hexdigest()[:16]


@pytest.mark.skipif(
    not trace_enabled_by_env(), reason="parity goldens include span digests"
)
class TestKernelFastPathParity:
    """Bit-identical goldens guarding the DES kernel/engine fast path.

    The slotted events, timeout fast lane, inlined run loop, lazy span
    storage and dispatcher hoists are all pure optimizations: seed for
    seed, every sojourn, span tuple, metric and fault counter must stay
    exactly what the generic paths produced.  The digests below were
    captured on the drive-starved configuration before the fast path
    landed; any change to hot-path event ordering, span bookkeeping or
    float arithmetic moves at least one of them.
    """

    GOLDEN = {
        "serial-fcfs": dict(
            mean_sojourn_s=253.4565958084526,
            horizon_s=909.8063320680933,
            sojourn_digest="62eb2befb0a3529b",
            span_count=1060,
            span_digest="151f24ef73f12657",
            metrics_digest="6180bd68e78b1863",
            switches=8,
            events_processed=1452,
            robot0=dict(grants=4, busy_s=56.0, queue_wait_s=22.729739828302286),
        ),
        "concurrent": dict(
            mean_sojourn_s=168.2069386104041,
            horizon_s=715.3968139415947,
            sojourn_digest="bff1b1d040d4183f",
            span_count=1236,
            span_digest="762acaa5735ac7df",
            metrics_digest="94aa3ccecc7eb4a8",
            switches=4,
            events_processed=1292,
            robot0=dict(grants=2, busy_s=28.0, queue_wait_s=0.0),
        ),
    }

    @pytest.mark.parametrize("policy", sorted(GOLDEN))
    def test_policy_parity(self, policy):
        golden = self.GOLDEN[policy]
        session = _starved_session()
        opensys = session.open(policy=policy)
        result = opensys.run(240.0, num_arrivals=30, seed=11)

        assert result.mean_sojourn_s == golden["mean_sojourn_s"]
        assert result.horizon_s == golden["horizon_s"]
        assert _digest(r.sojourn_s for r in result.records) == golden["sojourn_digest"]

        spans = result.spans()
        assert len(spans) == golden["span_count"]
        assert (
            _digest(
                (s.name, s.start, s.end, s.span_id, s.parent_id, s.request_id)
                for s in spans
            )
            == golden["span_digest"]
        )
        assert (
            _digest(
                (m.response_s, m.seek_s, m.transfer_s, m.num_switches)
                for m in result.metrics
            )
            == golden["metrics_digest"]
        )
        assert sum(m.num_switches for m in result.metrics) == golden["switches"]
        assert opensys.env.events_processed == golden["events_processed"]

        robot0 = result.resources[sorted(n for n in result.resources if "robot" in n)[0]]
        for key, value in golden["robot0"].items():
            assert robot0[key] == value

    @pytest.mark.parametrize("policy", sorted(GOLDEN))
    def test_explicit_greedy_planner_matches_goldens(self, policy):
        """Requesting ``greedy-sweep`` by name is the identical code path to
        the default: the planner refactor must reproduce the pre-refactor
        digests bit for bit, seed for seed."""
        golden = self.GOLDEN[policy]
        session = _starved_session()
        opensys = session.open(policy=policy, seek_planner="greedy-sweep")
        result = opensys.run(240.0, num_arrivals=30, seed=11)

        assert result.mean_sojourn_s == golden["mean_sojourn_s"]
        assert result.horizon_s == golden["horizon_s"]
        assert _digest(r.sojourn_s for r in result.records) == golden["sojourn_digest"]
        spans = result.spans()
        assert len(spans) == golden["span_count"]
        assert (
            _digest(
                (s.name, s.start, s.end, s.span_id, s.parent_id, s.request_id)
                for s in spans
            )
            == golden["span_digest"]
        )
        assert opensys.env.events_processed == golden["events_processed"]

    def test_faulted_parity(self):
        """An armed FaultSpec run: availability and fault counters included."""
        session = _starved_session()
        opensys = session.open(
            policy="concurrent",
            faults=(
                DriveFaultProcess(mtbf_s=1200.0, mttr_s=300.0),
                TransientFaults(probability=0.05),
            ),
            fault_seed=5,
        )
        result = opensys.run(240.0, num_arrivals=30, seed=11)

        assert result.mean_sojourn_s == 176.86092777024982
        assert result.horizon_s == 2044.5652057413329
        assert _digest(r.sojourn_s for r in result.records) == "a00856937e4ecac8"
        assert len(result.spans()) == 1247
        assert result.availability == 0.9602682894847447
        assert result.aborted_requests == 0
        assert opensys.env.events_processed == 1322
        faults = result.faults
        assert faults["drive_failures"] == 1.0
        assert faults["drive_repairs"] == 1.0
        assert faults["transient_errors"] == 5.0
        assert faults["retries"] == 5.0
        assert faults["escalations"] == 0.0
        assert faults["degraded_time_s"] == 324.9362915363114


class TestRedundancyDegenerateParity:
    """r=1 / k=n=1 wrappers are exact pass-throughs of the base scheme.

    The redundancy serve path only activates when the location index holds
    redundant extents; a degenerate wrapper must therefore reproduce the
    base run bit for bit — same records, same metrics, and *no*
    ``redundancy.*`` instruments (whose mere registration would move the
    pinned ``metrics_digest`` goldens above).
    """

    SPECS = {"replicated-r1": "r=1", "erasure-k1n1": "k=1,n=1"}

    def _wrapped_session(self, redundancy):
        from repro.redundancy import wrap_scheme

        workload = _workload(
            num_objects=600, request_size_bounds=(8, 16), mean_object_size_mb=None
        )
        spec = _spec(
            num_drives=2, num_tapes=40, disk_bandwidth_mb_s=20.0,
            tape_capacity_mb=2_000.0,
        )
        scheme = wrap_scheme(ObjectProbabilityPlacement(), redundancy)
        return SimulationSession(workload, spec, scheme=scheme)

    @pytest.mark.parametrize("redundancy", sorted(SPECS.values()))
    def test_degenerate_run_is_bit_identical(self, redundancy):
        base = _starved_session().open(policy="concurrent")
        base_result = base.run(240.0, num_arrivals=30, seed=11)
        wrapped = self._wrapped_session(redundancy).open(policy="concurrent")
        result = wrapped.run(240.0, num_arrivals=30, seed=11)

        assert not wrapped.index.has_redundancy
        assert [r.sojourn_s for r in result.records] == [
            r.sojourn_s for r in base_result.records
        ]
        assert [m.response_s for m in result.metrics] == [
            m.response_s for m in base_result.metrics
        ]
        assert result.horizon_s == base_result.horizon_s
        assert sum(m.num_switches for m in result.metrics) == sum(
            m.num_switches for m in base_result.metrics
        )
        assert not any(
            name.startswith("redundancy.") for name in result.registry.counters
        )
        assert "replica_fallbacks" not in result.registry.digests

    @pytest.mark.skipif(
        not trace_enabled_by_env(), reason="parity goldens include span digests"
    )
    @pytest.mark.parametrize("redundancy", sorted(SPECS.values()))
    def test_degenerate_run_matches_pinned_goldens(self, redundancy):
        """The wrapped run hits the *same* goldens as the kernel fast path."""
        golden = TestKernelFastPathParity.GOLDEN["concurrent"]
        opensys = self._wrapped_session(redundancy).open(policy="concurrent")
        result = opensys.run(240.0, num_arrivals=30, seed=11)

        assert result.mean_sojourn_s == golden["mean_sojourn_s"]
        assert result.horizon_s == golden["horizon_s"]
        assert _digest(r.sojourn_s for r in result.records) == golden["sojourn_digest"]
        assert (
            _digest(
                (m.response_s, m.seek_s, m.transfer_s, m.num_switches)
                for m in result.metrics
            )
            == golden["metrics_digest"]
        )
        spans = result.spans()
        assert len(spans) == golden["span_count"]
        assert (
            _digest(
                (s.name, s.start, s.end, s.span_id, s.parent_id, s.request_id)
                for s in spans
            )
            == golden["span_digest"]
        )
        assert opensys.env.events_processed == golden["events_processed"]
