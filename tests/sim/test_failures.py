"""Tests for drive failures: mid-service rescue and degraded sessions.

Drives fail during service only on the open system's ``concurrent``
policy, through :class:`~repro.sim.faults.DriveFailure` specs.
``TestDriveFailure`` pins the rescue path on a hand-built one-library
archive with exact timings; that every request of a library whose last
drive dies ends aborted, not hung, is pinned by
``tests/sim/test_faults.py::TestAbortedRequests``.
"""

import pytest

from repro.catalog import ObjectCatalog, Request, RequestSet
from repro.hardware import (
    DriveId,
    DriveSpec,
    LibrarySpec,
    ObjectExtent,
    SystemSpec,
    TapeId,
    TapeSpec,
    TapeSystem,
)
from repro.placement import PlacementResult
from repro.sim import DriveFailure, SimulationSession
from repro.workload import Workload

#: Arrivals per hour: the first arrival lands within microseconds of t=0.
BURST = 3.6e9
#: Arrivals per hour: requests hours apart, each served on an idle library.
SPARSE = 1.0


def make_spec(num_drives=2):
    return SystemSpec(
        num_libraries=1,
        library=LibrarySpec(
            num_drives=num_drives,
            num_tapes=6,
            cell_to_drive_s=2.0,
            drive=DriveSpec(transfer_rate_mb_s=10.0, load_s=5.0, unload_s=5.0),
            tape=TapeSpec(capacity_mb=1000.0, max_rewind_s=10.0),
        ),
    )


def make_session(tapes, requests):
    """A one-library session laid out by hand.

    ``tapes`` maps a tape slot to the sizes (MB) of the objects written on
    it from beginning of tape; object ids count up in that order.  Drive 0
    holds tape 0 at start.  ``requests`` lists each request's object ids;
    all are equally popular.
    """
    layouts, sizes = {}, []
    for slot, objects in tapes.items():
        extents, start = [], 0.0
        for size in objects:
            extents.append(ObjectExtent(len(sizes), start, size))
            sizes.append(size)
            start += size
        layouts[TapeId(0, slot)] = extents
    placement = PlacementResult(
        scheme="manual", layouts=layouts, initial_mounts={DriveId(0, 0): TapeId(0, 0)}
    )
    workload = Workload(
        ObjectCatalog(sizes),
        RequestSet([Request(i, tuple(ids), 1.0) for i, ids in enumerate(requests)]),
    )
    return SimulationSession(workload, make_spec(), placement=placement)


def serve_one(session, *faults):
    """One burst arrival on the concurrent policy with ``faults`` armed."""
    return session.open(faults=faults).run(BURST, num_arrivals=1, seed=0)


def reads(result):
    """``(drive, object)`` of every transfer that completed."""
    return [
        (s.attrs["drive"], s.attrs["object"])
        for s in result.trace.spans("transfer")
        if not s.aborted
    ]


class TestDriveFailure:
    def test_failure_mid_transfer_reroutes_work(self):
        """Drive 0 dies 5 s into a 20 s transfer; drive 1 rescues the tape
        and re-reads the extent from scratch."""
        session = make_session({0: [200.0]}, [[0]])
        result = serve_one(session, DriveFailure("L0.D0", at_s=5.0))
        lib = session.system.library(0)
        # All bytes still delivered, nothing aborted.
        assert result.metrics[0].size_mb == pytest.approx(200.0)
        assert result.aborted_requests == 0
        # Rescue path: failure at 5, drive 1 fetches (robot 2 + load 5) and
        # re-reads the full 20 s extent -> 5 + 7 + 20 = 32 s.
        assert result.records[0].finish_s == pytest.approx(32.0)
        assert lib.drives[0].failed
        assert lib.drives[0].mounted is None  # cartridge pulled
        assert lib.drives[1].mounted.id == TapeId(0, 0)

    def test_failure_after_completion_changes_nothing(self):
        """A drive that dies after the last byte leaves the request as a
        healthy run served it; the one-shot failure still lands."""
        healthy = serve_one(make_session({0: [100.0]}, [[0]]))
        session = make_session({0: [100.0]}, [[0]])
        result = serve_one(session, DriveFailure("L0.D0", at_s=500.0))
        assert result.metrics == healthy.metrics
        assert result.records == healthy.records
        assert result.metrics[0].response_s == pytest.approx(10.0, abs=1e-3)
        assert result.horizon_s == pytest.approx(500.0)
        assert session.system.library(0).drives[0].failed

    def test_partial_job_requeues_only_leftovers(self, monkeypatch):
        """Two extents; the first completes before the failure — only the
        second is re-read by the rescuer."""
        monkeypatch.delenv("REPRO_TRACE", raising=False)  # reads spans
        session = make_session({0: [100.0, 100.0]}, [[0, 1]])
        result = serve_one(session, DriveFailure("L0.D0", at_s=15.0))
        assert result.metrics[0].size_mb == pytest.approx(200.0)
        # Extent 0 transferred once; extent 1 started on D0 and re-read on D1.
        assert reads(result) == [("L0.D0", 0), ("L0.D1", 1)]
        cut = [s for s in result.trace.spans("transfer") if s.aborted]
        assert [(s.attrs["drive"], s.attrs["object"]) for s in cut] == [("L0.D0", 1)]

    def test_failed_drive_excluded_from_next_request(self, monkeypatch):
        """Once drive 0 is dead, every later transfer runs on drive 1,
        which switches between the two tapes as the requests need."""
        monkeypatch.delenv("REPRO_TRACE", raising=False)  # reads spans
        tapes, requests = {0: [100.0], 1: [100.0]}, [[0], [1]]
        healthy = make_session(tapes, requests).open().run(SPARSE, num_arrivals=6, seed=3)
        first = healthy.records[0].arrival_s
        session = make_session(tapes, requests)
        result = session.open(faults=(DriveFailure("L0.D0", at_s=first + 2.0),)).run(
            SPARSE, num_arrivals=6, seed=3
        )
        assert result.aborted_requests == 0
        assert [m.size_mb for m in result.metrics] == [m.size_mb for m in healthy.metrics]
        assert {m.request_id for m in result.metrics} == {0, 1}
        later = [
            s for s in result.trace.spans("transfer") if s.start >= first + 2.0
        ]
        assert later
        assert {s.attrs["drive"] for s in later} == {"L0.D1"}
        assert session.system.library(0).drives[0].failed

    def test_reset_clears_failed_state(self):
        system = TapeSystem(make_spec())
        system.library(0).drives[0].failed = True
        system.reset_runtime_state()
        assert not system.library(0).drives[0].failed

    def test_failure_recorded_in_trace(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE", raising=False)  # reads spans
        result = serve_one(
            make_session({0: [200.0]}, [[0]]), DriveFailure("L0.D0", at_s=5.0)
        )
        assert len(result.trace.spans("drive_failure", drive="L0.D0")) == 1


class TestDegradedSession:
    def test_fail_drives_degrades_but_serves(self):
        from repro.experiments import ExperimentSettings, paper_workload
        from repro.placement import ParallelBatchPlacement
        from repro.sim import SimulationSession

        settings = ExperimentSettings(scale="small", num_samples=15)
        workload = paper_workload(settings)
        session = SimulationSession(
            workload, settings.spec(), scheme=ParallelBatchPlacement(m=4)
        )
        healthy = session.evaluate(num_samples=15, seed=8)
        session.reset()
        session.fail_drives(["L0.D7", "L1.D7", "L2.D7"])
        degraded = session.evaluate(num_samples=15, seed=8, reset=False)
        # Same bytes served, slower.
        assert degraded.avg_request_size_mb == pytest.approx(healthy.avg_request_size_mb)
        assert degraded.avg_response_s >= healthy.avg_response_s * 0.999

    def test_failed_pinned_drive_content_served_via_switches(self):
        from repro.experiments import ExperimentSettings, paper_workload
        from repro.placement import ParallelBatchPlacement
        from repro.sim import SimulationSession

        settings = ExperimentSettings(scale="small", num_samples=10)
        workload = paper_workload(settings)
        session = SimulationSession(
            workload, settings.spec(), scheme=ParallelBatchPlacement(m=4)
        )
        session.fail_drives(["L0.D0"])  # a pinned (batch-0) drive
        result = session.evaluate(num_samples=10, seed=8, reset=False)
        assert len(result) == 10
        for m in result.samples:
            request = workload.requests[m.request_id]
            assert m.size_mb == pytest.approx(request.total_size_mb(workload.catalog))

    def test_unknown_drive_name_rejected(self):
        from repro.experiments import ExperimentSettings, paper_workload
        from repro.placement import ObjectProbabilityPlacement
        from repro.sim import SimulationSession

        settings = ExperimentSettings(scale="small")
        workload = paper_workload(settings)
        session = SimulationSession(
            workload, settings.spec(), scheme=ObjectProbabilityPlacement()
        )
        with pytest.raises(ValueError, match="unknown drive"):
            session.fail_drives(["L9.D9"])

    def test_reset_restores_health(self):
        from repro.experiments import ExperimentSettings, paper_workload
        from repro.placement import ObjectProbabilityPlacement
        from repro.sim import SimulationSession

        settings = ExperimentSettings(scale="small")
        workload = paper_workload(settings)
        session = SimulationSession(
            workload, settings.spec(), scheme=ObjectProbabilityPlacement()
        )
        session.fail_drives(["L0.D0"])
        session.reset()
        assert not session.system.library(0).drives[0].failed
