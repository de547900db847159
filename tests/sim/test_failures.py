"""Tests for injected drive failures and rescue rescheduling."""

import pytest

from repro.catalog import LocationIndex, Request
from repro.des import Trace
from repro.hardware import (
    DriveSpec,
    LibrarySpec,
    ObjectExtent,
    SystemSpec,
    TapeId,
    TapeSpec,
    TapeSystem,
)
from repro.sim import simulate_request


def make_system(num_drives=2):
    spec = SystemSpec(
        num_libraries=1,
        library=LibrarySpec(
            num_drives=num_drives,
            num_tapes=6,
            cell_to_drive_s=2.0,
            drive=DriveSpec(transfer_rate_mb_s=10.0, load_s=5.0, unload_s=5.0),
            tape=TapeSpec(capacity_mb=1000.0, max_rewind_s=10.0),
        ),
    )
    return TapeSystem(spec)


class TestDriveFailure:
    def test_failure_mid_transfer_reroutes_work(self):
        """Drive 0 dies 5 s into a 20 s transfer; drive 1 rescues the tape
        and re-reads the extent from scratch."""
        system = make_system()
        lib = system.library(0)
        lib.tape(TapeId(0, 0)).write_layout([ObjectExtent(1, 0, 200.0)])
        lib.drives[0].mount(lib.tape(TapeId(0, 0)))
        index = LocationIndex.from_system(system)

        m = simulate_request(
            system, index, Request(0, (1,), 1.0), failures={"L0.D0": 5.0}
        )
        # All bytes still delivered.
        assert m.size_mb == pytest.approx(200.0)
        # Rescue path: failure at 5, drive 1 fetches (robot 2 + load 5) and
        # re-reads the full 20 s extent -> 5 + 7 + 20 = 32 s.
        assert m.response_s == pytest.approx(32.0)
        assert lib.drives[0].failed
        assert lib.drives[0].mounted is None  # cartridge pulled
        assert lib.drives[1].mounted.id == TapeId(0, 0)

    def test_failure_after_completion_changes_nothing(self):
        system = make_system()
        lib = system.library(0)
        lib.tape(TapeId(0, 0)).write_layout([ObjectExtent(1, 0, 100.0)])
        lib.drives[0].mount(lib.tape(TapeId(0, 0)))
        index = LocationIndex.from_system(system)
        m = simulate_request(
            system, index, Request(0, (1,), 1.0), failures={"L0.D0": 500.0}
        )
        assert m.response_s == pytest.approx(10.0)
        assert not lib.drives[0].failed  # watchdog found the process done

    def test_partial_job_requeues_only_leftovers(self, monkeypatch):
        """Two extents; the first completes before the failure — only the
        second is re-read by the rescuer."""
        monkeypatch.delenv("REPRO_TRACE", raising=False)  # reads spans
        system = make_system()
        lib = system.library(0)
        lib.tape(TapeId(0, 0)).write_layout(
            [ObjectExtent(1, 0, 100.0), ObjectExtent(2, 100.0, 100.0)]
        )
        lib.drives[0].mount(lib.tape(TapeId(0, 0)))
        index = LocationIndex.from_system(system)
        trace = Trace()
        m = simulate_request(
            system, index, Request(0, (1, 2), 1.0),
            failures={"L0.D0": 15.0}, trace=trace,
        )
        assert m.size_mb == pytest.approx(200.0)
        # Extent 1 transferred once; extent 2 started on D0 and re-read on D1.
        reads = [(s.attrs["drive"], s.attrs["object"]) for s in trace.spans("transfer")]
        assert ("L0.D0", 1) in reads
        assert ("L0.D1", 2) in reads
        assert ("L0.D1", 1) not in reads

    def test_failed_drive_excluded_from_next_request(self):
        system = make_system()
        lib = system.library(0)
        lib.tape(TapeId(0, 0)).write_layout([ObjectExtent(1, 0, 100.0)])
        lib.tape(TapeId(0, 1)).write_layout([ObjectExtent(2, 0, 100.0)])
        lib.drives[0].mount(lib.tape(TapeId(0, 0)))
        index = LocationIndex.from_system(system)
        simulate_request(system, index, Request(0, (1,), 1.0), failures={"L0.D0": 2.0})
        assert lib.drives[0].failed
        # Next request is served entirely by the surviving drive.
        m = simulate_request(system, index, Request(1, (2,), 1.0))
        assert m.size_mb == pytest.approx(100.0)
        assert lib.drives[1].mounted.id == TapeId(0, 1)

    def test_all_drives_failed_raises(self):
        system = make_system(num_drives=1)
        lib = system.library(0)
        lib.tape(TapeId(0, 0)).write_layout([ObjectExtent(1, 0, 200.0)])
        lib.drives[0].mount(lib.tape(TapeId(0, 0)))
        index = LocationIndex.from_system(system)
        with pytest.raises(RuntimeError, match="no surviving"):
            simulate_request(
                system, index, Request(0, (1,), 1.0), failures={"L0.D0": 5.0}
            )

    def test_reset_clears_failed_state(self):
        system = make_system()
        system.library(0).drives[0].failed = True
        system.reset_runtime_state()
        assert not system.library(0).drives[0].failed

    def test_failure_recorded_in_trace(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE", raising=False)  # reads spans
        system = make_system()
        lib = system.library(0)
        lib.tape(TapeId(0, 0)).write_layout([ObjectExtent(1, 0, 200.0)])
        lib.drives[0].mount(lib.tape(TapeId(0, 0)))
        index = LocationIndex.from_system(system)
        trace = Trace()
        simulate_request(
            system, index, Request(0, (1,), 1.0),
            failures={"L0.D0": 5.0}, trace=trace,
        )
        assert len(trace.spans("drive_failure", drive="L0.D0")) == 1


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
