"""Tests for the fault-injection & recovery subsystem (`repro.sim.faults`).

Covers the fault layer from four sides:

* **Spec validation** — bad parameters, unknown drives/libraries, and the
  serial-fcfs incompatibility all error at ``OpenSystem.__init__`` time,
  before any simulation starts (satellite: validation moved out of
  ``Policy.bind``).
* **Recovery semantics** — repaired drives rejoin the pool and serve again
  (span evidence), pinned drives restore their batch-0 home tape, and the
  all-drives-failed scenario terminates with ``aborted`` requests instead
  of hanging (satellite bugfix).
* **Rescue edge cases** — failure mid-switch, failure between dispatch and
  pickup, simultaneous failures in one library, repair racing a pending
  rescue.
* **Determinism** — chaos runs are bit-identical for a fixed fault seed,
  across reruns and sweep worker counts.
"""

import math

import numpy as np
import pytest

from repro.hardware import DriveSpec, LibrarySpec, SystemSpec, TapeSpec
from repro.placement import ObjectProbabilityPlacement, ParallelBatchPlacement
from repro.sim import (
    DriveFailure,
    DriveFaultProcess,
    FaultInjector,
    RetryPolicy,
    RobotOutage,
    SimulationSession,
    TapeFailure,
    TapeWearProcess,
    TransientFaults,
    failures_to_specs,
    simulate_open_system,
)
from repro.sim.faults import _draw
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


def _spec(num_drives=4, num_tapes=12, num_libraries=2, tape_capacity_mb=10_000.0):
    return SystemSpec(
        num_libraries=num_libraries,
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
# RetryPolicy
# ---------------------------------------------------------------------------


class TestRetryPolicy:
    def test_capped_exponential_schedule(self):
        policy = RetryPolicy(max_retries=5, base_delay_s=2.0, multiplier=2.0, max_delay_s=10.0)
        assert policy.schedule() == (2.0, 4.0, 8.0, 10.0, 10.0)
        assert policy.delay_s(1) == 2.0
        assert policy.delay_s(100) == 10.0

    def test_attempts_are_one_based(self):
        with pytest.raises(ValueError, match="1-based"):
            RetryPolicy().delay_s(0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_retries": -1},
            {"base_delay_s": -1.0},
            {"multiplier": 0.5},
            {"base_delay_s": 10.0, "max_delay_s": 5.0},
            {"base_delay_s": math.nan},
            {"multiplier": math.nan},
            {"multiplier": math.inf},
            {"max_delay_s": math.nan},
        ],
    )
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)


# ---------------------------------------------------------------------------
# Spec validation at OpenSystem.__init__ (satellite: moved out of bind)
# ---------------------------------------------------------------------------


class TestSpecValidation:
    def test_unknown_drive_in_legacy_map(self, workload, spec):
        with pytest.raises(ValueError, match="unknown drive"):
            _session(workload, spec).open(failures={"L9.D9": 10.0})

    def test_unknown_drive_in_fault_spec(self, workload, spec):
        with pytest.raises(ValueError, match="unknown drive"):
            _session(workload, spec).open(
                faults=(DriveFailure("L7.D7", at_s=5.0),)
            )

    def test_serial_fcfs_rejects_legacy_map(self, workload, spec):
        with pytest.raises(ValueError, match="concurrent"):
            _session(workload, spec).open(
                policy="serial-fcfs", failures={"L0.D0": 100.0}
            )

    def test_serial_fcfs_rejects_fault_specs(self, workload, spec):
        with pytest.raises(ValueError, match="concurrent"):
            _session(workload, spec).open(
                policy="serial-fcfs",
                faults=(DriveFaultProcess(mtbf_s=100.0, mttr_s=10.0),),
            )

    @pytest.mark.parametrize(
        "fault",
        [
            DriveFailure("L0.D0", at_s=-1.0),
            DriveFailure("L0.D0", at_s=1.0, repair_after_s=0.0),
            DriveFaultProcess(mtbf_s=0.0, mttr_s=10.0),
            DriveFaultProcess(mtbf_s=10.0, mttr_s=-1.0),
            DriveFaultProcess(mtbf_s=10.0, mttr_s=1.0, distribution="lognormal"),
            DriveFaultProcess(mtbf_s=10.0, mttr_s=1.0, distribution="weibull", shape=0.0),
            DriveFaultProcess(mtbf_s=10.0, mttr_s=1.0, drives=("L9.D9",)),
            RobotOutage(at_s=10.0, duration_s=0.0),
            RobotOutage(at_s=10.0, duration_s=5.0, library=9),
            TransientFaults(probability=1.5),
            TransientFaults(probability=0.5, operations=()),
            TransientFaults(probability=0.5, operations=("format",)),
            TransientFaults(probability=0.5, drives=("L9.D9",)),
        ],
    )
    def test_bad_specs_rejected_before_simulation(self, workload, spec, fault):
        with pytest.raises(ValueError):
            _session(workload, spec).open(faults=(fault,))

    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize(
        "field, make",
        [
            ("at_s", lambda bad: DriveFailure("L0.D0", at_s=bad)),
            ("repair_after_s", lambda bad: DriveFailure("L0.D0", at_s=1.0, repair_after_s=bad)),
            ("mtbf_s", lambda bad: DriveFaultProcess(mtbf_s=bad, mttr_s=10.0)),
            ("mttr_s", lambda bad: DriveFaultProcess(mtbf_s=10.0, mttr_s=bad)),
            ("shape", lambda bad: DriveFaultProcess(
                mtbf_s=10.0, mttr_s=1.0, distribution="weibull", shape=bad)),
            ("at_s", lambda bad: RobotOutage(at_s=bad, duration_s=5.0)),
            ("duration_s", lambda bad: RobotOutage(at_s=10.0, duration_s=bad)),
            ("probability", lambda bad: TransientFaults(probability=bad)),
            ("at_s", lambda bad: TapeFailure("L0.T0", at_s=bad)),
            ("mean_cycles", lambda bad: TapeWearProcess(mean_cycles=bad)),
            ("shape", lambda bad: TapeWearProcess(mean_cycles=50.0, shape=bad)),
        ],
        ids=[
            "DriveFailure.at_s", "DriveFailure.repair_after_s",
            "DriveFaultProcess.mtbf_s", "DriveFaultProcess.mttr_s",
            "DriveFaultProcess.shape", "RobotOutage.at_s", "RobotOutage.duration_s",
            "TransientFaults.probability", "TapeFailure.at_s",
            "TapeWearProcess.mean_cycles", "TapeWearProcess.shape",
        ],
    )
    def test_non_finite_values_rejected(self, workload, spec, field, make, bad):
        # Every NaN comparison is false, so a bare `<= 0` bound let NaN in
        # (a NaN MTBF never ends a run); inf is no usable time or rate either.
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            _session(workload, spec).open(faults=(make(bad),))

    def test_legacy_map_becomes_one_shot_specs(self):
        specs = failures_to_specs({"L0.D1": 30.0, "L0.D0": 10.0})
        assert specs == (
            DriveFailure("L0.D0", at_s=10.0),
            DriveFailure("L0.D1", at_s=30.0),
        )

    def test_no_faults_run_reports_full_availability(self, workload, spec):
        result = simulate_open_system(_session(workload, spec), 30.0, 10, seed=1)
        assert result.faults == {}
        assert result.availability == 1.0
        assert result.degraded_time_s == 0.0
        assert result.aborted_requests == 0


# ---------------------------------------------------------------------------
# Repair: drives rejoin the pool and serve again
# ---------------------------------------------------------------------------


class TestRepair:
    @pytest.fixture(scope="class")
    def repaired(self, workload, spec):
        with pytest.MonkeyPatch.context() as monkeypatch:
            monkeypatch.delenv("REPRO_TRACE", raising=False)  # reads spans
            session = _session(workload, spec)
            osys = session.open(
                faults=(DriveFailure("L0.D0", at_s=400.0, repair_after_s=600.0),)
            )
            return session, osys.run(60.0, num_arrivals=40, seed=4)

    def test_all_requests_complete(self, repaired):
        _, result = repaired
        assert len(result) == 40
        assert result.aborted_requests == 0

    def test_repaired_drive_serves_again(self, repaired):
        """Span evidence: the drive does real work after its repair."""
        _, result = repaired
        after_repair = [
            s
            for s in result.spans()
            if s.attrs.get("drive") == "L0.D0"
            and s.start > 1000.0
            and s.name in ("tape_job", "seek", "transfer", "load")
        ]
        assert after_repair

    def test_downtime_interval_recorded(self, repaired):
        _, result = repaired
        down = [s for s in result.spans() if s.name == "fault_drive_down"]
        assert len(down) == 1
        assert down[0].start == pytest.approx(400.0)
        assert down[0].end == pytest.approx(1000.0)
        assert down[0].attrs["drive"] == "L0.D0"

    def test_availability_books_match_the_interval(self, repaired):
        _, result = repaired
        total_drives = 8  # 2 libraries x 4 drives
        expected = 1.0 - 600.0 / (result.horizon_s * total_drives)
        assert result.availability == pytest.approx(expected)
        assert result.degraded_time_s == pytest.approx(600.0)
        assert result.faults["drive_failures"] == 1
        assert result.faults["drive_repairs"] == 1

    def test_drive_healthy_at_end(self, repaired):
        session, _ = repaired
        drive = session.system.libraries[0].drives[0]
        assert not drive.failed

    def test_pinned_drive_restores_home_tape(self, workload, spec):
        """Degraded parallel-batch mode ends: the repaired pinned drive
        remounts its batch-0 home tape (restore-on-repair)."""
        session = _session(workload, spec)
        drive = session.system.libraries[0].drives[0]
        assert drive.pinned and drive.mounted is not None
        home = drive.mounted.id
        osys = session.open(
            faults=(DriveFailure(str(drive.id), at_s=400.0, repair_after_s=600.0),)
        )
        result = osys.run(60.0, num_arrivals=40, seed=5)
        assert len(result) == 40
        assert not drive.failed
        assert drive.mounted is not None and drive.mounted.id == home


# ---------------------------------------------------------------------------
# All drives failed: aborted completion, never a hang (satellite bugfix)
# ---------------------------------------------------------------------------


class TestAbortedRequests:
    @pytest.fixture(scope="class")
    def all_dead(self, workload):
        with pytest.MonkeyPatch.context() as monkeypatch:
            monkeypatch.delenv("REPRO_TRACE", raising=False)  # reads spans
            spec = _spec(num_libraries=1, num_drives=2)
            session = SimulationSession(
                workload, spec, scheme=ObjectProbabilityPlacement()
            )
            faults = tuple(
                DriveFailure(str(d.id), at_s=50.0)
                for d in session.system.libraries[0].drives
            )
            result = session.open(faults=faults).run(60.0, num_arrivals=15, seed=3)
            return result

    def test_terminates_with_aborted_requests(self, all_dead):
        """The environment drains; requests fail instead of waiting forever."""
        assert len(all_dead) == 15
        assert all_dead.aborted_requests > 0

    def test_aborted_flag_propagates_everywhere(self, all_dead):
        aborted = [r for r in all_dead.records if r.aborted]
        assert len(aborted) == all_dead.aborted_requests
        for record, metrics in zip(all_dead.records, all_dead.metrics):
            assert metrics.aborted == record.aborted
            if record.aborted:
                assert metrics.response_s == pytest.approx(
                    record.sojourn_s, abs=1e-9
                )
        counter = all_dead.registry.counters["requests.aborted"]
        assert counter.value == all_dead.aborted_requests

    def test_aborted_tape_job_spans_tagged(self, all_dead):
        tagged = [
            s
            for s in all_dead.spans()
            if s.name == "tape_job" and s.attrs.get("aborted")
        ]
        assert tagged
        for span in tagged:
            assert "all drives failed" in span.attrs["error"]

    def test_availability_reflects_the_outage(self, all_dead):
        assert 0.0 < all_dead.availability < 1.0

    def test_submit_into_dead_library_aborts_immediately(self, workload):
        """Requests arriving after the last drive died fail on admission."""
        spec = _spec(num_libraries=1, num_drives=2)
        session = SimulationSession(
            workload, spec, scheme=ObjectProbabilityPlacement()
        )
        faults = tuple(
            DriveFailure(str(d.id), at_s=1.0)
            for d in session.system.libraries[0].drives
        )
        result = session.open(faults=faults).run(10.0, num_arrivals=5, seed=0)
        assert len(result) == 5
        assert result.aborted_requests == 5

    def test_pending_repair_prevents_the_abort(self, workload):
        """Same outage, but one drive has a committed repair: queued jobs
        wait it out and complete instead of aborting."""
        spec = _spec(num_libraries=1, num_drives=2)
        session = SimulationSession(
            workload, spec, scheme=ObjectProbabilityPlacement()
        )
        drives = [str(d.id) for d in session.system.libraries[0].drives]
        faults = (
            DriveFailure(drives[0], at_s=50.0),
            DriveFailure(drives[1], at_s=50.0, repair_after_s=300.0),
        )
        result = session.open(faults=faults).run(60.0, num_arrivals=10, seed=3)
        assert len(result) == 10
        assert result.aborted_requests == 0


# ---------------------------------------------------------------------------
# Rescue-path edge cases
# ---------------------------------------------------------------------------


class TestRescueEdgeCases:
    def _tight_session(self):
        """A switch-heavy setup: tapes too small to hold the hot set, so
        every drive regularly exchanges cartridges."""
        return SimulationSession(
            _workload(object_size_bounds_mb=(10.0, 300.0)),
            _spec(tape_capacity_mb=2_500.0),
            scheme=ObjectProbabilityPlacement(),
        )

    def _healthy_spans(self, seed=4):
        result = simulate_open_system(
            self._tight_session(), 120.0, num_arrivals=20, seed=seed
        )
        return result.spans()

    def _run_with_failure(self, at_s, repair_after_s=None, seed=4, drive="L0.D0"):
        session = self._tight_session()
        result = session.open(
            faults=(DriveFailure(drive, at_s=at_s, repair_after_s=repair_after_s),)
        ).run(120.0, num_arrivals=20, seed=seed)
        return session, result

    def test_failure_mid_switch(self, monkeypatch):
        """Fail a drive exactly in the middle of one of its exchanges
        (timing up to the failure instant matches the healthy run, so the
        interrupt deterministically lands mid-switch)."""
        monkeypatch.delenv("REPRO_TRACE", raising=False)  # reads spans
        switches = [
            s
            for s in self._healthy_spans()
            if s.name in ("robot_exchange", "robot_fetch", "load", "unload")
            and str(s.attrs.get("drive", "")).startswith("L0.")
        ]
        assert switches, "healthy run never switched in library 0"
        target = switches[len(switches) // 2]
        drive_name = str(target.attrs["drive"])
        session, result = self._run_with_failure(
            drive=drive_name, at_s=(target.start + target.end) / 2
        )
        assert len(result) == 20
        assert result.aborted_requests == 0
        failed = session.system.libraries[0].drives[
            int(drive_name.split(".D")[1])
        ]
        assert failed.failed
        # The cartridge went back to its cell, not stuck in the dead drive.
        assert failed.mounted is None

    def test_failure_between_dispatch_and_pickup(self, monkeypatch):
        """Fail the drive inside a job's dispatch-wait window (assigned but
        not yet started); the job must be rescued by the survivors."""
        monkeypatch.delenv("REPRO_TRACE", raising=False)  # reads spans
        waits = [
            s
            for s in self._healthy_spans()
            if s.name == "dispatch_wait"
            and str(s.attrs.get("drive", "")).startswith("L0.")
        ]
        assert waits, "healthy run had no dispatch waits in library 0"
        target = max(waits, key=lambda s: s.end - s.start)
        _, result = self._run_with_failure(
            drive=str(target.attrs["drive"]),
            at_s=(target.start + target.end) / 2,
        )
        assert len(result) == 20
        assert result.aborted_requests == 0

    def test_simultaneous_failures_one_library(self, workload, spec):
        """Two drives of one library die at the same instant; the two
        survivors (one of them pinned, forcing degraded mode for offline
        tapes) still finish every request."""
        session = _session(workload, spec)
        result = session.open(
            faults=(
                DriveFailure("L0.D0", at_s=500.0),
                DriveFailure("L0.D1", at_s=500.0),
                DriveFailure("L0.D2", at_s=500.0),
            )
        ).run(120.0, num_arrivals=20, seed=4)
        assert len(result) == 20
        assert result.aborted_requests == 0
        failed = [d for d in session.system.libraries[0].drives if d.failed]
        assert len(failed) == 3

    def test_double_failure_same_drive_same_instant(self, workload, spec):
        """Two specs hitting one drive at the same time fail it once; the
        repair belonging to the loser must not resurrect it."""
        session = _session(workload, spec)
        result = session.open(
            faults=(
                DriveFailure("L0.D0", at_s=500.0),
                DriveFaultProcess(mtbf_s=500.0, mttr_s=100.0, drives=("L0.D0",)),
            ),
            fault_seed=1,
        ).run(120.0, num_arrivals=20, seed=4)
        assert len(result) == 20
        assert result.faults["drive_failures"] >= 1
        # Books stay balanced: every repair matches a failure we caused.
        assert result.faults["drive_repairs"] <= result.faults["drive_failures"]

    def test_repair_races_pending_rescue(self, workload, spec):
        """A quick repair lands while the failed drive's orphaned job is
        still queued for rescue; both the repaired drive and the survivors
        may serve it, and nothing is served twice."""
        healthy = simulate_open_system(
            _session(workload, spec), 120.0, num_arrivals=20, seed=4
        )
        session = _session(workload, spec)
        result = session.open(
            faults=(
                DriveFailure(
                    "L0.D0", at_s=healthy.horizon_s / 4, repair_after_s=10.0
                ),
            )
        ).run(120.0, num_arrivals=20, seed=4)
        assert len(result) == 20
        assert result.aborted_requests == 0
        assert sum(m.size_mb for m in result.metrics) == pytest.approx(
            sum(m.size_mb for m in healthy.metrics)
        )
        assert not session.system.libraries[0].drives[0].failed


# ---------------------------------------------------------------------------
# Transient errors: retry with backoff, then escalation
# ---------------------------------------------------------------------------


class TestTransientFaults:
    def test_retries_recorded_with_backoff_spans(self, workload, spec, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE", raising=False)  # reads spans
        retry = RetryPolicy(max_retries=6, base_delay_s=3.0, multiplier=2.0, max_delay_s=48.0)
        session = _session(workload, spec)
        result = session.open(
            faults=(TransientFaults(probability=0.3, retry=retry),),
            fault_seed=11,
        ).run(60.0, num_arrivals=15, seed=2)
        assert len(result) == 15
        assert result.faults["transient_errors"] > 0
        assert result.faults["retries"] == result.faults["transient_errors"]
        assert result.faults["escalations"] == 0
        backoffs = [s for s in result.spans() if s.name == "fault_transient"]
        assert len(backoffs) == result.faults["retries"]
        for span in backoffs:
            attempt = span.attrs["attempt"]
            assert span.end - span.start == pytest.approx(retry.delay_s(attempt))
            assert span.attrs["operation"] in ("mount", "read")

    def test_exhausted_retries_escalate_to_hard_failure(self, workload):
        """probability=1.0 exhausts every retry budget: drives escalate to
        permanent hard failures and the stream ends aborted, not hung."""
        spec = _spec(num_libraries=1, num_drives=2)
        session = SimulationSession(
            workload, spec, scheme=ObjectProbabilityPlacement()
        )
        result = session.open(
            faults=(
                TransientFaults(
                    probability=1.0,
                    retry=RetryPolicy(max_retries=2, base_delay_s=1.0),
                ),
            ),
            fault_seed=5,
        ).run(60.0, num_arrivals=10, seed=1)
        assert len(result) == 10
        assert result.faults["escalations"] == 2  # both drives died
        assert result.aborted_requests > 0
        assert all(d.failed for d in session.system.libraries[0].drives)

    def test_zero_probability_changes_nothing(self, workload, spec):
        baseline = simulate_open_system(
            _session(workload, spec), 60.0, num_arrivals=15, seed=2
        )
        gated = _session(workload, spec).open(
            faults=(TransientFaults(probability=0.0),)
        ).run(60.0, num_arrivals=15, seed=2)
        assert [r.finish_s for r in gated.records] == [
            r.finish_s for r in baseline.records
        ]
        assert gated.faults["transient_errors"] == 0


# ---------------------------------------------------------------------------
# Robot outages
# ---------------------------------------------------------------------------


class TestRobotOutage:
    def test_outage_stalls_exchanges_library_wide(self, workload, spec, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE", raising=False)  # reads spans
        baseline = simulate_open_system(
            _session(workload, spec), 120.0, num_arrivals=20, seed=4
        )
        result = _session(workload, spec).open(
            faults=(RobotOutage(at_s=300.0, duration_s=1800.0, library=0),)
        ).run(120.0, num_arrivals=20, seed=4)
        assert len(result) == 20
        assert result.faults["robot_outages"] == 1
        outages = [s for s in result.spans() if s.name == "fault_robot_outage"]
        assert len(outages) == 1
        assert outages[0].end - outages[0].start == pytest.approx(1800.0)
        assert outages[0].attrs["library"] == 0
        # Exchanges stalled behind the jam: the stream cannot finish faster.
        assert result.mean_sojourn_s >= baseline.mean_sojourn_s

    def test_outage_without_library_jams_all_arms(self, workload, spec, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE", raising=False)  # reads spans
        result = _session(workload, spec).open(
            faults=(RobotOutage(at_s=300.0, duration_s=600.0),)
        ).run(120.0, num_arrivals=20, seed=4)
        outages = [s for s in result.spans() if s.name == "fault_robot_outage"]
        assert {s.attrs["library"] for s in outages} == {0, 1}


# ---------------------------------------------------------------------------
# Stochastic fail/repair processes: distributions and determinism
# ---------------------------------------------------------------------------


class TestChaosRuns:
    def _chaos(self, workload, spec, distribution="exponential", shape=1.0, fault_seed=7):
        session = _session(workload, spec)
        return session.open(
            faults=(
                DriveFaultProcess(
                    mtbf_s=1500.0,
                    mttr_s=300.0,
                    distribution=distribution,
                    shape=shape,
                ),
            ),
            fault_seed=fault_seed,
        ).run(60.0, num_arrivals=25, seed=1)

    def test_chaos_run_completes_with_recoveries(self, workload, spec):
        result = self._chaos(workload, spec)
        assert len(result) == 25
        assert result.faults["drive_failures"] > 0
        assert result.faults["drive_repairs"] > 0
        assert 0.0 < result.availability <= 1.0

    def test_bit_identical_across_reruns(self, workload, spec):
        a = self._chaos(workload, spec)
        b = self._chaos(workload, spec)
        assert [r.finish_s for r in a.records] == [r.finish_s for r in b.records]
        assert [r.aborted for r in a.records] == [r.aborted for r in b.records]
        assert a.faults == b.faults

    def test_fault_seed_decorrelates_fault_timing(self, workload, spec):
        a = self._chaos(workload, spec, fault_seed=7)
        b = self._chaos(workload, spec, fault_seed=8)
        assert [r.finish_s for r in a.records] != [r.finish_s for r in b.records]

    def test_weibull_chaos_runs(self, workload, spec):
        result = self._chaos(workload, spec, distribution="weibull", shape=1.5)
        assert len(result) == 25
        assert result.faults["drive_failures"] > 0

    def test_weibull_draws_have_the_configured_mean(self):
        rng = np.random.default_rng(0)
        draws = [_draw(rng, "weibull", 100.0, 1.5) for _ in range(4000)]
        assert np.mean(draws) == pytest.approx(100.0, rel=0.05)
        scale = 100.0 / math.gamma(1 + 1 / 1.5)
        assert max(draws) < scale * 10

    def test_recurring_processes_stand_down_and_rearm(self, workload, spec):
        """A continuation run re-arms the fault processes on the same
        substreams, and no drive leaks into it failed."""
        session = _session(workload, spec)
        osys = session.open(
            faults=(DriveFaultProcess(mtbf_s=1500.0, mttr_s=300.0),),
            fault_seed=7,
        )
        first = osys.run(60.0, num_arrivals=15, seed=1)
        assert all(
            not d.failed for lib in session.system.libraries for d in lib.drives
        )
        second = osys.run(60.0, num_arrivals=15, seed=2, reset=False)
        assert len(second) == 15
        assert second.faults["drive_failures"] >= first.faults["drive_failures"]

    def test_sweep_chaos_points_identical_across_worker_counts(self, workload):
        """The acceptance criterion: chaos results are bit-identical for
        any worker count (per-point fault seeds derive from point seeds)."""
        from repro.experiments import EngineOptions, PointSpec, SweepSpec, run_sweep
        from repro.workload import WorkloadParams

        params = WorkloadParams(
            num_objects=300,
            num_requests=20,
            request_size_bounds=(4, 8),
            object_size_bounds_mb=(10.0, 300.0),
            mean_object_size_mb=100.0,
            seed=13,
        )
        points = tuple(
            PointSpec(
                sweep="chaos-smoke",
                axis="mtbf_h",
                value=mtbf,
                scheme="parallel_batch",
                scheme_kwargs=(("m", 2),),
                workload=params,
                spec=_spec(),
                kind="chaos",
                run_kwargs=(
                    ("mtbf_h", mtbf),
                    ("mttr_h", 0.1),
                    ("num_arrivals", 10),
                    ("policy", "concurrent"),
                    ("rate_per_hour", 30.0),
                ),
            )
            for mtbf in (0.5, 2.0)
        )
        spec_obj = SweepSpec(name="chaos-smoke", points=points, root_seed=3)
        serial = run_sweep(spec_obj, EngineOptions(workers=1))
        fanned = run_sweep(spec_obj, EngineOptions(workers=2))
        for a, b in zip(serial, fanned):
            assert [r.finish_s for r in a.result.records] == [
                r.finish_s for r in b.result.records
            ]
            assert a.result.faults == b.result.faults


# ---------------------------------------------------------------------------
# The injector's bookkeeping
# ---------------------------------------------------------------------------


class TestInjectorAccounting:
    def test_summary_without_downtime(self, workload, spec):
        """Armed-but-idle faults (astronomical MTBF): perfect availability,
        and the recurring processes stand down when the stream drains."""
        session = _session(workload, spec)
        osys = session.open(
            faults=(DriveFaultProcess(mtbf_s=1e12, mttr_s=10.0),), fault_seed=0
        )
        result = osys.run(60.0, num_arrivals=5, seed=1)
        assert result.availability == 1.0
        assert result.faults["drive_failures"] == 0
        assert result.faults["downtime_s"] == 0.0

    def test_injector_requires_concurrent_dispatchers(self, workload, spec):
        session = _session(workload, spec)
        osys = session.open(faults=(DriveFailure("L0.D0", at_s=100.0),))
        assert isinstance(osys.injector, FaultInjector)
        assert osys.injector.specs == (DriveFailure("L0.D0", at_s=100.0),)

    def test_open_interval_folded_at_horizon(self, workload, spec, monkeypatch):
        """A permanently dead drive's downtime is charged up to the horizon
        (open interval folded in finalize())."""
        monkeypatch.delenv("REPRO_TRACE", raising=False)  # reads spans
        session = _session(workload, spec)
        result = session.open(
            faults=(DriveFailure("L0.D0", at_s=100.0),)
        ).run(60.0, num_arrivals=10, seed=1)
        expected_down = result.horizon_s - 100.0
        assert result.faults["downtime_s"] == pytest.approx(expected_down)
        down = [s for s in result.spans() if s.name == "fault_drive_down"]
        assert len(down) == 1
        assert down[0].attrs.get("open") is True


# ---------------------------------------------------------------------------
# Redundancy x faults: choice-of-d fallback across failed drives
# ---------------------------------------------------------------------------


class TestRedundantFaultInteraction:
    """r=2 turns whole-library outages into fallbacks, not aborts.

    With one replica's library dead, every request must complete via the
    surviving copy; with *every* member dead, the request aborts exactly
    as a non-redundant run would.
    """

    def _session(self, workload, redundancy=None):
        from repro.redundancy import wrap_scheme

        scheme = ObjectProbabilityPlacement()
        if redundancy:
            scheme = wrap_scheme(scheme, redundancy)
        return SimulationSession(workload, _spec(num_drives=2), scheme=scheme)

    def _kill_library(self, session, library, at_s=1.0):
        return tuple(
            DriveFailure(str(d.id), at_s=at_s)
            for d in session.system.libraries[library].drives
        )

    def test_one_dead_replica_library_completes_unaborted(self, workload):
        session = self._session(workload, "r=2")
        faults = self._kill_library(session, 0)
        result = session.open(faults=faults).run(60.0, num_arrivals=15, seed=3)
        assert len(result) == 15
        assert result.aborted_requests == 0
        counters = result.registry.counters
        assert counters["redundancy.requests"].value == 15
        assert counters["redundancy.fallbacks"].value > 0
        assert counters["redundancy.unservable"].value == 0

    def test_same_outage_aborts_without_redundancy(self, workload):
        """The control: the base scheme under the identical outage loses
        requests — completing them above is the redundancy layer's doing."""
        session = self._session(workload)
        faults = self._kill_library(session, 0)
        result = session.open(faults=faults).run(60.0, num_arrivals=15, seed=3)
        assert result.aborted_requests > 0

    def test_all_replicas_dead_aborts_like_today(self, workload):
        base = self._session(workload)
        base_result = base.open(
            faults=self._kill_library(base, 0) + self._kill_library(base, 1)
        ).run(60.0, num_arrivals=15, seed=3)

        session = self._session(workload, "r=2")
        faults = self._kill_library(session, 0) + self._kill_library(session, 1)
        result = session.open(faults=faults).run(60.0, num_arrivals=15, seed=3)
        assert len(result) == 15
        assert result.aborted_requests == base_result.aborted_requests
        assert result.aborted_requests == 15
        assert result.registry.counters["redundancy.unservable"].value > 0

    def test_fallback_digest_records_served_requests(self, workload):
        session = self._session(workload, "r=2")
        faults = self._kill_library(session, 0)
        result = session.open(faults=faults).run(60.0, num_arrivals=15, seed=3)
        digest = result.registry.digests["replica_fallbacks"]
        assert digest.count == 15

    def test_repaired_replica_rejoins_dispatch(self, workload):
        """A failed-then-repaired library is routable again: the run still
        completes everything with both member sets exercised."""
        session = self._session(workload, "r=2")
        faults = tuple(
            DriveFailure(str(d.id), at_s=50.0, repair_after_s=400.0)
            for d in session.system.libraries[0].drives
        )
        result = session.open(faults=faults).run(60.0, num_arrivals=15, seed=3)
        assert len(result) == 15
        assert result.aborted_requests == 0
