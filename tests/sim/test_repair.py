"""Tests for the media-loss repair subsystem (`repro.sim.repair`).

ISSUE 9's acceptance properties, from four sides:

* **Durability with redundancy** — destroying a whole cartridge under
  r=2 (or k=2,n=3) loses nothing: every affected group is rebuilt to
  full redundancy before the horizon, on tapes honoring anti-affinity.
* **Durability without redundancy** — the same loss under r=1 is counted
  (``objects_lost``, finite durability) instead of crashing or hanging;
  requests touching lost objects abort.
* **Repair under concurrent faults** — rebuilds survive drive failures
  (resume on surviving drives) and robot outages (wait them out).
* **Parity** — media-fault-free runs register no ``repair.*``
  instruments and keep their results bit-identical.
"""

import pytest
from hypothesis import given, settings as hyp_settings
from hypothesis import strategies as st

from repro.hardware import DriveSpec, LibrarySpec, SystemSpec, TapeSpec
from repro.placement import ObjectProbabilityPlacement, ParallelBatchPlacement
from repro.redundancy import wrap_scheme
from repro.sim import (
    REPAIR_POLICIES,
    DriveFailure,
    RobotOutage,
    SimulationSession,
    TapeFailure,
    TapeWearProcess,
)
from repro.workload import generate_workload


def _workload(**overrides):
    params = dict(
        num_objects=300,
        num_requests=20,
        request_size_bounds=(4, 10),
        object_size_bounds_mb=(10.0, 400.0),
        mean_object_size_mb=100.0,
        seed=21,
    )
    params.update(overrides)
    return generate_workload(**params)


def _spec(num_drives=4, num_tapes=12, num_libraries=2, tape_capacity_mb=50_000.0):
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


def _session(workload, redundancy=None, scheme=None):
    base = scheme or ObjectProbabilityPlacement()
    if redundancy:
        base = wrap_scheme(base, redundancy)
    return SimulationSession(workload, _spec(), scheme=base)


def _busiest_tape(session):
    return max(session.system.all_tapes(), key=lambda t: (t.used_mb, t.id))


@pytest.fixture(scope="module")
def workload():
    return _workload()


def _assert_anti_affinity(index, num_objects):
    """No tape holds two members of the same (object, part) group."""
    for oid in range(num_objects):
        if oid not in index:
            continue
        seen = {}
        for tape_id, extent in index.locate_all(oid):
            key = (extent.part, tape_id)
            assert key not in seen, (
                f"object {oid} part {extent.part} has two members on {tape_id}"
            )
            seen[key] = extent


# ---------------------------------------------------------------------------
# Media loss with redundancy: everything rebuilds
# ---------------------------------------------------------------------------


class TestRepairWithRedundancy:
    @pytest.fixture(scope="class", params=sorted(REPAIR_POLICIES))
    def r2_run(self, request):
        workload = _workload()
        session = _session(workload, "r=2")
        tape = _busiest_tape(session)
        osys = session.open(
            faults=(TapeFailure(str(tape.id), at_s=300.0),),
            repair_policy=request.param,
        )
        result = osys.run(120.0, num_arrivals=20, seed=3)
        return session, tape, result

    def test_zero_objects_lost(self, r2_run):
        _, tape, result = r2_run
        assert len(tape) > 0
        assert result.faults["tape_losses"] == 1
        assert result.objects_lost == 0
        assert result.durability == 1.0

    def test_every_group_back_to_full_redundancy(self, r2_run):
        session, tape, result = r2_run
        assert result.repair["members_rebuilt"] == len(tape)
        assert result.repair["groups_at_risk"] == 0
        assert result.repair["repairs_failed"] == 0
        index = session.index
        for oid in tape.object_ids:
            assert index.is_complete(oid)
            # The rebuilt member must not live on the dead cartridge.
            assert tape.id not in index.tapes_of(oid)

    def test_rebuilt_members_honor_anti_affinity(self, r2_run):
        session, _, _ = r2_run
        _assert_anti_affinity(session.index, 300)

    def test_backlog_and_gauge_accounting(self, r2_run):
        _, _, result = r2_run
        assert result.repair_backlog_seconds > 0
        gauge = result.registry.gauges["repair.groups_at_risk"]
        assert gauge.value == 0
        digest = result.registry.digests["repair.backlog_s"]
        assert digest.count == result.repair["members_rebuilt"]

    def test_requests_keep_completing(self, r2_run):
        _, _, result = r2_run
        assert len(result) == 20
        assert result.aborted_requests == 0

    def test_erasure_coded_rebuild(self, workload):
        session = _session(workload, "k=2,n=3")
        tape = _busiest_tape(session)
        result = session.open(
            faults=(TapeFailure(str(tape.id), at_s=300.0),),
            repair_policy="fair-share",
        ).run(120.0, num_arrivals=20, seed=3)
        assert result.objects_lost == 0
        assert result.repair["members_rebuilt"] == len(tape)
        for oid in tape.object_ids:
            assert session.index.is_complete(oid)

    def test_deterministic_for_fixed_seeds(self, workload):
        def run():
            session = _session(workload, "r=2")
            tape = _busiest_tape(session)
            osys = session.open(
                faults=(TapeFailure(str(tape.id), at_s=300.0),),
                repair_policy="fair-share",
            )
            result = osys.run(120.0, num_arrivals=15, seed=5)
            return (
                result.mean_sojourn_s,
                result.repair["members_rebuilt"],
                result.repair["backlog_s"],
                osys.env.events_processed,
            )

        assert run() == run()


# ---------------------------------------------------------------------------
# Media loss without redundancy: counted, not crashed
# ---------------------------------------------------------------------------


class TestMediaLossWithoutRedundancy:
    @pytest.fixture(scope="class")
    def r1_run(self):
        with pytest.MonkeyPatch.context() as monkeypatch:
            monkeypatch.delenv("REPRO_TRACE", raising=False)  # reads spans
            workload = _workload()
            session = _session(workload)
            tape = _busiest_tape(session)
            result = session.open(
                faults=(TapeFailure(str(tape.id), at_s=100.0),),
            ).run(120.0, num_arrivals=20, seed=3)
            return session, tape, result

    def test_objects_lost_counted(self, r1_run):
        _, tape, result = r1_run
        assert result.objects_lost == len(tape) > 0
        assert result.durability == pytest.approx(
            1.0 - len(tape) / result.repair["objects_total"]
        )
        assert result.repair["members_rebuilt"] == 0
        assert result.repair["groups_lost"] == len(tape)

    def test_run_terminates_and_serves_survivors(self, r1_run):
        _, _, result = r1_run
        assert len(result) == 20
        assert result.aborted_requests < 20

    def test_requests_on_lost_tape_abort(self, r1_run):
        _, _, result = r1_run
        aborted = [r for r in result.records if r.aborted]
        assert aborted
        assert len(aborted) == result.aborted_requests
        # The abort reason names the media failure, not a drive outage.
        errors = [
            str(s.attrs.get("error", ""))
            for s in result.spans()
            if s.attrs.get("error")
        ]
        assert any("media failure" in e for e in errors)


# ---------------------------------------------------------------------------
# Wear-driven losses
# ---------------------------------------------------------------------------


class TestTapeWear:
    def test_wear_cascade_terminates_with_consistent_books(self, workload):
        """Mean 2 mount/seek cycles wears out the whole fleet — rebuild
        targets included.  The cascade must terminate (no hang) with every
        loss counted, not silently rebuild onto dead media."""
        session = _session(workload, "r=2")
        result = session.open(
            faults=(TapeWearProcess(mean_cycles=2.0, shape=2.0),),
            repair_policy="user-first",
            fault_seed=7,
        ).run(120.0, num_arrivals=20, seed=3)
        assert result.faults["tape_losses"] > 0
        assert len(result) == 20
        assert 0.0 <= result.durability <= 1.0
        summary = result.repair
        assert summary["objects_lost"] == summary["groups_lost"]
        # Every detected degradation is resolved or accounted at the
        # horizon: rebuilt, failed, or still at risk.
        assert summary["groups_degraded"] >= (
            summary["members_rebuilt"] + summary["repairs_failed"]
        ) - summary["groups_at_risk"]

    def test_wear_is_deterministic_in_fault_seed(self, workload):
        def losses(fault_seed):
            session = _session(workload, "r=2")
            osys = session.open(
                faults=(TapeWearProcess(mean_cycles=3.0),),
                repair_policy="user-first",
                fault_seed=fault_seed,
            )
            result = osys.run(120.0, num_arrivals=15, seed=3)
            return result.faults["tape_losses"], osys.env.events_processed

        assert losses(7) == losses(7)

    def test_astronomical_wear_threshold_is_inert(self, workload):
        session = _session(workload, "r=2")
        result = session.open(
            faults=(TapeWearProcess(mean_cycles=1e12),),
        ).run(120.0, num_arrivals=10, seed=3)
        assert result.faults["tape_losses"] == 0
        assert result.repair == {} or result.repair["members_rebuilt"] == 0


# ---------------------------------------------------------------------------
# Repair under concurrent faults
# ---------------------------------------------------------------------------


class TestRepairUnderFaults:
    def test_repair_resumes_after_drive_failure(self, workload):
        """A drive dies while rebuilds are in flight: orphaned repair jobs
        re-queue and finish on the surviving drives."""
        session = _session(workload, "r=2")
        tape = _busiest_tape(session)
        dead_drive = session.system.libraries[tape.id.library].drives[0]
        result = session.open(
            faults=(
                TapeFailure(str(tape.id), at_s=300.0),
                DriveFailure(str(dead_drive.id), at_s=320.0),
            ),
            repair_policy="repair-first",
        ).run(120.0, num_arrivals=20, seed=3)
        assert result.faults["drive_failures"] == 1
        assert result.objects_lost == 0
        assert result.repair["members_rebuilt"] == len(tape)
        for oid in tape.object_ids:
            assert session.index.is_complete(oid)

    def test_repair_waits_out_robot_outage(self, workload):
        """Loss during a robot outage: rebuild mounts wait for the robot
        and complete after it recovers."""
        session = _session(workload, "r=2")
        tape = _busiest_tape(session)
        result = session.open(
            faults=(
                TapeFailure(str(tape.id), at_s=300.0),
                RobotOutage(at_s=250.0, duration_s=600.0),
            ),
            repair_policy="fair-share",
        ).run(120.0, num_arrivals=20, seed=3)
        # One outage per library (the spec targets all of them).
        assert result.faults["robot_outages"] == 2
        assert result.objects_lost == 0
        assert result.repair["members_rebuilt"] == len(tape)


# ---------------------------------------------------------------------------
# Anti-affinity property across random loss scenarios
# ---------------------------------------------------------------------------


@given(
    tape_index=st.integers(min_value=0, max_value=23),
    policy=st.sampled_from(sorted(REPAIR_POLICIES)),
    seed=st.integers(min_value=0, max_value=3),
)
@hyp_settings(max_examples=8, deadline=None)
def test_rebuilt_member_never_lands_on_sibling_tape(tape_index, policy, seed):
    """Whatever cartridge dies and whatever repair policy runs, a rebuilt
    member never shares a tape with another member of its group."""
    workload = _workload(num_objects=120, num_requests=10)
    session = _session(workload, "r=2", scheme=ParallelBatchPlacement(m=2))
    tapes = sorted(session.system.all_tapes(), key=lambda t: t.id)
    tape = tapes[tape_index % len(tapes)]
    result = session.open(
        faults=(TapeFailure(str(tape.id), at_s=120.0),),
        repair_policy=policy,
    ).run(120.0, num_arrivals=10, seed=seed)
    assert result.objects_lost == 0
    _assert_anti_affinity(session.index, 120)
    for oid in tape.object_ids:
        assert tape.id not in session.index.tapes_of(oid)


# ---------------------------------------------------------------------------
# Migration never targets a lost tape
# ---------------------------------------------------------------------------


class TestMigrationAvoidsLostTapes:
    def _placed(self, workload):
        scheme = ParallelBatchPlacement(m=2)
        spec = _spec()
        return scheme.place(workload, spec), spec

    def test_lost_tape_receives_nothing(self, workload):
        from repro.redundancy import migrate_by_popularity

        result, spec = self._placed(workload)
        lost = {tid for tid in sorted(result.layouts) if result.layouts[tid]}
        lost = {sorted(lost)[0], sorted(lost)[-1]}
        migrated, _ = migrate_by_popularity(
            result, workload, spec, num_epochs=3, lost_tapes=lost
        )
        for tid in lost:
            assert migrated.layouts[tid] == []

    def test_lost_objects_do_not_resurface(self, workload):
        from repro.redundancy import migrate_by_popularity

        result, spec = self._placed(workload)
        lost_tape = next(
            tid for tid in sorted(result.layouts) if result.layouts[tid]
        )
        lost_objects = {e.object_id for e in result.layouts[lost_tape]}
        migrated, _ = migrate_by_popularity(
            result, workload, spec, num_epochs=3, lost_tapes={lost_tape}
        )
        placed = {
            e.object_id for extents in migrated.layouts.values() for e in extents
        }
        assert not (placed & lost_objects)

    def test_no_lost_tapes_is_identical_to_default(self, workload):
        from repro.redundancy import migrate_by_popularity

        result, spec = self._placed(workload)
        a, _ = migrate_by_popularity(result, workload, spec, num_epochs=3)
        b, _ = migrate_by_popularity(
            result, workload, spec, num_epochs=3, lost_tapes=set()
        )
        assert a.layouts == b.layouts


# ---------------------------------------------------------------------------
# Validation and parity
# ---------------------------------------------------------------------------


class TestValidationAndParity:
    def test_unknown_repair_policy_rejected(self, workload):
        session = _session(workload, "r=2")
        with pytest.raises(ValueError, match="repair policy"):
            session.open(
                faults=(TapeFailure("L0.T0", at_s=1.0),),
                repair_policy="yolo",
            )

    def test_unknown_read_selection_rejected(self, workload):
        session = _session(workload, "r=2")
        with pytest.raises(ValueError, match="read selection"):
            session.open(read_selection="fastest")

    def test_unknown_tape_name_rejected_before_simulation(self, workload):
        session = _session(workload)
        with pytest.raises(ValueError, match="unknown tape"):
            session.open(faults=(TapeFailure("L9.T99", at_s=1.0),))

    def test_negative_loss_time_rejected(self, workload):
        session = _session(workload)
        with pytest.raises(ValueError, match="must be >= 0"):
            session.open(faults=(TapeFailure("L0.T0", at_s=-1.0),))

    def test_wear_spec_validation(self, workload):
        session = _session(workload)
        with pytest.raises(ValueError):
            session.open(faults=(TapeWearProcess(mean_cycles=0.0),))
        with pytest.raises(ValueError, match="unknown tape"):
            session.open(
                faults=(TapeWearProcess(mean_cycles=5.0, tapes=("L9.T99",)),)
            )

    def test_serial_fcfs_rejects_media_faults(self, workload):
        session = _session(workload)
        with pytest.raises(ValueError):
            session.open(
                policy="serial-fcfs",
                faults=(TapeFailure("L0.T0", at_s=1.0),),
            )

    def test_no_media_faults_registers_no_repair_instruments(self, workload):
        session = _session(workload, "r=2")
        result = session.open(repair_policy="fair-share").run(
            120.0, num_arrivals=10, seed=3
        )
        assert result.repair == {}
        assert result.durability == 1.0
        assert result.objects_lost == 0
        registry = result.registry
        assert not any(k.startswith("repair.") for k in registry.counters)
        assert "faults.tape_losses" not in registry.counters

    def test_cheapest_read_selection_serves_everything(self, workload):
        session = _session(workload, "r=2")
        result = session.open(read_selection="cheapest").run(
            120.0, num_arrivals=20, seed=3
        )
        assert len(result) == 20
        assert result.aborted_requests == 0
