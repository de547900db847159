"""End-to-end integration tests: workload -> placement -> simulation."""

import pytest

from repro.hardware import DriveSpec, LibrarySpec, SystemSpec, TapeSpec
from repro.placement import (
    ClusterProbabilityPlacement,
    ObjectProbabilityPlacement,
    ParallelBatchPlacement,
)
from repro.sim import SimulationSession, evaluate_scheme
from repro.workload import generate_workload


@pytest.fixture(scope="module")
def spec():
    return SystemSpec(
        num_libraries=2,
        library=LibrarySpec(
            num_drives=4,
            num_tapes=12,
            cell_to_drive_s=2.0,
            drive=DriveSpec(transfer_rate_mb_s=10.0, load_s=5.0, unload_s=5.0),
            tape=TapeSpec(capacity_mb=10_000.0, max_rewind_s=10.0),
        ),
    )


@pytest.fixture(scope="module")
def workload(spec):
    return generate_workload(
        num_objects=500,
        num_requests=30,
        request_size_bounds=(6, 15),
        object_size_bounds_mb=(10.0, 800.0),
        mean_object_size_mb=150.0,
        zipf_alpha=0.3,
        seed=99,
    )


SCHEMES = [
    ParallelBatchPlacement(m=2),
    ObjectProbabilityPlacement(),
    ClusterProbabilityPlacement(),
]


@pytest.mark.parametrize("scheme", SCHEMES, ids=lambda s: s.name)
class TestEndToEnd:
    def test_evaluation_is_complete_and_positive(self, scheme, workload, spec):
        result = evaluate_scheme(workload, spec, scheme, num_samples=20, seed=1)
        assert len(result) == 20
        assert result.avg_response_s > 0
        assert result.avg_bandwidth_mb_s > 0
        assert result.avg_transfer_s > 0
        assert result.avg_switch_s >= -1e-9  # float noise around zero
        assert result.avg_seek_s >= 0

    def test_all_requested_bytes_are_transferred(self, scheme, workload, spec):
        session = SimulationSession(workload, spec, scheme=scheme)
        request = workload.requests[0]
        metrics = session.serve(request)
        assert metrics.size_mb == pytest.approx(request.total_size_mb(workload.catalog))

    def test_deterministic_given_seed(self, scheme, workload, spec):
        a = evaluate_scheme(workload, spec, scheme, num_samples=10, seed=7)
        b = evaluate_scheme(workload, spec, scheme, num_samples=10, seed=7)
        assert a.avg_response_s == pytest.approx(b.avg_response_s)
        assert a.avg_switch_s == pytest.approx(b.avg_switch_s)

    def test_response_bounded_below_by_transfer_limit(self, scheme, workload, spec):
        """No request can beat (size / aggregate drive bandwidth)."""
        session = SimulationSession(workload, spec, scheme=scheme)
        for request in list(workload.requests)[:5]:
            m = session.serve(request)
            lower = m.size_mb / spec.aggregate_transfer_rate_mb_s
            assert m.response_s >= lower - 1e-9

    def test_switch_time_nonnegative(self, scheme, workload, spec):
        result = evaluate_scheme(workload, spec, scheme, num_samples=30, seed=3)
        for m in result.samples:
            assert m.switch_s >= -1e-9


class TestSessionMechanics:
    def test_requires_exactly_one_of_scheme_or_placement(self, workload, spec):
        with pytest.raises(ValueError):
            SimulationSession(workload, spec)
        scheme = ParallelBatchPlacement(m=2)
        placement = scheme.place(workload, spec)
        with pytest.raises(ValueError):
            SimulationSession(workload, spec, scheme=scheme, placement=placement)

    @pytest.mark.parametrize("policy", ["concurrent", "serial-fcfs"])
    def test_unknown_replacement_policy_rejected_at_construction(
        self, workload, spec, policy
    ):
        """Not only ``evaluate``: an open system that never displaces a tape
        would otherwise run to completion under a misspelled policy."""
        placement = ParallelBatchPlacement(m=2).place(workload, spec)
        with pytest.raises(
            ValueError,
            match="unknown replacement policy 'yolo'; known: least_popular, "
            "most_popular, newest_mount, oldest_mount, slot_order",
        ):
            SimulationSession(
                workload, spec, placement=placement, replacement_policy="yolo"
            ).open(policy=policy).run(60.0, num_arrivals=2, seed=1)

    def test_precomputed_placement_accepted(self, workload, spec):
        placement = ParallelBatchPlacement(m=2).place(workload, spec)
        session = SimulationSession(workload, spec, placement=placement)
        assert session.scheme_name == "parallel_batch"

    def test_reset_restores_initial_state(self, workload, spec):
        session = SimulationSession(workload, spec, scheme=ParallelBatchPlacement(m=2))
        request = workload.requests[0]
        first = session.serve(request)
        session.serve(workload.requests[1])
        session.reset()
        again = session.serve(request)
        assert again.response_s == pytest.approx(first.response_s)

    def test_caching_effect_of_persistent_state(self, workload, spec):
        """Re-serving the same request immediately is never slower."""
        session = SimulationSession(workload, spec, scheme=ObjectProbabilityPlacement())
        request = workload.requests[0]
        first = session.serve(request)
        second = session.serve(request)
        assert second.response_s <= first.response_s + 1e-9
        assert second.num_switches == 0

    def test_warmup_discards_samples(self, workload, spec):
        session = SimulationSession(workload, spec, scheme=ObjectProbabilityPlacement())
        result = session.evaluate(num_samples=5, warmup=3, seed=2)
        assert len(result) == 5

    def test_trace_collects_spans(self, workload, spec, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE", raising=False)  # reads spans
        session = SimulationSession(
            workload, spec, scheme=ObjectProbabilityPlacement(), trace=True
        )
        session.serve(workload.requests[0])
        assert len(session.trace.spans("transfer")) > 0

    def test_pinned_tapes_stay_mounted_through_evaluation(self, workload, spec):
        session = SimulationSession(workload, spec, scheme=ParallelBatchPlacement(m=2))
        pinned = set(session.placement.pinned)
        session.evaluate(num_samples=15, seed=5)
        mounted = set(session.system.mounted_tape_ids())
        assert pinned <= mounted
