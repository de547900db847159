"""Sharded-run parity: ``shard_workers=N`` must match ``shard_workers=1``.

The sharding layer (:mod:`repro.sim.sharding`) claims per-library event
streams are identical between a single environment and per-library
shards whenever no cross-shard coupling exists.  These tests hold it to
that: every result surface — per-request records and metrics, latency
digest state (bit for bit, including the float ``sum``), the span
multiset, per-library resource summaries, counters — must be *equal*,
not approximately equal.  Unshardable configurations must warn and fall
back to the single-environment result, also exactly.

Wall-clock speedup is deliberately not asserted here (this is a tier-1
correctness suite; the ≥4-core-gated speedup assertion lives in
``benchmarks/bench_kernel.py``'s scale gate).
"""

import warnings

import pytest

from repro.hardware import DriveSpec, LibrarySpec, SystemSpec, TapeSpec
from repro.placement import ObjectProbabilityPlacement
from repro.sim import SimulationSession
from repro.sim.faults import DriveFaultProcess
from repro.sim.scheduling import partition_libraries
from repro.sim.sharding import shard_blockers
from repro.workload import generate_workload

RATE = 240.0
ARRIVALS = 40
SEED = 11


def _session(num_libraries=4, disk_bandwidth_mb_s=None):
    """Drive-starved multi-library system: small tapes force switches and
    robot contention inside every shard."""
    workload = generate_workload(
        num_objects=600,
        num_requests=25,
        request_size_bounds=(20, 40),
        object_size_bounds_mb=(10.0, 500.0),
        mean_object_size_mb=None,
        seed=21,
    )
    spec = SystemSpec(
        num_libraries=num_libraries,
        disk_bandwidth_mb_s=disk_bandwidth_mb_s,
        library=LibrarySpec(
            num_drives=2,
            num_tapes=60,
            cell_to_drive_s=2.0,
            drive=DriveSpec(transfer_rate_mb_s=10.0, load_s=5.0, unload_s=5.0),
            tape=TapeSpec(capacity_mb=1_000.0, max_rewind_s=10.0),
        ),
    )
    return SimulationSession(workload, spec, scheme=ObjectProbabilityPlacement())


def _run(shard_workers, **open_kwargs):
    opensys = _session().open(policy="concurrent", shard_workers=shard_workers, **open_kwargs)
    return opensys.run(RATE, num_arrivals=ARRIVALS, seed=SEED)


def _record_tuples(result):
    return [
        (r.request_id, r.arrival_s, r.start_s, r.finish_s, r.size_mb, r.aborted)
        for r in result.records
    ]


def _span_multiset(result):
    """Span identity minus allocation-order ids (merge allocates its own)."""
    return sorted(
        (s.name, s.start, s.end, s.request_id, tuple(sorted(s.attrs.items())))
        for s in result.spans()
    )


class TestShardedParity:
    @pytest.fixture(scope="class")
    def single(self):
        with pytest.MonkeyPatch.context() as monkeypatch:
            monkeypatch.delenv("REPRO_TRACE", raising=False)  # reads spans
            return _run(shard_workers=1)

    @pytest.fixture(scope="class")
    def sharded(self):
        with pytest.MonkeyPatch.context() as monkeypatch:
            monkeypatch.delenv("REPRO_TRACE", raising=False)  # reads spans
            return _run(shard_workers=4)

    def test_workload_exercises_switches(self, single):
        assert sum(m.num_switches for m in single.metrics) > 0

    def test_records_identical(self, single, sharded):
        assert _record_tuples(sharded) == _record_tuples(single)

    def test_metrics_identical(self, single, sharded):
        assert sharded.metrics == single.metrics

    def test_latency_digests_identical(self, single, sharded):
        for name in ("latency.sojourn_s", "latency.seek_s",
                     "latency.switch_s", "latency.transfer_s"):
            assert (
                sharded.registry.digests[name].to_dict()
                == single.registry.digests[name].to_dict()
            ), name

    def test_span_multiset_identical(self, single, sharded):
        assert _span_multiset(sharded) == _span_multiset(single)

    def test_span_tree_is_well_formed(self, sharded):
        spans = sharded.spans()
        ids = {s.span_id for s in spans}
        assert len(ids) == len(spans)  # remapped ids never collide
        roots = [s for s in spans if s.name == "request"]
        assert len(roots) == ARRIVALS
        for span in spans:
            if span.parent_id is not None:
                assert span.parent_id in ids

    def test_counters_identical(self, single, sharded):
        for name in ("requests.arrived", "requests.completed",
                     "requests.aborted", "tape.switches", "fleet.horizon_s"):
            assert (
                sharded.registry.counters[name].value
                == single.registry.counters[name].value
            ), name

    def test_resource_summaries_identical(self, single, sharded):
        assert sharded.resources == single.resources

    def test_in_flight_gauge_identical(self, single, sharded):
        g1 = single.registry.gauges["requests.in_flight"]
        g2 = sharded.registry.gauges["requests.in_flight"]
        assert (g2.min, g2.max, g2.value, g2._integral) == (
            g1.min, g1.max, g1.value, g1._integral
        )

    def test_horizon_and_availability_identical(self, single, sharded):
        assert sharded.horizon_s == single.horizon_s
        assert sharded.availability == single.availability == 1.0

    def test_shard_count_does_not_change_results(self, single):
        two = _run(shard_workers=2)
        assert _record_tuples(two) == _record_tuples(single)
        assert two.metrics == single.metrics


class TestShardFallback:
    def test_faults_fall_back_with_warning(self):
        faulted_kwargs = dict(
            faults=(DriveFaultProcess(mtbf_s=1200.0, mttr_s=300.0),),
            fault_seed=5,
        )
        baseline = _session().open(policy="concurrent", **faulted_kwargs).run(
            RATE, num_arrivals=ARRIVALS, seed=SEED
        )
        with pytest.warns(RuntimeWarning, match="falling back"):
            sharded = _session().open(
                policy="concurrent", shard_workers=4, **faulted_kwargs
            ).run(RATE, num_arrivals=ARRIVALS, seed=SEED)
        assert _record_tuples(sharded) == _record_tuples(baseline)
        assert sharded.faults == baseline.faults

    def test_disk_cap_falls_back_with_warning(self):
        session = _session(disk_bandwidth_mb_s=20.0)
        with pytest.warns(RuntimeWarning, match="disk-stream cap"):
            session.open(policy="concurrent", shard_workers=2).run(
                RATE, num_arrivals=5, seed=SEED
            )

    def test_serial_policy_falls_back_with_warning(self):
        with pytest.warns(RuntimeWarning, match="policy"):
            _session().open(policy="serial-fcfs", shard_workers=2).run(
                RATE, num_arrivals=5, seed=SEED
            )

    def test_blockers_empty_for_shardable_config(self):
        opensys = _session().open(policy="concurrent", shard_workers=2)
        assert shard_blockers(opensys, reset=True, sample_period_s=None) == []

    def test_sample_period_blocks(self):
        opensys = _session().open(policy="concurrent", shard_workers=2)
        blockers = shard_blockers(opensys, reset=True, sample_period_s=60.0)
        assert any("sampling" in b for b in blockers)

    def test_single_library_runs_unsharded_without_warning(self):
        opensys = _session(num_libraries=1).open(policy="concurrent", shard_workers=4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = opensys.run(RATE, num_arrivals=5, seed=SEED)
        assert len(result.records) == 5


class TestShardValidation:
    @pytest.mark.parametrize("bad", [0, -1, 1.5])
    def test_rejects_bad_shard_workers(self, bad):
        with pytest.raises(ValueError, match="shard_workers"):
            _session().open(policy="concurrent", shard_workers=bad)

    def test_partition_round_robin(self):
        assert partition_libraries(5, 2) == [[0, 2, 4], [1, 3]]
        assert partition_libraries(4, 4) == [[0], [1], [2], [3]]
        assert partition_libraries(3, 1) == [[0, 1, 2]]

    def test_partition_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            partition_libraries(2, 3)
        with pytest.raises(ValueError):
            partition_libraries(0, 1)
        with pytest.raises(ValueError):
            partition_libraries(2, 0)
