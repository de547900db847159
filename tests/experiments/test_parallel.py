"""Determinism and metamorphic tests for the sweep-execution engine.

The engine's contract is that a sweep's numbers depend only on the sweep
specification and its root seed — never on worker count, point order, or
whether results came from workers or the on-disk cache.  These tests pin
that contract with bit-identical (``==``, not approx) comparisons on a
deliberately tiny workload.
"""

import dataclasses
import random

import pytest

from repro.experiments.parallel import (
    EngineOptions,
    PointSpec,
    SweepSpec,
    as_kwargs,
    evaluate_point,
    resolve_workers,
    run_sweep,
    spawn_seed,
)
from repro.hardware import LibrarySpec, SystemSpec, TapeSpec
from repro.obs import MetricsRegistry, write_fleet_jsonl
from repro.workload import WorkloadParams

#: Tiny-but-structured sweep inputs: three schemes, two axis cells, small
#: enough that a full sweep runs in well under a second.
TINY_WORKLOAD = WorkloadParams(
    num_objects=250,
    num_requests=12,
    object_size_bounds_mb=(50.0, 500.0),
    mean_object_size_mb=150.0,
    request_size_bounds=(3, 8),
    seed=7,
)
TINY_SPEC = SystemSpec(
    num_libraries=2,
    library=LibrarySpec(
        num_drives=4, num_tapes=12, tape=TapeSpec(capacity_mb=20_000, max_rewind_s=10)
    ),
)
SCHEMES = [
    ("parallel_batch", (("m", 2),)),
    ("object_probability", ()),
    ("cluster_probability", ()),
]


def tiny_sweep(root_seed=0, alphas=(0.0, 1.0), m=2):
    points = []
    for a in alphas:
        for scheme, kwargs in SCHEMES:
            if scheme == "parallel_batch":
                kwargs = (("m", m),)
            points.append(
                PointSpec(
                    sweep="tiny",
                    axis="alpha",
                    value=a,
                    scheme=scheme,
                    scheme_kwargs=kwargs,
                    workload=TINY_WORKLOAD,
                    spec=TINY_SPEC,
                    alpha=a,
                    num_samples=10,
                )
            )
    return SweepSpec(name="tiny", points=tuple(points), root_seed=root_seed)


def fingerprint(res):
    """Point identity -> exact result numbers, order-independent."""
    return {
        (r.point.scheme, r.point.value): (
            r.result.avg_bandwidth_mb_s,
            r.result.avg_response_s,
            r.result.avg_switch_s,
            r.result.avg_seek_s,
        )
        for r in res
    }


class TestSpawnSeed:
    def test_same_group_same_seed(self):
        assert spawn_seed(0, ("alpha", 0.3, 0)) == spawn_seed(0, ("alpha", 0.3, 0))

    def test_different_group_different_seed(self):
        assert spawn_seed(0, ("alpha", 0.3, 0)) != spawn_seed(0, ("alpha", 0.6, 0))

    def test_different_root_different_seed(self):
        assert spawn_seed(0, ("alpha", 0.3, 0)) != spawn_seed(1, ("alpha", 0.3, 0))

    def test_schemes_in_one_cell_share_their_seed(self):
        # Paired-stream comparisons: the schemes compared at one axis value
        # must sample identical request streams.
        jobs = tiny_sweep().jobs()
        by_cell = {}
        for point, seed in jobs:
            by_cell.setdefault(point.value, set()).add(seed)
        for cell, seeds in by_cell.items():
            assert len(seeds) == 1, f"cell {cell} got multiple seeds"
        assert len({next(iter(s)) for s in by_cell.values()}) == len(by_cell)

    def test_seed_independent_of_sweep_membership(self):
        # Adding/removing points never reseeds the survivors.
        full = dict((p.group(), s) for p, s in tiny_sweep(alphas=(0.0, 0.5, 1.0)).jobs())
        sub = dict((p.group(), s) for p, s in tiny_sweep(alphas=(0.0, 1.0)).jobs())
        for group, seed in sub.items():
            assert full[group] == seed


class TestDeterminism:
    def test_bit_identical_across_worker_counts(self):
        serial = run_sweep(tiny_sweep(), EngineOptions(workers=1))
        parallel = run_sweep(tiny_sweep(), EngineOptions(workers=4))
        assert fingerprint(serial) == fingerprint(parallel)

    def test_bit_identical_under_shuffled_point_order(self):
        spec = tiny_sweep()
        shuffled_points = list(spec.points)
        random.Random(42).shuffle(shuffled_points)
        shuffled = dataclasses.replace(spec, points=tuple(shuffled_points))
        a = run_sweep(spec, EngineOptions(workers=1))
        b = run_sweep(shuffled, EngineOptions(workers=2))
        assert fingerprint(a) == fingerprint(b)

    def test_results_returned_in_declaration_order(self):
        spec = tiny_sweep()
        res = run_sweep(spec, EngineOptions(workers=1))
        assert [r.point for r in res] == list(spec.points)

    def test_root_seed_changes_results(self):
        a = run_sweep(tiny_sweep(root_seed=0), EngineOptions(workers=1))
        b = run_sweep(tiny_sweep(root_seed=1), EngineOptions(workers=1))
        assert fingerprint(a) != fingerprint(b)

    def test_direct_evaluate_matches_engine(self):
        spec = tiny_sweep()
        res = run_sweep(spec, EngineOptions(workers=1))
        point, seed = spec.jobs()[0]
        direct = evaluate_point(point, seed)
        engine = res.results[0].result
        assert direct.avg_bandwidth_mb_s == engine.avg_bandwidth_mb_s


class TestCacheBehavior:
    def test_warm_rerun_is_bit_identical_and_all_hits(self, tmp_path):
        opts = EngineOptions(workers=1, cache_dir=str(tmp_path))
        cold = run_sweep(tiny_sweep(), opts)
        assert cold.stats["cache_misses"] == len(cold)
        assert cold.stats["cache_hits"] == 0

        warm = run_sweep(tiny_sweep(), opts)
        assert warm.stats["cache_hits"] == len(warm)
        assert warm.stats["cache_misses"] == 0
        assert fingerprint(cold) == fingerprint(warm)
        assert all(r.cached for r in warm)

    def test_hits_and_misses_published_to_registry(self, tmp_path):
        opts = EngineOptions(workers=1, cache_dir=str(tmp_path))
        registry = MetricsRegistry()
        run_sweep(tiny_sweep(), opts, registry=registry)
        run_sweep(tiny_sweep(), opts, registry=registry)
        n = len(tiny_sweep())
        assert registry.counter("sweep.points").value == 2 * n
        assert registry.counter("sweep.cache_misses").value == n
        assert registry.counter("sweep.cache_hits").value == n

    def test_refresh_recomputes_but_restores_cache(self, tmp_path):
        opts = EngineOptions(workers=1, cache_dir=str(tmp_path))
        run_sweep(tiny_sweep(), opts)
        refreshed = run_sweep(
            tiny_sweep(), EngineOptions(workers=1, cache_dir=str(tmp_path), refresh=True)
        )
        assert refreshed.stats["cache_hits"] == 0
        # refresh still stores, so a subsequent normal run hits everything
        warm = run_sweep(tiny_sweep(), opts)
        assert warm.stats["cache_hits"] == len(warm)

    def test_editing_one_scheme_invalidates_only_its_points(self, tmp_path):
        # The metamorphic core of the cache-key design: keys hash the full
        # point config, so changing parallel_batch's m recomputes exactly
        # the parallel_batch points while both baselines stay cached.
        opts = EngineOptions(workers=1, cache_dir=str(tmp_path))
        run_sweep(tiny_sweep(m=2), opts)

        edited = run_sweep(tiny_sweep(m=3), opts)
        n_pb = sum(1 for p in tiny_sweep().points if p.scheme == "parallel_batch")
        assert edited.stats["cache_misses"] == n_pb
        assert edited.stats["cache_hits"] == len(edited) - n_pb
        for r in edited:
            assert r.cached == (r.point.scheme != "parallel_batch")

    def test_no_cache_dir_means_no_caching(self):
        res = run_sweep(tiny_sweep(), EngineOptions(workers=1))
        assert res.stats["cache_dir"] is None
        assert res.stats["cache_hits"] == 0


class TestEngineMechanics:
    def test_resolve_workers_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert resolve_workers(None) == 3
        assert resolve_workers(2) == 2
        monkeypatch.delenv("REPRO_WORKERS")
        assert resolve_workers(None) == 1
        with pytest.raises(ValueError):
            resolve_workers(0)

    def test_on_result_hook_runs_in_parent_even_with_workers(self):
        # Hooks (closures over local state) are unpicklable by design; the
        # engine must run them parent-side, not ship them to workers.
        seen = []
        res = run_sweep(
            tiny_sweep(),
            EngineOptions(workers=2),
            on_result=lambda r: seen.append(r.point.scheme),
        )
        assert len(seen) == len(res)
        assert "fallback" not in res.stats

    def test_unpicklable_job_degrades_to_serial(self):
        # A job payload that cannot cross the process boundary must degrade
        # to in-process serial execution, not crash the sweep.
        class Unpicklable:
            def __reduce__(self):
                raise TypeError("nope")

        base = tiny_sweep(alphas=(0.0,))
        poisoned = tuple(
            dataclasses.replace(p, run_kwargs=as_kwargs(debug=Unpicklable()))
            for p in base.points
        )
        spec = dataclasses.replace(base, points=poisoned)
        res = run_sweep(spec, EngineOptions(workers=2))
        assert res.stats.get("fallback") == "serial"
        assert fingerprint(res) == fingerprint(
            run_sweep(base, EngineOptions(workers=1))
        )

    def test_select_and_one(self):
        res = run_sweep(tiny_sweep(), EngineOptions(workers=1))
        pb = res.select(scheme="parallel_batch")
        assert len(pb) == 2
        assert res.one(scheme="parallel_batch", value=0.0).avg_bandwidth_mb_s > 0
        with pytest.raises(KeyError):
            res.one(scheme="parallel_batch")

    def test_stats_shape(self):
        res = run_sweep(tiny_sweep(), EngineOptions(workers=1))
        stats = res.stats
        assert stats["points"] == len(tiny_sweep())
        assert stats["workers"] == 1
        assert stats["wall_s"] > 0
        assert stats["points_per_s"] > 0


class TestFleetTelemetry:
    """Cross-process fleet aggregation: merged counters and digests must be
    independent of worker count, point order, and cache state."""

    def _aggregates_equal(self, a, b):
        # Integer state (digest buckets, counts) must match exactly; the
        # float running sums only up to addition rounding.
        assert a["counters"].keys() == b["counters"].keys()
        for name in a["counters"]:
            assert a["counters"][name] == pytest.approx(
                b["counters"][name], rel=1e-12
            ), name
        for name in set(a["digests"]) | set(b["digests"]):
            da, db = dict(a["digests"][name]), dict(b["digests"][name])
            sa, sb = da.pop("sum"), db.pop("sum")
            assert da == db, name
            assert sa == pytest.approx(sb, rel=1e-9)
        assert a["histograms"] == b["histograms"]
        assert a["gauges"].keys() == b["gauges"].keys()

    def test_fleet_identical_across_worker_counts(self):
        serial = run_sweep(tiny_sweep(), EngineOptions(workers=1))
        fanned = run_sweep(tiny_sweep(), EngineOptions(workers=2))
        assert "fallback" not in fanned.stats
        assert fingerprint(serial) == fingerprint(fanned)
        self._aggregates_equal(serial.fleet.aggregates(), fanned.fleet.aggregates())

    def test_fleet_identical_under_shuffled_point_order(self):
        base = tiny_sweep()
        shuffled_points = list(base.points)
        random.Random(5).shuffle(shuffled_points)
        shuffled = dataclasses.replace(base, points=tuple(shuffled_points))
        a = run_sweep(base, EngineOptions(workers=1)).fleet
        b = run_sweep(shuffled, EngineOptions(workers=1)).fleet
        self._aggregates_equal(a.aggregates(), b.aggregates())

    def test_fleet_identical_between_cached_and_fresh(self, tmp_path):
        opts = EngineOptions(workers=1, cache_dir=str(tmp_path))
        cold = run_sweep(tiny_sweep(), opts).fleet
        warm = run_sweep(tiny_sweep(), opts).fleet
        cold_agg, warm_agg = cold.aggregates(), warm.aggregates()
        # Cache bookkeeping differs (hits vs misses) — everything derived
        # from the point *results* must not.
        for agg in (cold_agg, warm_agg):
            agg["counters"].pop("sweep.cache_hits", None)
            agg["counters"].pop("sweep.cache_misses", None)
        self._aggregates_equal(cold_agg, warm_agg)

    def test_fleet_latency_digests_cover_all_samples(self):
        res = run_sweep(tiny_sweep(), EngineOptions(workers=1))
        n_samples = sum(len(r.result) for r in res)
        sojourn = res.fleet.digests["latency.sojourn_s"]
        assert sojourn.count == n_samples
        assert res.fleet.counter("requests.completed") == n_samples

    def test_point_metadata_travels(self):
        res = run_sweep(tiny_sweep(), EngineOptions(workers=2))
        assert len(res.fleet.points) == len(res)
        schemes = {p["scheme"] for p in res.fleet.points}
        assert schemes == {s for s, _ in SCHEMES}


class TestCrossProcessCacheCounters:
    """Satellite regression: cache hit/miss counters must count *every*
    process's lookups, not just the parent's (the old parent-side prefilter
    undercounted under workers > 1)."""

    def test_worker_cache_io_counted_in_fleet(self, tmp_path):
        opts = EngineOptions(workers=2, cache_dir=str(tmp_path))
        n = len(tiny_sweep())

        cold = run_sweep(tiny_sweep(), opts)
        assert "fallback" not in cold.stats
        assert cold.fleet.counter("sweep.points") == n
        assert cold.fleet.counter("sweep.cache_misses") == n
        assert cold.fleet.counter("sweep.cache_hits") == 0

        warm = run_sweep(tiny_sweep(), opts)
        assert warm.fleet.counter("sweep.cache_hits") == n
        assert warm.fleet.counter("sweep.cache_misses") == 0
        assert warm.fleet.cache_hit_rate == 1.0

    def test_fleet_and_parent_registry_totals_agree(self, tmp_path):
        opts = EngineOptions(workers=2, cache_dir=str(tmp_path))
        registry = MetricsRegistry()
        run_sweep(tiny_sweep(), opts, registry=registry)
        res = run_sweep(tiny_sweep(), opts, registry=registry)
        n = len(tiny_sweep())
        # Parent-side registry (summed over both runs)...
        assert registry.counter("sweep.points").value == 2 * n
        assert registry.counter("sweep.cache_hits").value == n
        assert registry.counter("sweep.cache_misses").value == n
        # ...and the per-run fleet view agree on totals.
        assert res.fleet.counter("sweep.points") == n
        assert res.fleet.counter("sweep.cache_hits") == n


class TestRedundancyPoints:
    """Metamorphic coverage for `PointSpec.redundancy` (ISSUE 8).

    The field participates in the cache key (an r=2 point can never alias
    an r=1 or unwrapped point), degenerate r=1 evaluation is bit-identical
    to the unwrapped point's, and redundant chaos sweeps stay bit-identical
    across worker counts.
    """

    def _point(self, redundancy, value="r", seed_group=("red", 0)):
        return PointSpec(
            sweep="red",
            axis="level",
            value=value,
            scheme="parallel_batch",
            scheme_kwargs=(("m", 2),),
            workload=TINY_WORKLOAD,
            spec=TINY_SPEC,
            kind="chaos",
            run_kwargs=(
                ("mtbf_h", 4.0),
                ("mttr_h", 0.5),
                ("num_arrivals", 10),
                ("policy", "concurrent"),
                ("rate_per_hour", 8.0),
            ),
            seed_group=seed_group,
            redundancy=redundancy,
        )

    def test_redundancy_enters_the_cache_key(self):
        keys = {
            self._point(red).cache_key(seed=123)
            for red in (None, "r=1", "r=2", "k=2,n=3")
        }
        assert len(keys) == 4

    def test_degenerate_point_matches_unwrapped_bit_identically(self):
        unwrapped = evaluate_point(self._point(None), seed=5)
        degenerate = evaluate_point(self._point("r=1"), seed=5)
        assert [r.sojourn_s for r in degenerate.records] == [
            r.sojourn_s for r in unwrapped.records
        ]
        assert degenerate.mean_sojourn_s == unwrapped.mean_sojourn_s
        assert degenerate.availability == unwrapped.availability

    def test_r2_actually_takes_the_redundant_path(self):
        """No r=1/r=2 aliasing in behavior either: the r=2 point runs the
        redundant serve path (instruments registered, every request grouped)
        while the unwrapped one never touches it."""
        unwrapped = evaluate_point(self._point(None), seed=5)
        redundant = evaluate_point(self._point("r=2"), seed=5)
        assert redundant.registry.counters["redundancy.requests"].value == 10
        assert not any(
            name.startswith("redundancy.") for name in unwrapped.registry.counters
        )

    def test_redundant_sweep_bit_identical_across_worker_counts(self):
        def sweep():
            points = tuple(
                self._point(red, value=red or "none", seed_group=("red", 0))
                for red in (None, "r=1", "r=2")
            )
            return SweepSpec(name="red", points=points, root_seed=0)

        def chaos_fingerprint(res):
            return {
                r.point.value: (
                    r.result.mean_sojourn_s,
                    r.result.availability,
                    tuple(rec.sojourn_s for rec in r.result.records),
                )
                for r in res
            }

        serial = run_sweep(sweep(), EngineOptions(workers=1))
        parallel = run_sweep(sweep(), EngineOptions(workers=4))
        assert chaos_fingerprint(serial) == chaos_fingerprint(parallel)

    def test_incremental_points_reject_redundancy(self):
        point = dataclasses.replace(
            self._point("r=2"),
            kind="incremental",
            run_kwargs=(("m", 2), ("num_epochs", 2), ("strategy", "naive")),
        )
        with pytest.raises(ValueError):
            evaluate_point(point, seed=5)


class TestOpenPointsAcrossWorkers:
    """The process pool is the only parallel path for open-system points:
    every open point must come back bit-identical whether it ran in-process
    or in a pool worker."""

    def _open_sweep(self, root_seed=0):
        points = tuple(
            PointSpec(
                sweep="tiny-open",
                axis="rate",
                value=rate,
                scheme="object_probability",
                workload=TINY_WORKLOAD,
                spec=TINY_SPEC,
                kind="open",
                run_kwargs=as_kwargs(
                    policy="concurrent", rate_per_hour=rate, num_arrivals=8
                ),
            )
            for rate in (60.0, 120.0)
        )
        return SweepSpec(name="tiny-open", points=points, root_seed=root_seed)

    @staticmethod
    def _open_fingerprint(res):
        return {
            (r.point.scheme, r.point.value): [
                (rec.request_id, rec.arrival_s, rec.start_s, rec.finish_s)
                for rec in r.result.records
            ]
            for r in res
        }

    def test_sweep_bit_identical_across_worker_counts(self, tmp_path):
        serial = run_sweep(self._open_sweep(), EngineOptions(workers=1))
        pooled = run_sweep(self._open_sweep(), EngineOptions(workers=2))
        assert "fallback" not in pooled.stats
        assert self._open_fingerprint(pooled) == self._open_fingerprint(serial)
        assert all(r.result.records for r in serial)
        write_fleet_jsonl(serial.fleet, tmp_path / "serial.jsonl")
        write_fleet_jsonl(pooled.fleet, tmp_path / "pooled.jsonl")
        assert (tmp_path / "pooled.jsonl").read_text() == (
            tmp_path / "serial.jsonl"
        ).read_text()

    def test_warm_replay_leaves_spans_undecoded(self, tmp_path, monkeypatch):
        """A replayed point carries its spans as an undecoded blob that
        still equals the cold run's trace once something reads it."""
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        opts = EngineOptions(workers=1, cache_dir=str(tmp_path))
        cold = run_sweep(self._open_sweep(), opts)
        warm = run_sweep(self._open_sweep(), opts)
        assert warm.stats["cache_hits"] == len(warm) == 2
        for c, w in zip(cold, warm):
            assert "_spans" not in vars(w.result.trace)
            assert w.result.trace == c.result.trace
            assert len(w.result.trace) > 0
