"""Tests for experiment settings and the comparison runner."""

import pytest

from repro.experiments import (
    ExperimentSettings,
    default_schemes,
    default_settings,
    paper_workload,
    run_comparison,
)


class TestSettings:
    def test_paper_scale_defaults(self):
        s = ExperimentSettings()
        assert s.workload_params.num_objects == 30_000
        assert s.samples == 200
        assert s.spec().library.tape.capacity_mb == 400_000

    def test_small_scale_shrinks_everything(self):
        s = ExperimentSettings(scale="small")
        assert s.workload_params.num_objects == 2500
        assert s.samples <= 60
        assert s.spec().library.tape.capacity_mb == pytest.approx(40_000)

    def test_small_scale_preserves_capacity_pressure(self):
        """Data-to-mounted-capacity ratio stays in the paper's regime."""
        s = ExperimentSettings(scale="small")
        workload = paper_workload(s)
        spec = s.spec()
        mounted = spec.total_drives * spec.library.tape.capacity_mb
        ratio = workload.total_size_mb / mounted
        assert 3 <= ratio <= 12  # paper: 53.4 TB / 9.6 TB ~ 5.6

    def test_unknown_scale_rejected(self):
        with pytest.raises(ValueError):
            ExperimentSettings(scale="giant").workload_params

    @pytest.mark.parametrize("fields", [
        {"scale": "giant"},
        {"num_samples": 0},
        {"num_samples": -5},
    ])
    def test_bad_fields_rejected_at_construction(self, fields):
        with pytest.raises(ValueError):
            ExperimentSettings(**fields)

    def test_spec_with_library_override(self):
        assert ExperimentSettings().spec(num_libraries=5).num_libraries == 5

    def test_env_var_overrides(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "small")
        assert default_settings().scale == "small"

    def test_sample_count_has_no_env_var(self, monkeypatch):
        monkeypatch.setenv("REPRO_SAMPLES", "17")
        assert default_settings().num_samples == ExperimentSettings().num_samples

    def test_explicit_overrides_beat_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "small")
        assert default_settings(scale="paper").scale == "paper"

    def test_figure8_object_count_reduced(self):
        s = ExperimentSettings()
        assert s.figure8_num_objects == 12_000


class TestRunner:
    def test_default_schemes_are_the_papers_three(self):
        names = {s.name for s in default_schemes()}
        assert names == {"parallel_batch", "object_probability", "cluster_probability"}

    def test_run_comparison_same_sample_stream(self):
        s = ExperimentSettings(scale="small", num_samples=10)
        workload = paper_workload(s)
        results = run_comparison(workload, s.spec(), default_schemes(), 10, seed=3)
        assert set(results) == {s.name for s in default_schemes()}
        ids = {
            name: [m.request_id for m in r.samples] for name, r in results.items()
        }
        # identical sampled request sequence for every scheme
        assert len({tuple(v) for v in ids.values()}) == 1

    def test_paper_workload_alpha_override(self):
        s = ExperimentSettings(scale="small")
        flat = paper_workload(s, alpha=0.0)
        p = flat.requests.probabilities
        assert max(p) == pytest.approx(min(p))
