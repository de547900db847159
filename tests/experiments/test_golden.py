"""Golden regression snapshots for small-scale figure sweeps.

These pin the *numbers* (not just the shapes) of reduced F5/F6/F8 runs.
The engine guarantees results are a pure function of (sweep spec, root
seed), so any diff here is a real behavior change: either a bug, or an
intended semantic change — in which case regenerate with

    PYTHONPATH=src python -m pytest tests/experiments/test_golden.py --update-golden

review the diff and commit (the sweep cache salt follows the simulator
sources by itself; see ``repro.experiments.cache.cache_salt``).
Values are stored via JSON (repr-round-trippable floats), so comparisons
can be essentially exact; the loose-ish tolerance below only absorbs
cross-platform libm differences in the simulator's transcendentals.
"""

import json
from pathlib import Path

import pytest

from repro.experiments import (
    ExperimentSettings,
    figure5,
    figure6,
    figure8,
    seek_planning,
)

GOLDEN_DIR = Path(__file__).parent / "golden"

#: Keep in sync with the figure drivers' small-scale test settings.
SETTINGS = ExperimentSettings(scale="small", num_samples=25)


def check_golden(name: str, payload: dict, update: bool) -> None:
    path = GOLDEN_DIR / f"{name}.json"
    if update:
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        pytest.skip(f"golden snapshot {path.name} updated")
    if not path.exists():
        pytest.fail(
            f"missing golden snapshot {path}; generate it with --update-golden"
        )
    expected = json.loads(path.read_text())
    assert payload.keys() == expected.keys()
    for key, exp in expected.items():
        got = payload[key]
        if isinstance(exp, dict):
            assert got.keys() == exp.keys(), key
            for series, values in exp.items():
                assert got[series] == pytest.approx(values, rel=1e-9), (key, series)
        else:
            assert got == pytest.approx(exp, rel=1e-9), key


def test_figure5_small_scale_golden(update_golden):
    t = figure5(SETTINGS, m_values=(1, 2, 4, 6), alphas=(0.0, 0.3, 1.0))
    payload = {
        "m_values": t.data["m_values"],
        "series": {f"alpha={a}": v for a, v in t.data["series"].items()},
    }
    check_golden("fig5_small", payload, update_golden)


def test_figure6_small_scale_golden(update_golden):
    t = figure6(SETTINGS, alphas=(0.0, 0.3, 1.0))
    payload = {"alphas": t.data["alphas"], "series": t.data["series"]}
    check_golden("fig6_small", payload, update_golden)


def test_figure8_small_scale_golden(update_golden):
    t = figure8(SETTINGS, library_counts=(1, 2, 3))
    payload = {
        "library_counts": t.data["library_counts"],
        "series": t.data["series"],
    }
    check_golden("fig8_small", payload, update_golden)


def test_seek_planning_small_scale_golden(update_golden):
    t = seek_planning(SETTINGS, num_arrivals=20)
    payload = {
        "batch_scales": t.data["batch_scales"],
        "series": t.data["series"],
        "seek_series": t.data["seek_series"],
        "exact_gain_pct": t.data["exact_gain_pct"],
    }
    check_golden("seekplan_small", payload, update_golden)
    # The acceptance property behind E4: on at least one multi-object
    # batch cell the exact LTSP plan's mean sojourn is <= greedy-sweep's.
    assert any(gain >= 0.0 for gain in t.data["exact_gain_pct"][1:])


def test_redundancy_small_scale_golden(update_golden):
    from repro.experiments import redundancy

    t = redundancy(SETTINGS, num_arrivals=20)
    payload = {
        "levels": t.data["levels"],
        "overhead": t.data["overhead"],
        "series": t.data["series"],
        "request_availability": t.data["request_availability"],
        "durability": t.data["durability"],
        "aborted": t.data["aborted"],
        "fallbacks": t.data["fallbacks"],
    }
    check_golden("a12_small", payload, update_golden)
    # The acceptance property behind A12: under a fixed DriveFaultProcess
    # spec, request availability never decreases with redundancy level,
    # and the analytic durability strictly increases.
    avail = t.data["request_availability"]
    assert all(b >= a for a, b in zip(avail, avail[1:]))
    durability = t.data["durability"]
    assert all(b > a for a, b in zip(durability, durability[1:]))
