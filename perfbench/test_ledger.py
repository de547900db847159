"""Self-tests of the ledger: it drives ``evaluate_point``'s sequence, and each
workload measures the layer it was chosen for.

Run from the repository root (about three minutes, single process)::

    python3 -m pytest perfbench -q

The sensitivity tests wrap one public function per major layer with a busy
CPU loop of known length and check that the added cost appears in the
end-to-end metric the layer feeds, on the workload chosen to exercise it,
and stays negligible where the workload bypasses the layer.  Single passes
on the shared host this was written on differ by up to 1.8x, so every
injected cost is large against the baseline it is compared with, and
comparisons between workloads only ask for the predicted order.
"""

from __future__ import annotations

import json
import pickle
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import fields
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import ledger  # noqa: E402
from repro.experiments.cache import ResultCache  # noqa: E402
from repro.experiments.parallel import evaluate_point  # noqa: E402
from repro.placement import (  # noqa: E402
    ClusterProbabilityPlacement,
    ObjectProbabilityPlacement,
    ParallelBatchPlacement,
)
from repro.sim.opensystem import OpenSystem  # noqa: E402

SEED = 3
PASSES = 2


def _burn(seconds: float) -> None:
    end = time.process_time() + seconds
    while time.process_time() < end:
        pass


@contextmanager
def _added_cost(owner, attr, cost_of):
    """Wrap ``owner.attr`` so each call first burns ``cost_of(*args)`` CPU
    seconds; yields the list of costs added, one per call."""
    original = owner.__dict__[attr]
    calls = []

    def wrapper(*args, **kwargs):
        cost = cost_of(*args)
        calls.append(cost)
        _burn(cost)
        return original(*args, **kwargs)

    setattr(owner, attr, wrapper)
    try:
        yield calls
    finally:
        setattr(owner, attr, original)


def _medians(workload: str, tmp_path: Path) -> dict:
    """Median end-to-end host metrics over ``PASSES`` checked passes."""
    outs = [
        ledger.run_pass(ledger.WORKLOADS[workload], SEED, tmp_path, None)
        for _ in range(PASSES)
    ]
    return {k: statistics.median(o.segments[k] for o in outs) for k in outs[0].segments}


@pytest.fixture(scope="module")
def baseline(tmp_path_factory):
    root = tmp_path_factory.mktemp("baseline")
    return {
        name: _medians(name, root / name) for name in ("paper-closed", "open-knee")
    }


def test_benchmark_json_matches_ledger():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(ledger.WORKLOADS)
    for key, catalogue in (("end_to_end", ledger.END_TO_END), ("per_layer", ledger.PER_LAYER)):
        listed = {m["name"]: (m["unit"], m["better"]) for m in spec[key]}
        assert listed == catalogue, key


@pytest.mark.parametrize("name", list(ledger.WORKLOADS))
def test_cold_pass_matches_evaluate_point(name, tmp_path):
    wl = ledger.WORKLOADS[name]
    _, _, jobs = ledger.cold_pass(wl, SEED, ResultCache(tmp_path))
    for point, seed, result, _ in jobs:
        reference = evaluate_point(point, seed)
        for f in fields(result):
            assert ledger._equal(
                getattr(result, f.name), getattr(reference, f.name), set()
            ), (name, point.scheme, f.name)


def test_warm_replay_hits_every_point(tmp_path):
    out = ledger.run_pass(ledger.WORKLOADS["chaos-repair"], SEED, tmp_path, ledger.LayerTimers())
    assert out.layers["cache.hit_ratio"] == 1.0
    assert out.sim["repair.rebuild_jobs"] > 0


def test_place_moves_setup_and_dominates_paper_closed(baseline, tmp_path):
    cost = 2.0
    moved = {}
    for name in ("paper-closed", "open-knee"):
        with _added_cost(ParallelBatchPlacement, "place", lambda *a: cost) as pb, \
                _added_cost(ObjectProbabilityPlacement, "place", lambda *a: cost) as op, \
                _added_cost(ClusterProbabilityPlacement, "place", lambda *a: cost) as cp:
            slowed = _medians(name, tmp_path / name)
        added = (len(pb) + len(op) + len(cp)) / PASSES * cost
        base = baseline[name]
        assert slowed["setup_s"] - base["setup_s"] >= 0.5 * added, name
        moved[name] = (slowed["point_s"] - base["point_s"]) / base["point_s"]
    # Three places in a short paper-closed pass, one in a long open-knee
    # pass: the same layer cost moves paper-closed's point_s far more
    # (expected +240% against +55%).
    assert moved["open-knee"] < moved["paper-closed"], moved


def test_open_system_run_moves_requests_per_s_on_open_knee_only(baseline, tmp_path):
    cost = 6.0
    with _added_cost(OpenSystem, "run", lambda *a: cost) as calls:
        slowed = _medians("open-knee", tmp_path / "open")
        assert len(calls) == PASSES
        ledger.run_pass(ledger.WORKLOADS["paper-closed"], SEED, tmp_path / "closed", None)
        # The closed loop never enters the open-system dispatcher.
        assert len(calls) == PASSES
    base = baseline["open-knee"]
    assert slowed["requests_per_s"] < 0.75 * base["requests_per_s"]


def test_cache_put_moves_point_s_on_open_knee_not_paper_closed(baseline, tmp_path):
    # A put's real cost scales with the bytes it serialises, so the added
    # cost is per MB of payload: open-knee stores a traced ~14 MB result,
    # paper-closed three small closed-loop results.
    per_mb = 0.4
    sizes = {}

    def cost(cache, key, payload):
        return per_mb * len(pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)) / 1e6

    moved = {}
    for name in ("paper-closed", "open-knee"):
        with _added_cost(ResultCache, "put", cost) as calls:
            slowed = _medians(name, tmp_path / name)
        sizes[name] = sum(calls) / PASSES
        base = baseline[name]
        moved[name] = (slowed["point_s"] - base["point_s"]) / base["point_s"]
    assert sizes["paper-closed"] < 0.02 * baseline["paper-closed"]["point_s"], sizes
    assert moved["open-knee"] > 0.5, moved
    assert moved["paper-closed"] < moved["open-knee"], moved

