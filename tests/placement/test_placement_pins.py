"""Pinned placements at paper scale (plus one small archive).

The figure goldens pin simulated *outcomes* at small scale; this file pins
the placements themselves, at the scale the paper's figures use, so an
optimization of the placement path cannot change a layout unnoticed.

Exact: per-tape object-id order with each extent's ``part``/``replica``,
``initial_mounts``, ``pinned`` and ``metadata`` (as a SHA-256 digest).
To rel 1e-12: each tape's ``tape_priority``, summed ``start_mb``, summed
``size_mb`` and end of data.  The float tolerance exists because
CPython 3.12's built-in ``sum()`` of floats is compensated, so the raw
bits of summed positions and priorities differ between interpreter
versions while the placement decisions do not.

After an *intended* placement change, regenerate with

    PYTHONPATH=src python -m pytest tests/placement/test_placement_pins.py --update-golden
"""

import hashlib
import json
import math
from functools import lru_cache
from pathlib import Path

import pytest

from repro.experiments import ExperimentSettings
from repro.placement import make_scheme
from repro.redundancy import wrap_scheme
from repro.workload import generate_workload

GOLDEN = Path(__file__).parent / "golden" / "placement_pins.json"

ARCHIVES = {
    "paper-s1-a0.3": ("paper", 1, 0.3),
    "small-s7": ("small", 7, None),
}

#: (label, scheme name, scheme kwargs, redundancy spec)
CONFIGS = (
    ("parallel_batch-m4", "parallel_batch", {"m": 4}, None),
    ("parallel_batch-m2-object", "parallel_batch", {"m": 2, "alignment": "object"}, None),
    ("object_probability", "object_probability", {}, None),
    ("cluster_probability", "cluster_probability", {}, None),
    ("parallel_batch-m4-r2", "parallel_batch", {"m": 4}, "r=2"),
)


@lru_cache(maxsize=None)
def _archive(key):
    scale, seed, alpha = ARCHIVES[key]
    settings = ExperimentSettings(scale=scale, workload_seed=seed)
    workload = generate_workload(settings.workload_params)
    if alpha is not None:
        workload = workload.with_zipf_alpha(alpha)
    return workload, settings.spec()


def _tape_key(tape_id):
    return (tape_id.library, tape_id.slot)


def pin(result) -> dict:
    """The pinned view of one placement: an exact digest plus per-tape floats."""
    tapes = sorted(result.layouts, key=_tape_key)
    exact = {
        "layouts": [
            [str(tid), [[e.object_id, e.part, e.replica] for e in result.layouts[tid]]]
            for tid in tapes
        ],
        "initial_mounts": sorted(
            [str(d), str(t)] for d, t in result.initial_mounts.items()
        ),
        "pinned": sorted(str(t) for t in result.pinned),
        "metadata": result.metadata,
    }
    blob = json.dumps(exact, sort_keys=True, default=str).encode()
    floats = {
        str(tid): [
            result.tape_priority.get(tid, 0.0),
            math.fsum(e.start_mb for e in result.layouts[tid]),
            math.fsum(e.size_mb for e in result.layouts[tid]),
            max((e.end_mb for e in result.layouts[tid]), default=0.0),
        ]
        for tid in tapes
    }
    return {"digest": hashlib.sha256(blob).hexdigest(), "tapes": floats}


def _place(archive, scheme, kwargs, redundancy):
    workload, spec = _archive(archive)
    placer = make_scheme(scheme, **kwargs)
    if redundancy:
        # Two copies of the paper's 53 TB do not fit Table 1's 96 TB.
        spec = spec.with_libraries(2 * spec.num_libraries)
        placer = wrap_scheme(placer, redundancy)
    result = placer.place(workload, spec)
    result.validate(workload.catalog, spec)
    return result


@pytest.mark.parametrize("archive", sorted(ARCHIVES))
@pytest.mark.parametrize(
    "label,scheme,kwargs,redundancy", CONFIGS, ids=[c[0] for c in CONFIGS]
)
def test_placement_pinned(archive, label, scheme, kwargs, redundancy, update_golden):
    got = pin(_place(archive, scheme, kwargs, redundancy))
    key = f"{archive}/{label}"
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    if update_golden:
        golden[key] = got
        GOLDEN.parent.mkdir(exist_ok=True)
        GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
        pytest.skip(f"pin {key} updated")
    if key not in golden:
        pytest.fail(f"missing pin {key} in {GOLDEN}; generate it with --update-golden")
    expected = golden[key]
    assert got["tapes"].keys() == expected["tapes"].keys()
    for tape, values in expected["tapes"].items():
        assert got["tapes"][tape] == pytest.approx(values, rel=1e-12, abs=0.0), tape
    assert got["digest"] == expected["digest"]
