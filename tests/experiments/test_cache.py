"""Unit tests for the content-addressed sweep result cache."""

import dataclasses
import os
import pickle
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.experiments import cache as cache_module
from repro.experiments.cache import (
    CACHE_SALT,
    MISS,
    ResultCache,
    cache_salt,
    canonical_json,
    canonicalize,
    content_key,
    default_cache_dir,
    semantic_sources,
    source_digest,
)


@dataclasses.dataclass(frozen=True)
class Inner:
    x: int
    y: float


@dataclasses.dataclass(frozen=True)
class Outer:
    name: str
    inner: Inner
    values: tuple


class TestCanonicalize:
    def test_dataclasses_are_tagged_with_class_name(self):
        out = canonicalize(Inner(1, 2.5))
        assert out == {"__dataclass__": "Inner", "x": 1, "y": 2.5}

    def test_nested_dataclasses_and_tuples(self):
        out = canonicalize(Outer("a", Inner(1, 2.0), (3, 4)))
        assert out["inner"] == {"__dataclass__": "Inner", "x": 1, "y": 2.0}
        assert out["values"] == [3, 4]

    def test_numpy_scalars_reduce_to_python(self):
        assert canonicalize(np.int64(7)) == 7
        assert canonicalize(np.float64(0.5)) == 0.5

    def test_unserializable_objects_raise(self):
        with pytest.raises(TypeError):
            canonicalize(object())

    def test_json_is_order_independent_for_dicts(self):
        assert canonical_json({"b": 1, "a": 2}) == canonical_json({"a": 2, "b": 1})

    def test_float_repr_roundtrips(self):
        # json.dumps emits repr-round-trippable floats, so even adjacent
        # representable floats key differently.
        import math

        assert canonical_json(0.1) != canonical_json(math.nextafter(0.1, 1.0))


class TestContentKey:
    def test_equal_content_equal_key(self):
        assert content_key({"a": 1}) == content_key({"a": 1})

    def test_different_content_different_key(self):
        assert content_key({"a": 1}) != content_key({"a": 2})

    def test_dataclass_type_distinguishes(self):
        @dataclasses.dataclass(frozen=True)
        class Other:
            x: int
            y: float

        assert content_key(Inner(1, 2.0)) != content_key(Other(1, 2.0))

    def test_salt_changes_key(self):
        assert content_key({"a": 1}) != content_key({"a": 1}, salt="sweep-v999")


class TestSourceSalt:
    """The salt carries a digest of the semantics-bearing sources, so a
    result cached by older code can never be read back as a fresh one."""

    def test_salt_folds_in_the_source_digest(self):
        assert cache_salt() == f"{CACHE_SALT}/{source_digest()}"
        assert len(source_digest()) == 64
        assert content_key({"a": 1}) == content_key({"a": 1}, salt=cache_salt())

    def test_salt_is_stable_across_processes(self):
        src = Path(cache_module.__file__).resolve().parents[2]
        code = "from repro.experiments.cache import cache_salt; print(cache_salt())"
        env = dict(os.environ, PYTHONPATH=str(src))
        salts = {
            subprocess.run(
                [sys.executable, "-c", code], env=env, check=True,
                capture_output=True, text=True,
            ).stdout.strip()
            for _ in range(2)
        }
        assert salts == {cache_salt()}

    def test_source_change_changes_every_key(self, monkeypatch):
        before = content_key({"point": 1})
        monkeypatch.setattr(cache_module, "source_digest", lambda: "0" * 64)
        assert content_key({"point": 1}) != before

    def test_hashed_files_cover_the_point_import_closure(self):
        root = Path(cache_module.__file__).resolve().parent.parent
        hashed = {path.relative_to(root).as_posix() for path in semantic_sources()}
        for name in (
            "catalog/index.py",
            "obs/registry.py",
            "units.py",
            "experiments/parallel.py",
            "experiments/cache.py",
            "des/monitor.py",
            "sim/opensystem.py",
            "__init__.py",
        ):
            assert name in hashed, name
        # The CLI is not on the point path.
        assert "cli.py" not in hashed

    def test_editing_a_module_outside_the_old_package_list_changes_the_salt(
        self, tmp_path
    ):
        src = Path(cache_module.__file__).resolve().parents[2]
        copy = tmp_path / "src"
        shutil.copytree(
            src / "repro", copy / "repro", ignore=shutil.ignore_patterns("__pycache__")
        )
        code = "from repro.experiments.cache import cache_salt; print(cache_salt())"

        def salt():
            env = dict(os.environ, PYTHONPATH=str(copy))
            return subprocess.run(
                [sys.executable, "-c", code], env=env, check=True,
                capture_output=True, text=True,
            ).stdout.strip()

        assert salt() == cache_salt()
        with (copy / "repro" / "catalog" / "index.py").open("a") as fh:
            fh.write("\n# edited\n")
        assert salt() != cache_salt()

    def test_digest_computed_once_per_process(self):
        source_digest()
        hits = source_digest.cache_info().hits
        for i in range(3):
            content_key({"point": i})
        assert source_digest.cache_info().hits == hits + 3
        assert source_digest.cache_info().misses == 1


class TestResultCache:
    def test_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = content_key({"point": 1})
        assert key not in cache
        cache.put(key, {"bandwidth": 42.0})
        assert key in cache
        assert cache.get(key) == {"bandwidth": 42.0}
        assert cache.hits == 1

    def test_missing_key_is_miss_sentinel(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get("0" * 64) is MISS
        assert cache.misses == 1

    def test_cached_none_is_not_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = content_key("none-payload")
        cache.put(key, None)
        assert cache.get(key) is None

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = content_key("corrupt")
        cache.put(key, [1, 2, 3])
        path = cache._path(key)
        path.write_bytes(b"not a pickle")
        assert cache.get(key) is MISS

    def test_len_and_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        for i in range(5):
            cache.put(content_key(i), i)
        assert len(cache) == 5
        assert cache.clear() == 5
        assert len(cache) == 0

    def test_put_is_atomic_no_tmp_left_behind(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(content_key("x"), "payload")
        assert not list(tmp_path.rglob("*.tmp"))

    def test_entries_shard_into_two_hex_dirs(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = content_key("shard")
        cache.put(key, 1)
        assert cache._path(key).parent.name == key[:2]

    def test_payloads_use_pickle(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = content_key("pickle")
        cache.put(key, {"a": (1, 2)})
        with cache._path(key).open("rb") as fh:
            assert pickle.load(fh) == {"a": (1, 2)}


class TestDefaultCacheDir:
    def test_env_override_wins(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "custom"))
        assert default_cache_dir() == tmp_path / "custom"

    def test_xdg_fallback(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        assert default_cache_dir() == tmp_path / "repro-tape" / "sweeps"
