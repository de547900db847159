"""On-disk content-addressed result cache for sweep points.

A sweep point is fully described by pure data (workload parameters, system
spec, scheme configuration, sample count, derived seed — see
:class:`repro.experiments.parallel.PointSpec`), so its evaluation result can
be memoized under a key that *is* that description: the SHA-256 of the
point's canonical JSON serialization plus a code-version salt.  Re-running a
figure after editing one scheme's configuration therefore recomputes only
that scheme's points — every other key is unchanged and hits.

The salt (:func:`cache_salt`) folds in a SHA-256 of the semantics-bearing
sources (:data:`SEMANTIC_PACKAGES`), so editing the simulator, the placement
schemes or the workload generator invalidates every entry by itself: a
cached result from older code can never pass as a fresh one.  The package
version and the hand-set :data:`CACHE_SALT` are folded in too; bump the
latter only for a result-changing edit outside those packages.

Entries are pickles written atomically (temp file + ``os.replace``), fanned
out over 256 two-hex-character subdirectories.  Corrupt or unreadable
entries are treated as misses and overwritten, never raised.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
import tempfile
from functools import lru_cache
from pathlib import Path
from typing import Any, Optional

__all__ = [
    "CACHE_SALT",
    "MISS",
    "SEMANTIC_PACKAGES",
    "ResultCache",
    "cache_salt",
    "canonicalize",
    "canonical_json",
    "content_key",
    "default_cache_dir",
    "source_digest",
]

#: Hand-set part of the salt.  Edits under :data:`SEMANTIC_PACKAGES` change
#: the salt on their own; bump this only for a result-changing edit
#: elsewhere (the sweep drivers, the cache payload format).
CACHE_SALT = "sweep-v1"

#: Subpackages of ``repro`` whose source bytes decide simulated results.
SEMANTIC_PACKAGES = ("des", "hardware", "placement", "redundancy", "sim", "workload")

#: Sentinel distinguishing "not cached" from a cached ``None``.
MISS = object()


def canonicalize(obj: Any) -> Any:
    """Reduce ``obj`` to a JSON-serializable canonical form.

    Dataclasses are tagged with their class name so two specs with
    coincidentally equal fields but different types key differently; floats
    pass through (``json.dumps`` emits ``repr``-round-trippable text);
    tuples/lists unify to lists; dict keys are stringified and sorted at
    dump time.
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        fields = {
            f.name: canonicalize(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
        return {"__dataclass__": type(obj).__name__, **fields}
    if isinstance(obj, dict):
        return {str(k): canonicalize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [canonicalize(v) for v in obj]
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    if hasattr(obj, "item"):  # numpy scalar
        return obj.item()
    raise TypeError(f"cannot canonicalize {type(obj).__name__}: {obj!r}")


def canonical_json(obj: Any) -> str:
    """Deterministic JSON text of :func:`canonicalize`'s output."""
    return json.dumps(canonicalize(obj), sort_keys=True, separators=(",", ":"))


@lru_cache(maxsize=None)
def source_digest() -> str:
    """SHA-256 of the :data:`SEMANTIC_PACKAGES` sources, once per process.

    Hashes every file under those packages except ``__pycache__``, in
    sorted relative-path order, as path, byte length and bytes.
    """
    root = Path(__file__).resolve().parent.parent
    files = sorted(
        path
        for package in SEMANTIC_PACKAGES
        for path in (root / package).rglob("*")
        if path.is_file() and "__pycache__" not in path.parts
    )
    digest = hashlib.sha256()
    for path in files:
        data = path.read_bytes()
        digest.update(f"{path.relative_to(root).as_posix()}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()


def cache_salt() -> str:
    """The salt every default :func:`content_key` carries."""
    return f"{CACHE_SALT}/{source_digest()}"


def content_key(obj: Any, *, salt: Optional[str] = None) -> str:
    """SHA-256 hex digest of ``obj``'s canonical form + version salt.

    ``salt`` defaults to :func:`cache_salt`.
    """
    from .. import __version__

    if salt is None:
        salt = cache_salt()
    payload = f"{__version__}/{salt}\n{canonical_json(obj)}"
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR``, else ``~/.cache/repro-tape/sweeps``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro-tape" / "sweeps"


class ResultCache:
    """Content-addressed pickle store with hit/miss accounting."""

    def __init__(self, root: "Path | str") -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.pkl"

    def get(self, key: str) -> Any:
        """The cached payload, or :data:`MISS` (also on corrupt entries)."""
        path = self._path(key)
        try:
            with path.open("rb") as fh:
                payload = pickle.load(fh)
        except (OSError, pickle.PickleError, EOFError, AttributeError):
            self.misses += 1
            return MISS
        self.hits += 1
        return payload

    def put(self, key: str, payload: Any) -> None:
        """Store ``payload`` atomically; concurrent writers both succeed."""
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                pickle.dump(payload, fh, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def __contains__(self, key: str) -> bool:
        return self._path(key).exists()

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("??/*.pkl"))

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        removed = 0
        for path in self.root.glob("??/*.pkl"):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def __repr__(self) -> str:
        return (
            f"<ResultCache {self.root} hits={self.hits} misses={self.misses}>"
        )


def open_cache(cache_dir: "Path | str | None") -> Optional[ResultCache]:
    """A :class:`ResultCache` at ``cache_dir``, or ``None`` to disable."""
    if cache_dir is None:
        return None
    return ResultCache(cache_dir)
