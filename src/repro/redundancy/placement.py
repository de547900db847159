"""Replicated and erasure-coded placement wrappers over the scheme registry.

TALICS3 (arXiv:2405.00003) simulates a tape-backed cloud tier whose
durability comes from cross-library redundancy, and Aktas & Soljanin
(arXiv:2312.10360) show the redundancy level (replicas vs erasure codes)
is the primary knob controlling access-load balance.  This module grafts
that knob onto the paper's placement schemes:

* :class:`ReplicatedPlacement` — run any registered base scheme, keep its
  layout as the primary copy, then spread ``r - 1`` full copies of every
  fragment over distinct tapes in rotated libraries;
* :class:`ErasureCodedPlacement` — re-layout every (whole) object as n
  stripes of ``size/k`` (any k reconstruct; see
  :mod:`repro.redundancy.coding`), round-robined across libraries;
* :class:`RedundantPlacementResult` — a :class:`PlacementResult` whose
  ``validate()`` swaps the paper's exactly-once accounting for
  redundancy-group rules: complete groups, distinct-tape / distinct-
  library anti-affinity, and per-member size consistency (geometry and
  mount checks are inherited unchanged).

At the degenerate settings (``r=1`` / ``k=n=1``) both wrappers pass the
base result through untouched apart from bookkeeping metadata, so seed
behavior is bit-identical to the unwrapped scheme — the regression anchor
pinned by ``tests/sim/test_opensystem.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Tuple, Union

import numpy as np

from ..hardware import ObjectExtent, SystemSpec, TapeId
from ..placement.base import ExtentTable, PlacementError, PlacementResult, PlacementScheme
from ..workload import Workload

__all__ = [
    "RedundantPlacementResult",
    "ReplicatedPlacement",
    "ErasureCodedPlacement",
    "parse_redundancy",
    "wrap_scheme",
]


@dataclass
class RedundantPlacementResult(PlacementResult):
    """A placement whose objects live in any-``needed``-of-``replicas`` groups."""

    #: Redundancy-group size n (copies for replication, stripes for erasure).
    replicas: int = 1
    #: Members required per read (1 for replication, k for erasure).
    needed: int = 1
    mode: str = "replicated"

    def _check_objects(self, table: ExtentTable, catalog, spec: SystemSpec) -> None:
        """Redundancy-group accounting replacing the exactly-once rule.

        Every object must carry ``parts x replicas`` extents — one member
        per (part, replica) — with each part's group on distinct tapes
        spanning ``min(replicas, num_libraries)`` libraries, and each
        member sized ``(object_size / parts) / needed``.
        """
        ids = table.object_ids(len(catalog))
        library = np.array([t.library for t in table.tapes], dtype=np.int64)[table.tape_index]
        names = ("part", "replica", "parts", "replicas", "needed")
        cols = (ids, *map(table.column, names), table.tape_index, library)
        cols += (table.column("size_mb", float),)
        order = np.lexsort((cols[2], cols[1], ids))  # object, then part, then replica
        ids, part, replica, parts, replicas, needed, tape, library, size = (c[order] for c in cols)
        new_object = np.diff(ids, prepend=-1) != 0
        new_group = new_object | (np.diff(part, prepend=-1) != 0)
        obj, grp = np.cumsum(new_object) - 1, np.cumsum(new_group) - 1
        starts, group_starts = np.flatnonzero(new_object), np.flatnonzero(new_group)
        # Every fragment against its object's first declaration.
        P, R, K = parts[starts][obj], replicas[starts][obj], needed[starts][obj]
        count = np.bincount(obj)[obj]
        group_ordinal = grp - grp[starts][obj]
        groups_per_object = np.bincount(obj[group_starts])[obj]
        rank_in_group = np.arange(len(ids)) - group_starts[grp]
        by_tape = np.lexsort((tape, grp))
        shared_tape = np.zeros(len(ids), dtype=bool)
        shared_tape[by_tape[1:]] = (np.diff(grp[by_tape]) == 0) & (np.diff(tape[by_tape]) == 0)
        by_library = np.lexsort((library, grp))
        new_library = (np.diff(grp[by_library], prepend=-1) != 0) | (
            np.diff(library[by_library], prepend=-1) != 0
        )
        spanned = np.bincount(grp[by_library], weights=new_library).astype(np.int64)[grp]
        required = np.minimum(R, spec.num_libraries)
        expected = catalog.sizes_mb[ids] / P / K
        checks = (
            ((R != self.replicas) | (K != self.needed),
             "extent declares {K}/{R} redundancy, result says " f"{self.needed}/{self.replicas}"),
            ((parts != P) | (replicas != R) | (needed != K),
             "inconsistent redundancy declarations"),
            (count != P * R, "{count} of {PR} redundancy members placed"),
            ((part != group_ordinal) | (groups_per_object != P),
             "duplicate or missing fragment parts"),
            ((replica != rank_in_group) | (np.bincount(grp)[grp] != R),
             "part {part}: duplicate or missing replica indices"),
            (shared_tape,
             "part {part}: redundancy members share a tape (distinct-tape anti-affinity violated)"),
            (spanned < required,
             "part {part}: members span {spanned} libraries, anti-affinity requires {required}"),
            (np.abs(size - expected) > 1e-6,
             "part {part} replica {replica}: member size {size}, expected {expected}"),
        )
        for bad, message in checks:
            if bad.any():
                j = bad.argmax()
                message = message.format(
                    K=K[j], R=R[j], count=count[j], PR=P[j] * R[j], part=part[j],
                    replica=replica[j], spanned=spanned[j], required=required[j],
                    size=size[j], expected=expected[j],
                )
                raise PlacementError(f"object {ids[j]}: {message}")
        if len(starts) != len(catalog):
            missing = len(catalog) - len(starts)
            raise PlacementError(f"{missing} objects were not placed")


class _TapeCursors:
    """Append cursors + anti-affinity bookkeeping for redundancy members.

    Distinct-tape is tracked per *object* (``Tape.write_layout`` rejects
    the same object twice on one tape, parts included); distinct-library
    is tracked per ``(object, part)`` redundancy group — a striped base
    object may legitimately occupy every library, yet each part's copies
    must still fan out across libraries.
    """

    def __init__(
        self,
        spec: SystemSpec,
        layouts: Dict[TapeId, List[ObjectExtent]],
        replicas: int,
    ) -> None:
        self.capacity = spec.library.tape.capacity_mb
        self.num_libraries = spec.num_libraries
        #: Libraries each redundancy group must span (the validate() rule).
        self.span = min(replicas, spec.num_libraries)
        self.used: Dict[TapeId, float] = {}
        self.object_tapes: Dict[int, set] = {}
        self.group_libraries: Dict[Tuple[int, int], set] = {}
        self.by_library: List[List[TapeId]] = [
            [TapeId(lib, slot) for slot in range(spec.library.num_tapes)]
            for lib in range(spec.num_libraries)
        ]
        for tape_id, extents in layouts.items():
            self.used[tape_id] = max((e.end_mb for e in extents), default=0.0)
            for extent in extents:
                self.note(extent.object_id, extent.part, tape_id)

    def note(self, object_id: int, part: int, tape_id: TapeId) -> None:
        self.object_tapes.setdefault(object_id, set()).add(tape_id)
        self.group_libraries.setdefault((object_id, part), set()).add(tape_id.library)

    def choose(
        self, object_id: int, part: int, size_mb: float, start_library: int
    ) -> TapeId:
        """Least-used tape with room, rotating libraries from ``start_library``.

        While the (object, part) group has not yet spanned ``span``
        libraries, only libraries new to the group are admissible — a
        same-library fallback would silently void the anti-affinity that
        ``validate()`` enforces, so exhaustion raises instead.
        """
        taken_tapes = self.object_tapes.get(object_id, set())
        group_libs = self.group_libraries.get((object_id, part), set())
        rotation = [
            (start_library + i) % self.num_libraries
            for i in range(self.num_libraries)
        ]
        fresh = [lib for lib in rotation if lib not in group_libs]
        must_spread = len(group_libs) < self.span
        ordering = fresh if must_spread else fresh + [
            lib for lib in rotation if lib in group_libs
        ]
        for library in ordering:
            candidates = [
                tid
                for tid in self.by_library[library]
                if tid not in taken_tapes
                and self.used.get(tid, 0.0) + size_mb <= self.capacity + 1e-9
            ]
            if candidates:
                return min(candidates, key=lambda tid: (self.used.get(tid, 0.0), tid.slot))
        raise PlacementError(
            f"no tape can hold a {size_mb:.0f} MB redundancy member of object "
            f"{object_id} part {part} (capacity exhausted or distinct-library "
            "anti-affinity unsatisfiable)"
        )

    def append(self, object_id: int, tape_id: TapeId, extent_kwargs: dict) -> ObjectExtent:
        start = self.used.get(tape_id, 0.0)
        extent = ObjectExtent(start_mb=start, **extent_kwargs)
        self.used[tape_id] = extent.end_mb
        self.note(object_id, extent.part, tape_id)
        return extent


def _ordered_extents(layouts: Dict[TapeId, List[ObjectExtent]]) -> List[Tuple[TapeId, ObjectExtent]]:
    """Base extents largest-first (ties by tape/position) — LPT packing.

    Redundancy members are appended to least-used tapes; placing the big
    extents while empty tapes remain keeps every later, smaller member
    packable even when per-tape free space has been leveled below the
    largest extent size.
    """
    out: List[Tuple[TapeId, ObjectExtent]] = []
    for tape_id in sorted(layouts):
        for extent in sorted(layouts[tape_id], key=lambda e: e.start_mb):
            out.append((tape_id, extent))
    out.sort(key=lambda te: (-te[1].size_mb, te[0], te[1].start_mb))
    return out


class ReplicatedPlacement(PlacementScheme):
    """r full copies of every fragment, anti-affine across tapes/libraries.

    The base scheme's layout is kept verbatim as the primary copy (replica
    0) — its batch structure, pinned drives, and initial mounts carry over
    — and each further copy of a fragment is appended to the least-used
    admissible tape of a rotated library.  ``r=1`` is an exact
    pass-through of the base result.

    ``migrate_epochs > 0`` first applies popularity-driven hot/cold
    migration (see :mod:`repro.redundancy.migration`) to the base layout.
    """

    name = "replicated"

    def __init__(
        self,
        base: Union[str, PlacementScheme] = "parallel_batch",
        r: int = 2,
        migrate_epochs: int = 0,
        **base_kwargs,
    ) -> None:
        if int(r) < 1:
            raise ValueError(f"replication factor r must be >= 1, got {r}")
        if int(migrate_epochs) < 0:
            raise ValueError(f"migrate_epochs must be >= 0, got {migrate_epochs}")
        self.base = base
        self.r = int(r)
        self.migrate_epochs = int(migrate_epochs)
        self.base_kwargs = dict(base_kwargs)

    def _base_scheme(self) -> PlacementScheme:
        if isinstance(self.base, PlacementScheme):
            if self.base_kwargs:
                raise ValueError("base_kwargs only apply to a base scheme *name*")
            return self.base
        from ..placement.registry import make_scheme

        return make_scheme(self.base, **self.base_kwargs)

    def place(self, workload: Workload, spec: SystemSpec) -> PlacementResult:
        base = self._base_scheme().place(workload, spec)
        if self.migrate_epochs:
            from .migration import migrate_by_popularity

            base, _ = migrate_by_popularity(
                base, workload, spec, num_epochs=self.migrate_epochs
            )
        label = f"replicated[{base.scheme},r={self.r}]"
        if self.r == 1:
            return _passthrough(base, label, replicas=1, needed=1, mode="replicated")

        catalog = workload.catalog
        r = self.r
        layouts: Dict[TapeId, List[ObjectExtent]] = {
            tid: [
                replace(e, replica=0, replicas=r, needed=1)
                for e in sorted(extents, key=lambda ext: ext.start_mb)
            ]
            for tid, extents in base.layouts.items()
        }
        cursors = _TapeCursors(spec, layouts, replicas=r)
        for copy in range(1, r):
            for primary_tape, extent in _ordered_extents(base.layouts):
                target = cursors.choose(
                    extent.object_id,
                    extent.part,
                    extent.size_mb,
                    start_library=(primary_tape.library + copy) % spec.num_libraries,
                )
                placed = cursors.append(
                    extent.object_id,
                    target,
                    dict(
                        object_id=extent.object_id,
                        size_mb=extent.size_mb,
                        part=extent.part,
                        parts=extent.parts,
                        replica=copy,
                        replicas=r,
                        needed=1,
                    ),
                )
                layouts.setdefault(target, []).append(placed)

        tape_priority = {t: self.total_priority(e, catalog) for t, e in layouts.items() if e}
        metadata = dict(base.metadata)
        metadata["redundancy"] = {"mode": "replicated", "r": r, "base": base.scheme}
        return RedundantPlacementResult(
            scheme=label,
            layouts=layouts,
            initial_mounts=dict(base.initial_mounts),
            pinned=base.pinned,
            tape_priority=tape_priority,
            metadata=metadata,
            replicas=r,
            needed=1,
            mode="replicated",
        )


class ErasureCodedPlacement(PlacementScheme):
    """k-of-n erasure-coded layout: n stripes of ``size/k`` per object.

    The base scheme fixes each object's *primary library* (locality
    intent); the n stripes then round-robin across libraries starting
    there, least-used admissible tape within each.  Requires a whole-object
    base layout (erasure over striped fragments is not modeled).
    ``k=n=1`` is an exact pass-through of the base result.
    """

    name = "erasure"

    def __init__(
        self,
        base: Union[str, PlacementScheme] = "parallel_batch",
        k: int = 4,
        n: int = 6,
        **base_kwargs,
    ) -> None:
        k, n = int(k), int(n)
        if not 1 <= k <= n:
            raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
        if n > 255:
            raise ValueError(f"n must be <= 255 (GF(256) code), got {n}")
        self.base = base
        self.k = k
        self.n = n
        self.base_kwargs = dict(base_kwargs)

    def _base_scheme(self) -> PlacementScheme:
        if isinstance(self.base, PlacementScheme):
            if self.base_kwargs:
                raise ValueError("base_kwargs only apply to a base scheme *name*")
            return self.base
        from ..placement.registry import make_scheme

        return make_scheme(self.base, **self.base_kwargs)

    def place(self, workload: Workload, spec: SystemSpec) -> PlacementResult:
        base = self._base_scheme().place(workload, spec)
        label = f"erasure[{base.scheme},k={self.k},n={self.n}]"
        if self.k == 1 and self.n == 1:
            return _passthrough(base, label, replicas=1, needed=1, mode="erasure")
        if any(e.parts > 1 for extents in base.layouts.values() for e in extents):
            raise PlacementError(
                "erasure coding requires a whole-object base layout "
                f"(base scheme {base.scheme!r} produced striped fragments)"
            )

        catalog = workload.catalog
        k, n = self.k, self.n
        layouts: Dict[TapeId, List[ObjectExtent]] = {}
        cursors = _TapeCursors(spec, layouts, replicas=n)
        for primary_tape, extent in _ordered_extents(base.layouts):
            stripe_mb = extent.size_mb / k
            for stripe in range(n):
                target = cursors.choose(
                    extent.object_id,
                    0,
                    stripe_mb,
                    start_library=(primary_tape.library + stripe) % spec.num_libraries,
                )
                placed = cursors.append(
                    extent.object_id,
                    target,
                    dict(
                        object_id=extent.object_id,
                        size_mb=stripe_mb,
                        replica=stripe,
                        replicas=n,
                        needed=k,
                    ),
                )
                layouts.setdefault(target, []).append(placed)

        tape_priority = {t: self.total_priority(e, catalog) for t, e in layouts.items() if e}
        initial_mounts = PlacementScheme.default_initial_mounts(
            layouts, tape_priority, spec
        )
        metadata = dict(base.metadata)
        metadata["redundancy"] = {
            "mode": "erasure",
            "k": k,
            "n": n,
            "base": base.scheme,
        }
        return RedundantPlacementResult(
            scheme=label,
            layouts=layouts,
            initial_mounts=initial_mounts,
            pinned=frozenset(),
            tape_priority=tape_priority,
            metadata=metadata,
            replicas=n,
            needed=k,
            mode="erasure",
        )


def _passthrough(
    base: PlacementResult, label: str, replicas: int, needed: int, mode: str
) -> RedundantPlacementResult:
    """Degenerate wrap: the base layout verbatim, redundancy bookkeeping only.

    Extents are shared (``replicas == 1`` already), so the location index,
    dispatch, and every simulated timing are bit-identical to the base
    scheme — only the scheme label and metadata record the wrapper.
    """
    metadata = dict(base.metadata)
    metadata["redundancy"] = {"mode": mode, "r": replicas, "base": base.scheme}
    return RedundantPlacementResult(
        scheme=label,
        layouts=base.layouts,
        initial_mounts=base.initial_mounts,
        pinned=base.pinned,
        tape_priority=base.tape_priority,
        metadata=metadata,
        replicas=replicas,
        needed=needed,
        mode=mode,
    )


def parse_redundancy(text: str) -> Dict[str, int]:
    """Parse a ``--redundancy`` spec: ``r=2`` or ``k=4,n=6``.

    Returns ``{"mode": "replicated", "r": ...}`` or
    ``{"mode": "erasure", "k": ..., "n": ...}``; raises ``ValueError`` on
    anything else.
    """
    fields: Dict[str, int] = {}
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        key, sep, value = item.partition("=")
        key = key.strip().lower()
        if not sep or key not in ("r", "k", "n"):
            raise ValueError(
                f"bad redundancy spec {text!r}: expected 'r=<int>' or 'k=<int>,n=<int>'"
            )
        try:
            fields[key] = int(value)
        except ValueError:
            raise ValueError(
                f"bad redundancy spec {text!r}: {value!r} is not an integer"
            ) from None
    if set(fields) == {"r"}:
        if fields["r"] < 1:
            raise ValueError(f"bad redundancy spec {text!r}: r must be >= 1")
        return {"mode": "replicated", "r": fields["r"]}
    if set(fields) == {"k", "n"}:
        if not 1 <= fields["k"] <= fields["n"]:
            raise ValueError(f"bad redundancy spec {text!r}: need 1 <= k <= n")
        return {"mode": "erasure", "k": fields["k"], "n": fields["n"]}
    raise ValueError(
        f"bad redundancy spec {text!r}: expected 'r=<int>' or 'k=<int>,n=<int>'"
    )


def wrap_scheme(scheme: PlacementScheme, redundancy: str) -> PlacementScheme:
    """Wrap a constructed scheme per a ``--redundancy`` spec string."""
    parsed = parse_redundancy(redundancy)
    if parsed["mode"] == "replicated":
        return ReplicatedPlacement(base=scheme, r=parsed["r"])
    return ErasureCodedPlacement(base=scheme, k=parsed["k"], n=parsed["n"])
