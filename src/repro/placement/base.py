"""Placement scheme API shared by the proposed scheme and both baselines.

A placement scheme consumes a :class:`~repro.workload.Workload` and a
:class:`~repro.hardware.SystemSpec` and produces a :class:`PlacementResult`:
the full on-tape layout of every object, which tapes are mounted at startup
(and on which drives), which drives are pinned ("always-mounted" batch), and
each tape's accumulated access probability (used by the least-popular
replacement policy).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Dict, FrozenSet, List, Mapping, Tuple

import numpy as np

from ..catalog import LocationIndex, ObjectCatalog
from ..hardware import DriveId, ObjectExtent, SystemSpec, TapeId, TapeSystem
from ..workload import Workload

__all__ = ["ExtentTable", "PlacementError", "PlacementResult", "PlacementScheme"]


class PlacementError(Exception):
    """Raised when a workload cannot be placed (e.g. capacity exhausted)."""


class ExtentTable:
    """Every extent of a layout as columns, tape by tape and by start within
    a tape: the validation checks run over these arrays, not per extent."""

    def __init__(self, layouts: Mapping[TapeId, List[ObjectExtent]]) -> None:
        self.tapes = list(layouts)
        per_tape = [sorted(extents, key=attrgetter("start_mb")) for extents in layouts.values()]
        self.extents = [extent for extents in per_tape for extent in extents]
        counts = np.array([len(extents) for extents in per_tape], dtype=np.int64)
        self.tape_index = np.repeat(np.arange(len(counts)), counts)

    def column(self, name: str, dtype=np.int64) -> np.ndarray:
        return np.fromiter(map(attrgetter(name), self.extents), dtype, len(self.extents))

    def object_ids(self, num_objects: int) -> np.ndarray:
        """The object-id column; raises for an id outside the catalog."""
        ids = self.column("object_id")
        outside = ids[(ids < 0) | (ids >= num_objects)]
        if len(outside):
            raise PlacementError(
                f"object id {outside[0]} is outside the catalog (0..{num_objects - 1})"
            )
        return ids


@dataclass
class PlacementResult:
    """The complete output of a placement scheme."""

    scheme: str
    #: On-tape layout: tape id -> extents in position order.
    layouts: Dict[TapeId, List[ObjectExtent]]
    #: Which tape each drive holds at startup.
    initial_mounts: Dict[DriveId, TapeId]
    #: Tapes that are never unmounted (batch 0 of parallel batch placement).
    pinned: FrozenSet[TapeId] = frozenset()
    #: Accumulated access probability per tape (replacement-policy input).
    tape_priority: Dict[TapeId, float] = field(default_factory=dict)
    #: Scheme-specific extras (batch maps, cluster stats, …) for diagnostics.
    metadata: dict = field(default_factory=dict)

    # -- derived ----------------------------------------------------------
    def objects_placed(self) -> int:
        return sum(len(extents) for extents in self.layouts.values())

    def tapes_used(self) -> int:
        return sum(1 for extents in self.layouts.values() if extents)

    def tape_of(self, object_id: int) -> TapeId:
        """The tape of a single-extent object; raises on ambiguity.

        Striped or redundant objects span several tapes — use
        :meth:`tapes_of` for the full tuple.
        """
        tapes = self.tapes_of(object_id)
        if len(tapes) > 1:
            raise ValueError(
                f"object {object_id} has {len(tapes)} extents (striped or "
                "replicated); use tapes_of()"
            )
        return tapes[0]

    def tapes_of(self, object_id: int) -> Tuple[TapeId, ...]:
        """Every tape holding an extent of the object, in (part, replica) order."""
        found: List[Tuple[Tuple[int, int], TapeId]] = []
        for tape_id, extents in self.layouts.items():
            for extent in extents:
                if extent.object_id == object_id:
                    found.append(((extent.part, extent.replica), tape_id))
        if not found:
            raise KeyError(f"object {object_id} not placed")
        found.sort(key=lambda pair: pair[0])
        return tuple(tape_id for _, tape_id in found)

    # -- validation ---------------------------------------------------------
    def validate(self, catalog: ObjectCatalog, spec: SystemSpec) -> None:
        """Check structural invariants; raise :class:`PlacementError` if broken.

        * every catalog object placed exactly once — whole, or as a complete,
          consistent set of stripe fragments whose sizes sum to the catalog
          size (:class:`~repro.redundancy.RedundantPlacementResult` replaces
          this accounting with redundancy-group rules);
        * extents within tape capacity and non-overlapping;
        * initial mounts reference existing tapes/drives, one tape per drive;
        * pinned tapes are all initially mounted.
        """
        table = self._check_geometry(spec)
        self._check_objects(table, catalog, spec)
        self._check_mounts(spec)

    def _check_geometry(self, spec: SystemSpec) -> ExtentTable:
        """Per-tape capacity/overlap checks; returns the extents as columns."""
        for tape_id in self.layouts:
            if not (0 <= tape_id.library < spec.num_libraries):
                raise PlacementError(f"tape {tape_id} references unknown library")
            if not (0 <= tape_id.slot < spec.library.num_tapes):
                raise PlacementError(f"tape {tape_id} references unknown slot")
        table = ExtentTable(self.layouts)
        start, end = table.column("start_mb", float), table.column("end_mb", float)
        first = np.diff(table.tape_index, prepend=-1) != 0
        overlap = start < np.where(first, 0.0, np.roll(end, 1)) - 1e-9
        bad = np.flatnonzero(overlap | (end > spec.library.tape.capacity_mb + 1e-6))
        if len(bad):
            tape_id = table.tapes[table.tape_index[bad[0]]]
            if overlap[bad[0]]:
                raise PlacementError(f"overlapping extents on {tape_id}")
            raise PlacementError(f"tape {tape_id} overflows its capacity")
        return table

    def _check_objects(
        self, table: ExtentTable, catalog: ObjectCatalog, spec: SystemSpec
    ) -> None:
        """Exactly-once object accounting (the paper's non-redundant model)."""
        ids = table.object_ids(len(catalog))
        order = np.argsort(ids, kind="stable")  # fragments grouped by object
        starts = np.flatnonzero(np.diff(ids[order], prepend=-1))
        counts = np.diff(starts, append=len(ids))
        owner = np.repeat(np.arange(len(starts)), counts)
        placed, parts = ids[order][starts], table.column("parts")[order]
        part, declared = table.column("part")[order], parts[starts]
        rank = np.arange(len(ids)) - starts[owner]
        for bad, message in (
            (parts != declared[owner], "inconsistent fragment counts"),
            ((counts != declared)[owner], "{0} of {1} fragments placed"),
            (part[np.lexsort((part, owner))] != rank, "duplicate or missing fragment parts"),
        ):
            if bad.any():
                i = owner[bad.argmax()]
                message = message.format(counts[i], declared[i])
                raise PlacementError(f"object {placed[i]}: {message}")
        total = np.bincount(ids, table.column("size_mb", float), len(catalog))[placed]
        expected = catalog.sizes_mb[placed]
        bad = np.abs(total - expected) > 1e-6
        if bad.any():
            i = bad.argmax()
            raise PlacementError(
                f"object {placed[i]} placed with total size {total[i]}, "
                f"catalog says {expected[i]}"
            )
        if len(placed) != len(catalog):
            missing = len(catalog) - len(placed)
            raise PlacementError(f"{missing} objects were not placed")

    def _check_mounts(self, spec: SystemSpec) -> None:
        """Initial-mount / pinned-tape consistency checks."""
        mounted_tapes = set()
        for drive_id, tape_id in self.initial_mounts.items():
            if not (0 <= drive_id.library < spec.num_libraries):
                raise PlacementError(f"drive {drive_id} references unknown library")
            if not (0 <= drive_id.index < spec.library.num_drives):
                raise PlacementError(f"drive {drive_id} references unknown index")
            if drive_id.library != tape_id.library:
                raise PlacementError(
                    f"drive {drive_id} cannot mount {tape_id} from another library"
                )
            if tape_id in mounted_tapes:
                raise PlacementError(f"tape {tape_id} mounted on two drives")
            mounted_tapes.add(tape_id)
        for tape_id in self.pinned:
            if tape_id not in mounted_tapes:
                raise PlacementError(f"pinned tape {tape_id} is not initially mounted")

    # -- application ----------------------------------------------------------
    def apply_to(self, system: TapeSystem) -> LocationIndex:
        """Write layouts into ``system``, mount startup tapes, pin drives.

        Returns the location index the simulator will query.
        """
        system.clear_layouts()
        for tape_id, extents in self.layouts.items():
            system.tape(tape_id).write_layout(extents)
        for drive_id, tape_id in self.initial_mounts.items():
            drive = system.library(drive_id.library).drive(drive_id.index)
            drive.mount(system.tape(tape_id))
            drive.pinned = tape_id in self.pinned
        return LocationIndex.from_system(system)


class PlacementScheme(abc.ABC):
    """Base class for placement algorithms."""

    #: Registry / display name, e.g. ``"parallel_batch"``.
    name: str = "abstract"

    @abc.abstractmethod
    def place(self, workload: Workload, spec: SystemSpec) -> PlacementResult:
        """Compute a placement of ``workload`` onto ``spec``'s tapes."""

    # -- helpers shared by all schemes ---------------------------------------
    @staticmethod
    def total_priority(extents: List[ObjectExtent], catalog: ObjectCatalog) -> float:
        """Σ P(O) over a tape's extents, each weighted by the share of its
        object it holds: ``size_share / replicas``, exactly 1 when whole."""
        prob, size = catalog.probability_values, catalog.size_values
        return float(
            sum([prob[e.object_id] * (e.size_mb / size[e.object_id]) / e.replicas for e in extents])
        )

    @staticmethod
    def default_initial_mounts(
        layouts: Mapping[TapeId, List[ObjectExtent]],
        tape_priority: Mapping[TapeId, float],
        spec: SystemSpec,
    ) -> Dict[DriveId, TapeId]:
        """Baseline startup policy: per library, mount its ``d`` highest-
        priority non-empty tapes (per [11], popular tapes stay mounted)."""
        mounts: Dict[DriveId, TapeId] = {}
        for lib in range(spec.num_libraries):
            candidates = [
                tid
                for tid, extents in layouts.items()
                if tid.library == lib and extents
            ]
            candidates.sort(key=lambda tid: (-tape_priority.get(tid, 0.0), tid.slot))
            for drive_index, tape_id in enumerate(candidates[: spec.library.num_drives]):
                mounts[DriveId(lib, drive_index)] = tape_id
        return mounts

    def __repr__(self) -> str:
        return f"<{type(self).__name__} name={self.name!r}>"
