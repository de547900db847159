"""Tape cartridges and their on-media object layouts."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from operator import attrgetter
from typing import Dict, Iterable, Iterator, List, Tuple

from .specs import TapeSpec

__all__ = ["TapeId", "ObjectExtent", "Tape"]


@dataclass(frozen=True, order=True)
class TapeId:
    """Globally unique tape address: (library index, slot index).

    Tape ids are compared and hashed constantly on the scheduler hot path
    (committed-tape maps, mounted-drive scans, displacement checks), and
    nearly all of those comparisons are against the *canonical* id objects
    that flow out of ``Library.tapes`` / ``Tape.id``.  The manual ``__eq__``
    below short-circuits on identity first, and the hash of the (immutable)
    field pair is computed once and cached.
    """

    library: int
    slot: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.library, self.slot)))
        object.__setattr__(self, "_str", f"L{self.library}.T{self.slot}")

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if isinstance(other, TapeId):
            return self.library == other.library and self.slot == other.slot
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash  # type: ignore[attr-defined]

    def __str__(self) -> str:
        return self._str  # type: ignore[attr-defined]


@dataclass(frozen=True)
class ObjectExtent:
    """A contiguous region of tape holding one object (or one stripe of it).

    The paper assumes whole-object sequential access (assumption 3 in
    Sec. 3) and no striping, so by default every object occupies exactly
    one extent (``part 0 of 1``) on exactly one tape.  The striping
    baseline from the related work (Golubchik et al. [15], Drapeau & Katz
    [13]) splits an object into ``parts`` fragments; a request then
    completes only when *every* fragment has been read — the
    synchronization latency the paper cites against striping emerges from
    exactly this.

    The cloud-archive redundancy layer (:mod:`repro.redundancy`) adds the
    orthogonal *any-of* dimension: each fragment may exist as ``replicas``
    redundancy-group members on distinct tapes, of which any ``needed``
    suffice to reconstruct it — ``needed == 1`` is plain replication,
    ``needed == k < replicas == n`` is a k-of-n erasure code.  Striping's
    ``parts`` remain all-required; redundancy members are interchangeable.
    """

    object_id: int
    start_mb: float
    size_mb: float
    #: Which stripe fragment this is (0-based).
    part: int = 0
    #: Total number of fragments the object was split into.
    parts: int = 1
    #: Which redundancy-group member this is (0-based; 0 = primary).
    replica: int = 0
    #: Total members in this fragment's redundancy group (r copies, or the
    #: n of a k-of-n code).
    replicas: int = 1
    #: How many members must be read to reconstruct the fragment (1 for
    #: replication, k for erasure coding).
    needed: int = 1

    def __post_init__(self) -> None:
        if self.start_mb < 0:
            raise ValueError(f"extent start must be >= 0, got {self.start_mb}")
        if self.size_mb <= 0:
            raise ValueError(f"extent size must be positive, got {self.size_mb}")
        if self.parts < 1:
            raise ValueError(f"parts must be >= 1, got {self.parts}")
        if not 0 <= self.part < self.parts:
            raise ValueError(f"part {self.part} out of range for {self.parts} parts")
        if self.replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {self.replicas}")
        if not 0 <= self.replica < self.replicas:
            raise ValueError(
                f"replica {self.replica} out of range for {self.replicas} replicas"
            )
        if not 1 <= self.needed <= self.replicas:
            raise ValueError(
                f"needed must be in [1, {self.replicas}], got {self.needed}"
            )
        # The extent end is read on every seek/transfer (head advance, sweep
        # planning, layout validation); computing it once here keeps the
        # property a plain attribute read.
        object.__setattr__(self, "_end_mb", self.start_mb + self.size_mb)

    @property
    def is_fragment(self) -> bool:
        return self.parts > 1

    @property
    def is_redundant(self) -> bool:
        return self.replicas > 1

    @property
    def end_mb(self) -> float:
        return self._end_mb  # type: ignore[attr-defined]

    def overlaps(self, other: "ObjectExtent") -> bool:
        return self.start_mb < other.end_mb and other.start_mb < self.end_mb


class Tape:
    """A cartridge: an ordered, non-overlapping object layout plus head state.

    The head position is runtime state maintained by the simulator; it
    persists across requests while the tape stays mounted and resets to 0
    (beginning of tape) whenever the tape is rewound for unmounting or
    freshly loaded.
    """

    def __init__(self, tape_id: TapeId, spec: TapeSpec) -> None:
        self.id = tape_id
        self.spec = spec
        self._extents: List[ObjectExtent] = []
        self._by_object: Dict[int, ObjectExtent] = {}
        #: Current head position in MB (meaningful while mounted).
        self.head_mb: float = 0.0
        #: Whole-cartridge media loss: every extent is unreadable.  Set by
        #: the fault layer (``TapeFailure`` / ``TapeWearProcess``); the
        #: layout is kept as-is so the repair manager can enumerate what
        #: was on the dead cartridge.
        self.lost: bool = False

    # -- layout -----------------------------------------------------------
    def write_layout(self, extents: Iterable[ObjectExtent]) -> None:
        """Replace the layout with ``extents`` (validated, sorted by start)."""
        extents = sorted(extents, key=attrgetter("start_mb"))
        by_object = {extent.object_id: extent for extent in extents}
        if len(by_object) != len(extents):
            twice = next(o for o, n in Counter(e.object_id for e in extents).items() if n > 1)
            raise ValueError(f"object {twice} placed twice on {self.id}")
        prev_end = 0.0
        limit = self.spec.capacity_mb + 1e-6
        for extent in extents:
            if extent.start_mb < prev_end - 1e-9:
                raise ValueError(
                    f"overlapping extents on {self.id} at {extent.start_mb} MB"
                )
            prev_end = extent.end_mb
            if prev_end > limit:
                raise ValueError(
                    f"extent for object {extent.object_id} ends at {prev_end} MB, "
                    f"beyond tape capacity {self.spec.capacity_mb} MB"
                )
        self._extents = extents
        self._by_object = by_object

    def append_object(self, object_id: int, size_mb: float) -> ObjectExtent:
        """Append an object after the current end of data."""
        start = self.used_mb
        extent = ObjectExtent(object_id, start, size_mb)
        if extent.end_mb > self.spec.capacity_mb + 1e-6:
            raise ValueError(
                f"object {object_id} ({size_mb} MB) does not fit on {self.id} "
                f"({self.free_mb} MB free)"
            )
        self._extents.append(extent)
        self._by_object[object_id] = extent
        return extent

    def append_extent(self, extent: ObjectExtent) -> ObjectExtent:
        """Append a fully-specified extent (a rebuilt redundancy member).

        Unlike :meth:`append_object` the extent keeps its part/replica
        coordinates; it must start at the current end of data.
        """
        if self.lost:
            raise ValueError(f"cannot write to lost tape {self.id}")
        if extent.object_id in self._by_object:
            raise ValueError(f"object {extent.object_id} placed twice on {self.id}")
        if abs(extent.start_mb - self.used_mb) > 1e-6:
            raise ValueError(
                f"extent must append at {self.used_mb} MB on {self.id}, "
                f"got {extent.start_mb} MB"
            )
        if extent.end_mb > self.spec.capacity_mb + 1e-6:
            raise ValueError(
                f"object {extent.object_id} ({extent.size_mb} MB) does not fit "
                f"on {self.id} ({self.free_mb} MB free)"
            )
        self._extents.append(extent)
        self._by_object[extent.object_id] = extent
        return extent

    # -- queries ----------------------------------------------------------
    @property
    def extents(self) -> Tuple[ObjectExtent, ...]:
        return tuple(self._extents)

    @property
    def object_ids(self) -> Tuple[int, ...]:
        return tuple(e.object_id for e in self._extents)

    def extent_of(self, object_id: int) -> ObjectExtent:
        try:
            return self._by_object[object_id]
        except KeyError:
            raise KeyError(f"object {object_id} is not on tape {self.id}") from None

    def holds(self, object_id: int) -> bool:
        return object_id in self._by_object

    @property
    def used_mb(self) -> float:
        return self._extents[-1].end_mb if self._extents else 0.0

    @property
    def free_mb(self) -> float:
        return self.spec.capacity_mb - self.used_mb

    def __len__(self) -> int:
        return len(self._extents)

    def __iter__(self) -> Iterator[ObjectExtent]:
        return iter(self._extents)

    def __repr__(self) -> str:
        return f"<Tape {self.id} {len(self)} objects, {self.used_mb:.0f}/{self.spec.capacity_mb:.0f} MB>"
