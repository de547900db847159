"""The object-location indexing database of Sec. 6.

"Integrated with the simulator is an indexing database that stores object
locations as well as other object properties" — given a request, the
simulator resolves each object to its (tape, extent) here.

Whole objects occupy exactly one extent (the paper's model); the striping
baseline registers several *fragments* per object, each on a different
tape.  :meth:`group_by_tape` expands a request to every fragment involved,
so the simulator transparently reads striped objects from multiple drives
and the request completes only when the last fragment lands — striping's
synchronization latency needs no special-casing in the engine.

The redundancy layer (:mod:`repro.redundancy`) adds the *any-of*
dimension: a fragment may exist as several interchangeable
redundancy-group members (``ObjectExtent.replicas`` copies of which
``needed`` suffice).  :meth:`group_by_tape` then resolves to the primary
read set (lowest replica indices), while :meth:`redundancy_groups` exposes
the full candidate lists for choice-of-d dispatch.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from operator import attrgetter
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..hardware.system import TapeSystem
from ..hardware.tape import ObjectExtent, TapeId

__all__ = ["LocationIndex", "RedundancyGroup", "RequestPlan"]


@dataclass(frozen=True)
class RedundancyGroup:
    """One fragment's interchangeable placements: read any ``needed``.

    ``members`` are in replica order; for non-redundant fragments the group
    degenerates to a single member with ``needed == 1``, so dispatch code
    can treat every request uniformly.
    """

    object_id: int
    part: int
    needed: int
    members: Tuple[Tuple[TapeId, ObjectExtent], ...]

    @property
    def bytes_mb(self) -> float:
        """Bytes a successful read of this fragment must transfer."""
        return self.needed * self.members[0][1].size_mb


_START = attrgetter("start_mb")


@dataclass
class RequestPlan:
    """One request resolved to per-tape reads, memoized by the index.

    ``tapes`` pairs each tape with its extents sorted by ``start_mb``, in
    :meth:`LocationIndex.group_by_tape` order, and ``total_mb`` sums the
    extents in that grouping's order.  ``lpt`` has one slot per tape, which
    the open-system dispatcher fills with ``(tape spec, planner,
    beginning-of-tape order, negated service time)`` and replans when the
    spec or the planner is another object.
    """

    object_ids: Sequence[int]
    tapes: Tuple[Tuple[TapeId, Tuple[ObjectExtent, ...]], ...]
    total_mb: float
    lpt: List[Optional[tuple]]


class LocationIndex:
    """Maps every placed object id to its tape(s) and extent(s)."""

    def __init__(self) -> None:
        self._locations: Dict[int, List[Tuple[TapeId, ObjectExtent]]] = {}
        self._redundant = False
        #: Request id -> its :class:`RequestPlan`; cleared by every change.
        self._plans: Dict[int, RequestPlan] = {}

    @classmethod
    def from_system(cls, system: TapeSystem) -> "LocationIndex":
        """Build the index by scanning all tape layouts.

        ``PlacementResult.apply_to`` calls this right after it writes the
        tapes, so a session's index is built eagerly, before anything is
        served.  Entries use the system's own tape ids, the canonical
        objects the scheduler's lookups compare by identity.  The common
        first sighting of a whole object inserts directly; only repeat
        sightings (striped fragments, redundancy members, or duplicates,
        which must still raise) go through :meth:`add`'s full validation.
        """
        index = cls()
        locations = index._locations
        add = index.add
        for tape in system.all_tapes():
            tape_id = tape.id
            for extent in tape:
                object_id = extent.object_id
                if object_id not in locations:
                    locations[object_id] = [(tape_id, extent)]
                    if extent.replicas > 1:
                        index._redundant = True
                else:
                    add(object_id, tape_id, extent)
        return index

    def add(self, object_id: int, tape_id: TapeId, extent: ObjectExtent) -> None:
        self._plans.clear()
        entries = self._locations.get(object_id)
        if entries is None:
            self._locations[object_id] = [(tape_id, extent)]
            if extent.replicas > 1:
                self._redundant = True
            return
        if entries:
            first = entries[0][1]
            if (
                extent.parts == 1
                and first.parts == 1
                and extent.replicas == 1
                and first.replicas == 1
            ):
                raise ValueError(
                    f"object {object_id} already indexed on {entries[0][0]}; whole "
                    "objects are not replicated (declare replicas on the extents "
                    "for redundancy, or fragments for striping)"
                )
            if extent.parts != first.parts:
                raise ValueError(
                    f"object {object_id}: inconsistent fragment counts "
                    f"({extent.parts} vs {first.parts})"
                )
            if extent.replicas != first.replicas or extent.needed != first.needed:
                raise ValueError(
                    f"object {object_id}: inconsistent redundancy groups "
                    f"({extent.needed}/{extent.replicas} vs "
                    f"{first.needed}/{first.replicas})"
                )
            if any(
                e.part == extent.part and e.replica == extent.replica
                for _, e in entries
            ):
                raise ValueError(
                    f"object {object_id}: fragment {extent.part} replica "
                    f"{extent.replica} indexed twice"
                )
        if extent.replicas > 1:
            self._redundant = True
        entries.append((tape_id, extent))

    def remove_member(
        self, object_id: int, tape_id: TapeId, part: int, replica: int
    ) -> ObjectExtent:
        """Remove one redundancy-group member entry (media loss / rollback).

        The object's other members stay indexed; raises ``KeyError`` when no
        matching entry exists.  Used by the repair manager: the lost member
        is dropped so degraded reads stop routing to the dead cartridge, and
        re-added via :meth:`add` once rebuilt elsewhere.
        """
        entries = self._entries(object_id)
        for i, (tid, extent) in enumerate(entries):
            if tid == tape_id and extent.part == part and extent.replica == replica:
                self._plans.clear()
                del entries[i]
                return extent
        raise KeyError(
            f"object {object_id} part {part} replica {replica} "
            f"is not indexed on {tape_id}"
        )

    @property
    def has_redundancy(self) -> bool:
        """True when any indexed extent belongs to a redundancy group."""
        return self._redundant

    # -- whole-object queries ----------------------------------------------
    def locate(self, object_id: int) -> Tuple[TapeId, ObjectExtent]:
        """Location of a *whole* object (raises for striped/replicated)."""
        entries = self._entries(object_id)
        if len(entries) > 1 or entries[0][1].parts > 1:
            first = entries[0][1]
            what = (
                f"replicated over {first.replicas} members"
                if first.replicas > 1
                else f"striped over {first.parts} fragments"
            )
            raise ValueError(
                f"object {object_id} is {what}; use locate_all() or tapes_of()"
            )
        return entries[0]

    def locate_all(self, object_id: int) -> List[Tuple[TapeId, ObjectExtent]]:
        """All extents of an object, in (part, replica) order."""
        return sorted(
            self._entries(object_id), key=lambda te: (te[1].part, te[1].replica)
        )

    def tape_of(self, object_id: int) -> TapeId:
        """The tape of a single-extent object; raises on ambiguity.

        Striped or replicated objects live on several tapes — use
        :meth:`tapes_of` for the full tuple.
        """
        return self.locate(object_id)[0]

    def tapes_of(self, object_id: int) -> Tuple[TapeId, ...]:
        """Every tape holding an extent of the object, in (part, replica) order."""
        return tuple(tape_id for tape_id, _ in self.locate_all(object_id))

    def is_complete(self, object_id: int) -> bool:
        """All declared fragments (and redundancy members) are present."""
        entries = self._locations.get(object_id, [])
        if not entries:
            return False
        first = entries[0][1]
        return len(entries) == first.parts * first.replicas

    def group_by_tape(self, object_ids: Iterable[int]) -> Mapping[TapeId, List[ObjectExtent]]:
        """Resolve a request's objects (all fragments) into per-tape lists.

        This is the first step of serving a request: "Given a request, the
        corresponding tapes are identified based on the object indexing
        database."  For redundant objects the *primary* read set is chosen
        (the ``needed`` lowest replica indices per fragment) — the
        choice-of-d open-system dispatcher bypasses this and selects
        members dynamically via :meth:`redundancy_groups`.
        """
        groups: Dict[TapeId, List[ObjectExtent]] = defaultdict(list)
        if not self._redundant:
            for object_id in object_ids:
                for tape_id, extent in self._entries(object_id):
                    groups[tape_id].append(extent)
            return dict(groups)
        for object_id in object_ids:
            entries = self._entries(object_id)
            if entries[0][1].replicas == 1:
                for tape_id, extent in entries:
                    groups[tape_id].append(extent)
                continue
            needed = entries[0][1].needed
            by_part: Dict[int, List[Tuple[TapeId, ObjectExtent]]] = defaultdict(list)
            for tape_id, extent in entries:
                by_part[extent.part].append((tape_id, extent))
            for members in by_part.values():
                members.sort(key=lambda te: te[1].replica)
                for tape_id, extent in members[:needed]:
                    groups[tape_id].append(extent)
        return dict(groups)

    def request_plan(self, request) -> RequestPlan:
        """``request``'s :class:`RequestPlan`, built on its first sighting.

        Memoized per request id while the index is unchanged; a request
        object with that id but other ``object_ids`` (not the same object)
        is planned afresh.
        """
        plan = self._plans.get(request.id)
        if plan is None or plan.object_ids is not request.object_ids:
            groups = self.group_by_tape(request.object_ids)
            plan = self._plans[request.id] = RequestPlan(
                object_ids=request.object_ids,
                tapes=tuple(
                    (tape_id, tuple(sorted(extents, key=_START)))
                    for tape_id, extents in groups.items()
                ),
                total_mb=sum(e.size_mb for extents in groups.values() for e in extents),
                lpt=[None] * len(groups),
            )
        return plan

    def redundancy_groups(self, object_ids: Iterable[int]) -> List[RedundancyGroup]:
        """A request's fragments as redundancy groups, in request order.

        Non-redundant fragments become single-member groups, so the
        choice-of-d dispatcher serves mixed catalogs with one code path.
        """
        out: List[RedundancyGroup] = []
        for object_id in object_ids:
            entries = self._entries(object_id)
            by_part: Dict[int, List[Tuple[TapeId, ObjectExtent]]] = defaultdict(list)
            for tape_id, extent in entries:
                by_part[extent.part].append((tape_id, extent))
            for part in sorted(by_part):
                members = sorted(by_part[part], key=lambda te: te[1].replica)
                out.append(
                    RedundancyGroup(
                        object_id=object_id,
                        part=part,
                        needed=members[0][1].needed,
                        members=tuple(members),
                    )
                )
        return out

    def _entries(self, object_id: int) -> List[Tuple[TapeId, ObjectExtent]]:
        try:
            return self._locations[object_id]
        except KeyError:
            raise KeyError(f"object {object_id} has not been placed") from None

    def __contains__(self, object_id: int) -> bool:
        return object_id in self._locations

    def __len__(self) -> int:
        return len(self._locations)
