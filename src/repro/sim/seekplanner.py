"""Within-tape retrieval order: the cost model and the two seek planners.

"The objects retrieving order within a tape is optimized to reduce the data
seek time based on object location information retrieved from the indexing
database" (Sec. 6).  Choosing that order is the Linear Tape Scheduling
Problem (LTSP): given the head position and a set of non-overlapping extents
on one tape, find the read order minimizing total locate time.  The paper
reads the extents in one ascending or descending sweep, whichever costs less
from the current head position.  That is close to optimal but can be
beaten: reads carry the head forward for free, so turning around at the
right points rides those free advances, and under an affine model
(``TapeSpec.locate_startup_s > 0``) chaining adjacent extents saves whole
startup latencies on top.  LTSP has an exact polynomial dynamic program
(Honoré, Simon & Suter, arXiv:2112.09384).

Two planners are selectable by name through :data:`SEEK_PLANNERS`:

``greedy-sweep`` (default)
    The paper's two-sweep heuristic — delegates to :func:`plan_retrieval`.

``exact``
    O(n²) dynamic program over sweep turn-points: some optimal schedule
    partitions the position-sorted extents into contiguous blocks served
    top-down, each block read bottom-up in one ascending sweep, so only
    the block boundaries (the turn-points) need to be optimized.  Optimal
    per tape visit; never worse than either sweep (both sweeps are extreme
    partitions).

:func:`locate_cost` is the single shared accumulation of locate time along
a fixed order.  Every planner returns ``(ordered_extents, total_seek_s)``
with the cost recomputed through it, so reported plan costs are exactly
what the engine will charge hop-by-hop.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Dict, Iterable, List, Sequence, Tuple, Union

from ..hardware import ObjectExtent, TapeSpec

__all__ = [
    "locate_cost",
    "sweep_cost",
    "plan_retrieval",
    "SeekPlanner",
    "GreedySweepPlanner",
    "ExactPlanner",
    "DEFAULT_SEEK_PLANNER",
    "SEEK_PLANNERS",
    "available_seek_planners",
    "resolve_seek_planner",
]

#: A plan: the extents in read order plus the total locate time of that
#: order from the given head position (priced via ``locate_cost``).
Plan = Tuple[List[ObjectExtent], float]


def locate_cost(
    ordered: Iterable[ObjectExtent], head_mb: float, spec: TapeSpec
) -> float:
    """Total locate time of reading ``ordered`` in exactly that order.

    This is *the* cost model: the engine's per-extent ``drive.read_extent``
    charges the same ``spec.locate_time`` hop-by-hop, so a planner whose
    plan costs X under this function takes X seconds of seek in the DES.
    The spec lookups are hoisted and zero-distance moves skipped, keeping
    the float expression (and therefore the result bits) identical to the
    pre-refactor hand-inlined loops and to a ``spec.locate_time`` sum.
    """
    startup = spec.locate_startup_s
    rate = spec.locate_rate_mb_s
    cost = 0.0
    position = head_mb
    for extent in ordered:
        distance = abs(extent.start_mb - position)
        if distance != 0:
            cost += startup + distance / rate
        position = extent.end_mb
    return cost


_START = attrgetter("start_mb")


def sweep_cost(
    extents: Sequence[ObjectExtent], head_mb: float, spec: TapeSpec, ascending: bool
) -> float:
    """Total locate time of reading ``extents`` in one sweep direction."""
    ordered = sorted(extents, key=_START)
    return locate_cost(ordered if ascending else reversed(ordered), head_mb, spec)


def plan_retrieval(
    extents: Sequence[ObjectExtent], head_mb: float, spec: TapeSpec
) -> Plan:
    """Choose the cheaper sweep; returns (ordered extents, total seek time).

    Planning runs once per tape visit inside the simulation hot loop, so the
    extents are sorted once (callers mostly pass them sorted already) and
    both sweeps are priced through the shared :func:`locate_cost`
    accumulation.  The descending sweep is the ascending one reversed: the
    extents of one tape have positive sizes and do not overlap, so no two
    share a start.
    """
    if not extents:
        return [], 0.0
    asc = sorted(extents, key=_START)
    up = locate_cost(asc, head_mb, spec)
    down = locate_cost(reversed(asc), head_mb, spec)
    if up <= down:
        return asc, up
    return asc[::-1], down


class SeekPlanner:
    """Strategy interface: order one tape job's extents for retrieval.

    Implementations must be stateless across calls (one planner instance is
    shared by every drive process of a simulation) and must return a
    *permutation* of the input extents — the engine reads exactly what it
    was asked to read, only the order is the planner's to choose.
    """

    #: Name in :data:`SEEK_PLANNERS` (set by subclasses).
    name: str = ""

    def plan(
        self, extents: Sequence[ObjectExtent], head_mb: float, spec: TapeSpec
    ) -> Plan:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


class GreedySweepPlanner(SeekPlanner):
    """The paper's two-sweep heuristic (the default; bit-identical)."""

    name = "greedy-sweep"

    def plan(
        self, extents: Sequence[ObjectExtent], head_mb: float, spec: TapeSpec
    ) -> Plan:
        return plan_retrieval(extents, head_mb, spec)


class ExactPlanner(SeekPlanner):
    """Exact LTSP via a dynamic program over sweep turn-points.

    Reads are free forward motion, so a retrieval schedule is a head
    trajectory that must cross every extent's span upward at least once;
    everything else is paid locate travel.  Merging any two overlapping or
    out-of-order upward passes never costs more, so some optimal trajectory
    consists of *disjoint upward sweeps in descending position order*: the
    position-sorted extents are partitioned into contiguous blocks, blocks
    are served top-down, and each block is read bottom-up in one ascending
    sweep.  (The two single sweeps are the two extreme partitions: one
    block, and all-singleton blocks.)  The turn-points between sweeps are
    the only free choices left — the structure exploited by the exact LTSP
    algorithm of arXiv:2112.09384 — and the best partition is found by an
    O(n²) DP over block boundaries.

    The inter-block hops of a candidate partition are priced analytically
    (``startup + distance/rate``, always a strictly downward move when
    extent starts are distinct); intra-block hops and the initial hop use
    ``spec.locate_time`` verbatim via prefix sums.  The winning plan's
    reported cost is recomputed through :func:`locate_cost`, and the
    two-sweep plan is kept instead whenever degenerate coincident extents
    make it price lower — so ``exact`` is never worse than
    ``greedy-sweep`` on *any* input.
    """

    name = "exact"

    def plan(
        self, extents: Sequence[ObjectExtent], head_mb: float, spec: TapeSpec
    ) -> Plan:
        n = len(extents)
        if n <= 1:
            # Agree with the greedy planner on trivial inputs.
            return plan_retrieval(extents, head_mb, spec)
        ordered = sorted(extents, key=_START)
        locate = spec.locate_time
        startup = spec.locate_startup_s
        rate = spec.locate_rate_mb_s
        starts = [e.start_mb for e in ordered]
        ends = [e.end_mb for e in ordered]

        # ascend[t]: locate cost of the hop chain reading 0..t in ascending
        # order, *excluding* the arrival hop to starts[0]; the ascending
        # chain k..t then costs ascend[t] - ascend[k].
        ascend = [0.0] * n
        for i in range(1, n):
            ascend[i] = ascend[i - 1] + locate(ends[i - 1], starts[i])

        # W[t]: cheapest way to serve extents 0..t when the head arrives
        # from above at position p, minus the p-dependent part — the next
        # hop down to a block bottom a_k prices p/rate + (startup - a_k/rate)
        # — so best(t, p) = p/rate + W[t].  choice[t] records the argmin
        # block bottom for reconstruction.
        W = [0.0] * n
        choice = [0] * n
        for t in range(n):
            best = float("inf")
            best_k = 0
            chain = ascend[t]
            for k in range(t + 1):
                c = startup - starts[k] / rate + chain - ascend[k]
                if k >= 1:
                    c += ends[t] / rate + W[k - 1]
                if c < best:
                    best = c
                    best_k = k
            W[t] = best
            choice[t] = best_k

        # Top block [k..n-1] is served first, reached from the head.
        best = float("inf")
        top = 0
        for k in range(n):
            c = locate(head_mb, starts[k]) + ascend[n - 1] - ascend[k]
            if k >= 1:
                c += ends[n - 1] / rate + W[k - 1]
            if c < best:
                best = c
                top = k

        order_idx: List[int] = list(range(top, n))
        t = top - 1
        while t >= 0:
            k = choice[t]
            order_idx.extend(range(k, t + 1))
            t = k - 1
        plan = [ordered[i] for i in order_idx]
        # Recompute through the shared accumulation so the reported cost is
        # bit-for-bit what the engine charges, and never return a plan the
        # two-sweep heuristic would beat (possible only in degenerate
        # coincident-extent inputs where the analytic hop pricing above
        # overcharges a startup).
        cost = locate_cost(plan, head_mb, spec)
        sweep_plan, sweep_total = plan_retrieval(extents, head_mb, spec)
        if sweep_total < cost:
            return sweep_plan, sweep_total
        return plan, cost


#: The engine's default planner name: the paper's two-sweep heuristic.
DEFAULT_SEEK_PLANNER = GreedySweepPlanner.name

#: Every selectable planner by name.  Both planners are stateless, so each
#: name maps to one shared instance and resolution never allocates.
SEEK_PLANNERS: Dict[str, SeekPlanner] = {
    GreedySweepPlanner.name: GreedySweepPlanner(),
    ExactPlanner.name: ExactPlanner(),
}

_DEFAULT_INSTANCE = SEEK_PLANNERS[DEFAULT_SEEK_PLANNER]


def available_seek_planners() -> Tuple[str, ...]:
    """Sorted names of the selectable planners."""
    return tuple(sorted(SEEK_PLANNERS))


def resolve_seek_planner(
    planner: Union[None, str, SeekPlanner],
) -> SeekPlanner:
    """Resolve a configuration value to a planner instance.

    ``None`` means the shared default (``greedy-sweep``) instance; a string
    is looked up in :data:`SEEK_PLANNERS`; an instance passes through
    unchanged, so a session's resolved planner threads through every layer.
    """
    if planner is None:
        return _DEFAULT_INSTANCE
    if isinstance(planner, SeekPlanner):
        return planner
    try:
        return SEEK_PLANNERS[planner]
    except KeyError:
        known = ", ".join(available_seek_planners())
        raise KeyError(f"unknown seek planner {planner!r}; known: {known}") from None
