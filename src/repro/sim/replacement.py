"""Replacement policies: which mounted tape gets displaced first.

The paper adopts the least-popular policy of Christodoulakis et al. [11]
("such a placement combined with the least popular replacement policy
minimizes the number of tape switches"); alternatives are provided for the
policy-comparison study (``benchmarks/bench_replacement.py``):

``least_popular``  displace the mounted tape with the smallest accumulated
                   access probability (the paper's default);
``most_popular``   adversarial inverse (diagnostic baseline);
``oldest_mount``   FIFO by mount order — classic buffer replacement, blind
                   to popularity;
``newest_mount``   LIFO by mount order (diagnostic baseline);
``slot_order``     deterministic by drive index — what a naive scheduler
                   with no bookkeeping would do.

A policy maps an eligible drive to a sort key; *lower keys are displaced
first*.  Ties break on the drive index for determinism.
"""

from __future__ import annotations

from typing import Callable, Dict, Mapping, Tuple

from ..hardware import TapeDrive, TapeId

__all__ = [
    "REPLACEMENT_POLICIES",
    "replacement_key",
    "resolve_replacement_policy",
    "available_policies",
]

PolicyKey = Callable[[TapeDrive, Mapping[TapeId, float]], float]
DisplacementKey = Callable[[TapeDrive, Mapping[TapeId, float]], Tuple[float, int]]


def _least_popular(drive: TapeDrive, priority: Mapping[TapeId, float]) -> float:
    assert drive.mounted is not None
    return priority.get(drive.mounted.id, 0.0)


def _most_popular(drive: TapeDrive, priority: Mapping[TapeId, float]) -> float:
    return -_least_popular(drive, priority)


def _oldest_mount(drive: TapeDrive, priority: Mapping[TapeId, float]) -> float:
    return float(drive.mount_serial)


def _newest_mount(drive: TapeDrive, priority: Mapping[TapeId, float]) -> float:
    return -float(drive.mount_serial)


def _slot_order(drive: TapeDrive, priority: Mapping[TapeId, float]) -> float:
    return float(drive.id.index)


REPLACEMENT_POLICIES: Dict[str, PolicyKey] = {
    "least_popular": _least_popular,
    "most_popular": _most_popular,
    "oldest_mount": _oldest_mount,
    "newest_mount": _newest_mount,
    "slot_order": _slot_order,
}


def available_policies() -> Tuple[str, ...]:
    return tuple(sorted(REPLACEMENT_POLICIES))


def _policy_key(policy: str) -> PolicyKey:
    try:
        return REPLACEMENT_POLICIES[policy]
    except KeyError:
        known = ", ".join(available_policies())
        raise ValueError(f"unknown replacement policy {policy!r}; known: {known}") from None


def resolve_replacement_policy(policy: str) -> DisplacementKey:
    """The displacement sort key of ``policy``, looked up once.

    Returns ``key(drive, priority) -> (policy key, drive index)``; lower
    keys are displaced first.  Raises ``ValueError`` naming the known
    policies when ``policy`` is not registered.
    """
    key = _policy_key(policy)

    def displacement_key(drive: TapeDrive, priority: Mapping[TapeId, float]) -> Tuple[float, int]:
        return (key(drive, priority), drive.id.index)

    return displacement_key


def replacement_key(
    policy: str, drive: TapeDrive, priority: Mapping[TapeId, float]
) -> Tuple[float, int]:
    """Displacement sort key for ``drive`` under ``policy`` (lower first)."""
    return (_policy_key(policy)(drive, priority), drive.id.index)
