"""The object catalog: ids, sizes, and derived access probabilities.

Objects are identified by dense integer ids ``0 .. N-1``; sizes and
probabilities live in NumPy arrays so placement algorithms can sort/scan
30 000 objects vectorized (per the HPC guides: vectorize, don't loop).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Optional, Sequence, Tuple

import numpy as np

__all__ = ["StorageObject", "ObjectCatalog"]


@dataclass(frozen=True)
class StorageObject:
    """A lightweight view of one catalog entry."""

    id: int
    size_mb: float
    probability: float

    @property
    def density(self) -> float:
        """Probability density P(O)/size(O) — the Step-2 sort key."""
        return self.probability / self.size_mb

    @property
    def load(self) -> float:
        """Load P(O)×size(O) — the Sec. 5.4 balancing weight."""
        return self.probability * self.size_mb


class ObjectCatalog:
    """All objects of a workload, array-backed."""

    def __init__(self, sizes_mb: Sequence[float], probabilities: Optional[Sequence[float]] = None):
        self._sizes = np.asarray(sizes_mb, dtype=np.float64)
        if self._sizes.ndim != 1:
            raise ValueError("sizes_mb must be one-dimensional")
        if len(self._sizes) == 0:
            raise ValueError("catalog must contain at least one object")
        if np.any(self._sizes <= 0):
            raise ValueError("all object sizes must be positive")
        if probabilities is None:
            self._probs = np.zeros(len(self._sizes), dtype=np.float64)
        else:
            self.set_probabilities(probabilities)

    # -- array access ------------------------------------------------------
    @property
    def sizes_mb(self) -> np.ndarray:
        """Read-only view of object sizes."""
        view = self._sizes.view()
        view.flags.writeable = False
        return view

    @property
    def probabilities(self) -> np.ndarray:
        """Read-only view of per-object access probabilities (Step 1)."""
        view = self._probs.view()
        view.flags.writeable = False
        return view

    @property
    def densities(self) -> np.ndarray:
        """P(O)/size(O) for every object."""
        return self._probs / self._sizes

    @property
    def loads(self) -> np.ndarray:
        """P(O)×size(O) for every object."""
        return self._probs * self._sizes

    def set_probabilities(self, probabilities: Sequence[float]) -> None:
        probs = np.asarray(probabilities, dtype=np.float64)
        if probs.shape != self._sizes.shape:
            raise ValueError(
                f"probabilities shape {probs.shape} does not match catalog size {self._sizes.shape}"
            )
        if np.any(probs < 0):
            raise ValueError("probabilities must be non-negative")
        self._probs = probs.copy()
        self.__dict__.pop("probability_values", None)

    # Per-object loops index these tuples instead of calling size_of /
    # probability_of: the same values, with no NumPy scalar per access.
    @cached_property
    def size_values(self) -> Tuple[float, ...]:
        return tuple(self._sizes.tolist())

    @cached_property
    def probability_values(self) -> Tuple[float, ...]:
        return tuple(self._probs.tolist())

    # -- scalar access -------------------------------------------------------
    def size_of(self, object_id: int) -> float:
        return float(self._sizes[object_id])

    def probability_of(self, object_id: int) -> float:
        return float(self._probs[object_id])

    def object(self, object_id: int) -> StorageObject:
        return StorageObject(object_id, self.size_of(object_id), self.probability_of(object_id))

    def total_size_mb(self, object_ids: Optional[Sequence[int]] = None) -> float:
        if object_ids is None:
            return float(self._sizes.sum())
        return float(self._sizes[np.asarray(object_ids, dtype=np.intp)].sum())

    def __len__(self) -> int:
        return len(self._sizes)

    def __iter__(self) -> Iterator[StorageObject]:
        for i in range(len(self)):
            yield self.object(i)

    def __repr__(self) -> str:
        return (
            f"<ObjectCatalog {len(self)} objects, {self._sizes.sum() / 1e6:.2f} TB, "
            f"mean {self._sizes.mean():.0f} MB>"
        )
