"""Abstract processor arrangements (the HPF PROCESSORS directive).

A :class:`ProcessorGrid` is a rectilinear arrangement of abstract processors.
The mapping of abstract processors to physical ranks is the usual row-major
linearisation; the simulator then maps ranks to hypercube node labels (the
implementation-dependent step the paper delegates to the target machine).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

import numpy as np


@dataclass(frozen=True)
class ProcessorGrid:
    """A named rectilinear grid of abstract processors."""

    name: str
    shape: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.shape:
            raise ValueError("processor grid must have at least one dimension")
        if any(extent <= 0 for extent in self.shape):
            raise ValueError(f"invalid processor grid shape {self.shape}")

    @property
    def rank(self) -> int:
        """Number of grid dimensions."""
        return len(self.shape)

    @property
    def size(self) -> int:
        """Total number of abstract processors."""
        total = 1
        for extent in self.shape:
            total *= extent
        return total

    def coords(self, proc: int) -> tuple[int, ...]:
        """Row-major coordinates of linear rank *proc*."""
        if not 0 <= proc < self.size:
            raise ValueError(f"processor rank {proc} out of range for grid of size {self.size}")
        coords = []
        remainder = proc
        for extent in reversed(self.shape):
            coords.append(remainder % extent)
            remainder //= extent
        return tuple(reversed(coords))

    def linear_rank(self, coords: tuple[int, ...]) -> int:
        """Linear rank of grid coordinates (row-major)."""
        if len(coords) != self.rank:
            raise ValueError(f"expected {self.rank} coordinates, got {len(coords)}")
        rank = 0
        for coord, extent in zip(coords, self.shape):
            if not 0 <= coord < extent:
                raise ValueError(f"coordinate {coord} out of range for extent {extent}")
            rank = rank * extent + coord
        return rank

    def coords_array(self) -> np.ndarray:
        """Row-major coordinates of every linear rank, shape ``(size, rank)``.

        The vectorised counterpart of calling :meth:`coords` per rank; row
        ``r`` equals ``coords(r)``.  Used by the simulator's vector engine to
        resolve per-rank grid positions in bulk.
        """
        idx = np.arange(self.size, dtype=np.int64)
        out = np.empty((self.size, self.rank), dtype=np.int64)
        for axis in range(self.rank - 1, -1, -1):
            extent = self.shape[axis]
            out[:, axis] = idx % extent
            idx //= extent
        return out

    def linear_ranks(self, coords: np.ndarray) -> np.ndarray:
        """Row-major linear ranks of a ``(n, rank)`` coordinate array.

        The vectorised counterpart of :meth:`linear_rank`; coordinates must
        already be in range (no bounds checking on the hot path).
        """
        coords = np.asarray(coords, dtype=np.int64)
        ranks = np.zeros(coords.shape[0], dtype=np.int64)
        for axis, extent in enumerate(self.shape):
            ranks = ranks * extent + coords[:, axis]
        return ranks

    def all_ranks(self) -> range:
        return range(self.size)

    def neighbors(self, proc: int, axis: int) -> tuple[int | None, int | None]:
        """Grid neighbours of *proc* along *axis* (lower, upper); None at boundaries."""
        coords = list(self.coords(proc))
        lower = upper = None
        if coords[axis] > 0:
            c = list(coords)
            c[axis] -= 1
            lower = self.linear_rank(tuple(c))
        if coords[axis] < self.shape[axis] - 1:
            c = list(coords)
            c[axis] += 1
            upper = self.linear_rank(tuple(c))
        return lower, upper

    def circular_neighbor(self, proc: int, axis: int, offset: int) -> int:
        """Neighbour of *proc* at circular distance *offset* along *axis*."""
        coords = list(self.coords(proc))
        coords[axis] = (coords[axis] + offset) % self.shape[axis]
        return self.linear_rank(tuple(coords))

    def __iter__(self):
        return iter(range(self.size))

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        dims = "x".join(str(d) for d in self.shape)
        return f"PROCESSORS {self.name}({dims})"


@dataclass
class ProcessorSet:
    """The set of processor grids declared by a program (usually exactly one)."""

    grids: dict[str, ProcessorGrid] = field(default_factory=dict)

    def add(self, grid: ProcessorGrid) -> None:
        self.grids[grid.name.lower()] = grid

    def get(self, name: str) -> ProcessorGrid | None:
        return self.grids.get(name.lower())

    def default(self) -> ProcessorGrid | None:
        """The first (and usually only) declared grid."""
        if not self.grids:
            return None
        return next(iter(self.grids.values()))

    def __len__(self) -> int:
        return len(self.grids)


def enumerate_subgrids(grid: ProcessorGrid) -> list[tuple[tuple[int, ...], int]]:
    """Enumerate (coords, rank) pairs of a grid, in rank order (testing helper)."""
    out = []
    for coords in product(*(range(extent) for extent in grid.shape)):
        out.append((coords, grid.linear_rank(coords)))
    out.sort(key=lambda item: item[1])
    return out
