"""Distribution descriptors: per-dimension formats and whole-array mappings.

The central class is :class:`ArrayDistribution`, which records — for one
array — the result of applying the program's ALIGN and DISTRIBUTE directives:
for every array axis, whether it is divided BLOCK or CYCLIC across a
processor-grid axis or kept whole on every processor (collapsed / ``*``), and
how global indices translate to owning processors and local indices.

This object is shared verbatim between the compiler (owner-computes
partitioning and communication detection), the interpretation engine (local
iteration counts, message sizes) and the simulator (NumPy block carving), so
all three agree on layout.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import layout
from .processors import ProcessorGrid


@dataclass(frozen=True)
class DimDistribution:
    """Distribution format of a single template/array dimension."""

    kind: str = "collapsed"     # 'block' | 'cyclic' | 'collapsed'
    block: int = 1              # block size for cyclic(k); ignored otherwise

    def __post_init__(self) -> None:
        if self.kind not in ("block", "cyclic", "collapsed"):
            raise ValueError(f"unknown distribution kind {self.kind!r}")
        if self.block <= 0:
            raise ValueError("cyclic block size must be positive")

    @property
    def is_distributed(self) -> bool:
        return self.kind != "collapsed"

    def describe(self) -> str:
        if self.kind == "collapsed":
            return "*"
        if self.kind == "cyclic" and self.block != 1:
            return f"CYCLIC({self.block})"
        return self.kind.upper()

    @classmethod
    def from_format(cls, fmt: str, block: int | None = None) -> "DimDistribution":
        fmt = fmt.lower()
        if fmt == "*":
            return cls(kind="collapsed")
        if fmt == "block":
            return cls(kind="block")
        if fmt == "cyclic":
            return cls(kind="cyclic", block=int(block) if block else 1)
        raise ValueError(f"unsupported distribution format {fmt!r}")


@dataclass(frozen=True)
class AxisMapping:
    """How one array axis is mapped onto the machine.

    ``extent``            global extent of the array axis.
    ``dist``              BLOCK / CYCLIC / collapsed format.
    ``nprocs``            number of processors across this axis (1 if collapsed).
    ``grid_axis``         processor-grid axis index, or None if collapsed.
    ``template_extent``   extent of the template axis the array axis is aligned to.
    ``offset``            alignment offset: array index i lives at template index i+offset.
    """

    extent: int
    dist: DimDistribution = field(default_factory=DimDistribution)
    nprocs: int = 1
    grid_axis: Optional[int] = None
    template_extent: Optional[int] = None
    offset: int = 0

    @property
    def is_distributed(self) -> bool:
        return self.dist.is_distributed and self.nprocs > 1

    @property
    def map_extent(self) -> int:
        """Extent of the index space ownership is computed over (template extent)."""
        return self.template_extent if self.template_extent is not None else self.extent

    def owner(self, gidx: int) -> int:
        """Owning processor coordinate along this axis for global index *gidx* (0-based)."""
        if not self.is_distributed:
            return 0
        tidx = gidx + self.offset
        if self.dist.kind == "block":
            return layout.block_owner(tidx, self.map_extent, self.nprocs)
        return layout.cyclic_owner(tidx, self.nprocs, self.dist.block)

    def local_count(self, pcoord: int) -> int:
        """Number of array elements along this axis owned by processor coordinate *pcoord*.

        Index arithmetic, equal to ``len(local_indices(pcoord))``: the
        processor's template indices that fall inside the array's window.
        """
        if not self.is_distributed:
            return self.extent
        # the array's half-open window of template indices, clipped to the
        # template: exactly the template indices local_indices keeps
        lo = max(self.offset, 0)
        hi = max(min(self.offset + self.extent, self.map_extent), lo)
        if self.dist.kind == "block":
            first, last = layout.block_bounds(pcoord, self.map_extent, self.nprocs)
            return max(min(last, hi) - max(first, lo), 0)
        return (layout.cyclic_local_count(pcoord, hi, self.nprocs, self.dist.block)
                - layout.cyclic_local_count(pcoord, lo, self.nprocs, self.dist.block))

    def local_indices(self, pcoord: int) -> np.ndarray:
        """Global indices (0-based, array index space) owned by *pcoord*, ascending."""
        if not self.is_distributed:
            return layout.collapsed_local_indices(self.extent)
        if self.dist.kind == "block":
            tidx = layout.block_local_indices(pcoord, self.map_extent, self.nprocs)
        else:
            tidx = layout.cyclic_local_indices(pcoord, self.map_extent, self.nprocs, self.dist.block)
        gidx = tidx - self.offset
        return gidx[(gidx >= 0) & (gidx < self.extent)]

    def owners_of(self, gidx: np.ndarray) -> np.ndarray:
        """Owning processor coordinate of every global (0-based) index in *gidx*.

        The vectorised membership test behind per-rank iteration counting:
        ``owners_of(values) == pcoord`` is elementwise-equal to
        ``np.isin(values, local_indices(pcoord))``.  Indices outside the
        array extent or its template map to ``-1`` (owned by nobody); for a
        collapsed axis every in-range index maps to coordinate ``0``.
        """
        g = np.asarray(gidx, dtype=np.int64)
        if not self.is_distributed:
            return np.where((g >= 0) & (g < self.extent), 0, -1)
        t = g + self.offset
        valid = (g >= 0) & (g < self.extent) & (t >= 0) & (t < self.map_extent)
        t = np.where(valid, t, 0)
        if self.dist.kind == "block":
            owners = layout.block_owner_array(t, self.map_extent, self.nprocs)
        else:
            owners = layout.cyclic_owner_array(t, self.nprocs, self.dist.block)
        return np.where(valid, owners, -1)

    def local_counts(self) -> np.ndarray:
        """Per-processor-coordinate element counts along this axis.

        Vectorised ``[local_count(p) for p in range(nprocs)]``; a collapsed
        axis yields a single entry (its count is coordinate-independent).
        """
        if not self.is_distributed:
            return np.array([self.extent], dtype=np.int64)
        owners = self.owners_of(np.arange(self.extent, dtype=np.int64))
        return np.bincount(owners[owners >= 0],
                           minlength=self.nprocs).astype(np.int64)

    def max_local_count(self) -> int:
        if not self.is_distributed:
            return self.extent
        if self.offset == 0 and self.map_extent == self.extent:
            return layout.max_local_count(self.extent, self.nprocs,
                                          self.dist.kind, self.dist.block)
        return max(self.local_count(p) for p in range(self.nprocs))

    def avg_local_count(self) -> float:
        if not self.is_distributed:
            return float(self.extent)
        return self.extent / self.nprocs

    def describe(self) -> str:
        if not self.is_distributed:
            return "*"
        return f"{self.dist.describe()}/{self.nprocs}p"


@dataclass
class ArrayDistribution:
    """Complete mapping of one array onto a processor grid."""

    name: str
    shape: tuple[int, ...]
    axes: list[AxisMapping]
    grid: Optional[ProcessorGrid] = None
    element_size: int = 4
    lower_bounds: tuple[int, ...] = ()
    template_name: Optional[str] = None

    def __post_init__(self) -> None:
        if len(self.axes) != len(self.shape):
            raise ValueError("one AxisMapping required per array dimension")
        if not self.lower_bounds:
            self.lower_bounds = tuple(1 for _ in self.shape)

    # -- basic properties ----------------------------------------------------

    @property
    def rank(self) -> int:
        return len(self.shape)

    @property
    def size(self) -> int:
        total = 1
        for extent in self.shape:
            total *= extent
        return total

    @property
    def is_replicated(self) -> bool:
        """True when the array is not divided across processors at all."""
        return self.grid is None or not any(axis.is_distributed for axis in self.axes)

    @property
    def nprocs(self) -> int:
        return self.grid.size if self.grid is not None else 1

    # -- ownership -------------------------------------------------------------

    def owner_coords(self, index: tuple[int, ...]) -> tuple[int, ...]:
        """Grid coordinates of the owner of the (0-based) global *index*."""
        if self.grid is None:
            return ()
        coords = [0] * self.grid.rank
        for axis_no, axis in enumerate(self.axes):
            if axis.grid_axis is not None and axis.is_distributed:
                coords[axis.grid_axis] = axis.owner(index[axis_no])
        return tuple(coords)

    def owner_rank(self, index: tuple[int, ...]) -> int:
        """Linear rank of the owner of global *index* (0 for replicated arrays)."""
        if self.grid is None:
            return 0
        return self.grid.linear_rank(self.owner_coords(index))

    # -- local views -------------------------------------------------------------

    def _axis_pcoord(self, rank: int, axis: AxisMapping) -> int:
        if self.grid is None or axis.grid_axis is None:
            return 0
        return self.grid.coords(rank)[axis.grid_axis]

    def local_shape(self, rank: int) -> tuple[int, ...]:
        """Shape of the local block owned by processor *rank*."""
        return tuple(
            axis.local_count(self._axis_pcoord(rank, axis)) for axis in self.axes
        )

    def local_indices(self, rank: int, axis_no: int) -> np.ndarray:
        """Global (0-based) indices along *axis_no* owned by *rank*."""
        axis = self.axes[axis_no]
        return axis.local_indices(self._axis_pcoord(rank, axis))

    def local_size(self, rank: int) -> int:
        total = 1
        for extent in self.local_shape(rank):
            total *= extent
        return total

    def axis_pcoords(self) -> np.ndarray:
        """``(nprocs, rank)`` array of every rank's coordinate along each axis.

        Row ``r`` column ``a`` equals the scalar ``_axis_pcoord(r, axes[a])``
        lookup the per-rank loops perform: the rank's grid coordinate along
        the axis's grid dimension, or ``0`` for unmapped axes.
        """
        p = max(self.nprocs, 1)
        out = np.zeros((p, self.rank), dtype=np.int64)
        if self.grid is None:
            return out
        coords = self.grid.coords_array()
        for axis_no, axis in enumerate(self.axes):
            if axis.grid_axis is not None:
                out[:, axis_no] = coords[:, axis.grid_axis]
        return out

    def local_sizes(self) -> np.ndarray:
        """Per-rank local element counts (vectorised ``local_size``)."""
        p = max(self.nprocs, 1)
        sizes = np.ones(p, dtype=np.int64)
        pcoords = self.axis_pcoords()
        for axis_no, axis in enumerate(self.axes):
            table = axis.local_counts()
            if table.shape[0] == 1:
                sizes *= int(table[0])
            else:
                sizes *= table[pcoords[:, axis_no]]
        return sizes

    def max_local_shape(self) -> tuple[int, ...]:
        return tuple(axis.max_local_count() for axis in self.axes)

    def max_local_size(self) -> int:
        total = 1
        for extent in self.max_local_shape():
            total *= extent
        return total

    def avg_local_size(self) -> float:
        total = 1.0
        for axis in self.axes:
            total *= axis.avg_local_count()
        return total

    # -- convenience ------------------------------------------------------------

    def describe(self) -> str:
        fmt = ", ".join(axis.describe() for axis in self.axes)
        onto = f" onto {self.grid.name}{self.grid.shape}" if self.grid else " [replicated]"
        return f"{self.name}({fmt}){onto}"

    @classmethod
    def replicated(
        cls, name: str, shape: tuple[int, ...], element_size: int = 4,
        lower_bounds: tuple[int, ...] = (),
    ) -> "ArrayDistribution":
        """A fully replicated array (the default mapping for undirected data)."""
        axes = [AxisMapping(extent=extent) for extent in shape]
        return cls(
            name=name,
            shape=shape,
            axes=axes,
            grid=None,
            element_size=element_size,
            lower_bounds=lower_bounds or tuple(1 for _ in shape),
        )
