"""Topology-agnostic interconnect abstraction of the Systems Module.

The paper's framework is machine-retargetable: the Systems Module is the only
machine-specific part, and the rest of the toolchain consumes the parameters
it exports.  This module provides the *structural* half of that abstraction —
how the compute nodes of a partition are wired together — as a small
:class:`Topology` base class with five implementations:

* :class:`HypercubeTopology` — the iPSC/860 Direct-Connect binary hypercube
  with dimension-ordered (e-cube) circuit-switched routing,
* :class:`MeshTopology`      — a Paragon-style 2-D wormhole mesh with
  deterministic XY (column-then-row) routing,
* :class:`TorusTopology`     — a 2-D wraparound mesh (T3D-class torus) with
  XY routing that takes the shorter way around each ring,
* :class:`SwitchedTopology`  — a Delta/cluster-style crossbar where every
  node pair is a constant number of hops apart through a central switch.
* :class:`FatTreeTopology`   — a CM-5-style k-ary fat tree whose link
  capacity doubles toward the root.

Every consumer (the analytic communication models, the message-level network
simulator, the collective algorithms) dispatches through :class:`Topology`,
so a new machine only has to provide a topology and a SAU parameter set.

Topologies also export the *collective schedules* the HPF runtime library
would use on them (binomial/recursive-doubling trees on the cube and the
switch, row–column trees on the mesh).  Both the static interpreter and the
simulator consume the same schedule, so estimate-vs-measurement differences
remain purely dynamic (contention, imbalance, jitter) rather than algorithmic.

The simulator's array drain reads routes and exchange schedules as numpy
arrays (:meth:`Topology.route_matrix`, :meth:`Topology.exchange_stages`).
:class:`Topology` derives both generically; the hypercube builds its route
matrix by bit arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Hashable

import numpy as np

from ..frontend.errors import ReproError

#: A directed traversal of one physical link, as an (origin, destination) pair
#: of node labels.  The switch in a :class:`SwitchedTopology` appears as the
#: pseudo-node :data:`SWITCH_NODE`.
Hop = tuple[int, int]

#: One stage of a collective schedule: (sender_position, receiver_position)
#: pairs that communicate concurrently.  Positions index into the ordered rank
#: list of the collective, not physical node labels.
Stage = list[tuple[int, int]]

#: Pseudo-node label of the central crossbar of a :class:`SwitchedTopology`.
SWITCH_NODE = -1


class TopologyError(ReproError, ValueError):
    """Raised for nodes outside a partition or unroutable endpoint pairs."""


class Topology:
    """Structural abstraction of one interconnect partition.

    A concrete topology sets ``num_nodes`` and provides :attr:`kind`,
    ``neighbors(node)`` and ``route(src, dst)`` (a list of :data:`Hop`).
    Everything else — link ids, hop counts, the route matrix the array
    drain reads, distances and the collective schedules — has a generic
    form here that a topology with a closed form may override.

    ``link_disjoint_paths`` advertises a structural contention guarantee to
    the network simulator's array drain: when True, any message set with
    distinct sources and distinct destinations is link-disjoint by
    construction (each node owns its ports into the fabric), so whole
    collective stages can be priced without walking their link sets.  Only
    the crossbar can promise this; wired fabrics share physical links
    between node pairs and are classified dynamically, stage by stage.
    """

    num_nodes: int
    link_disjoint_paths: bool = False

    @property
    def kind(self) -> str:
        raise NotImplementedError

    def nodes(self) -> range:
        return range(self.num_nodes)

    def _check(self, node: int, role: str = "node") -> None:
        if not 0 <= node < self.num_nodes:
            raise TopologyError(
                f"unroutable {role} {node}: outside the {self.num_nodes}-node "
                f"{self.kind} partition"
            )

    def link_id(self, a: int, b: int) -> Hashable:
        """Canonical (undirected) identifier of the link between *a* and *b*."""
        return (a, b) if a < b else (b, a)

    def links(self) -> set[Hashable]:
        out: set[Hashable] = set()
        for node in self.nodes():
            for other in self.neighbors(node):
                out.add(self.link_id(node, other))
        return out

    def hops(self, src: int, dst: int) -> int:
        return len(self.route(src, dst))

    def route_matrix(self, src: np.ndarray,
                     dst: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Routes of the messages ``src[k] -> dst[k]`` as ``(links, hops)``.

        ``links`` is an ``(n, H)`` int64 matrix whose row *k* holds the ids
        of message *k*'s links in route order, padded with -1 past
        ``hops[k]``.  Two entries share an id exactly when their hops share
        a :meth:`link_id`; ids mean nothing across calls.  This generic form
        walks :meth:`route` message by message and numbers the link ids it
        meets; a topology whose routes have a closed form overrides it.
        """
        ids: dict[Hashable, int] = {}
        rows = [[ids.setdefault(self.link_id(a, b), len(ids))
                 for a, b in self.route(s, d)]
                for s, d in zip(np.asarray(src).tolist(), np.asarray(dst).tolist())]
        hops = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
        links = np.full((len(rows), int(hops.max(initial=0))), -1, dtype=np.int64)
        links[np.arange(links.shape[1]) < hops[:, None]] = np.fromiter(
            (lid for row in rows for lid in row), dtype=np.int64,
            count=int(hops.sum()))
        return links, hops

    def average_distance(self) -> float:
        if self.num_nodes <= 1:
            return 0.0
        total = count = 0
        for a in self.nodes():
            for b in self.nodes():
                if a != b:
                    total += self.hops(a, b)
                    count += 1
        return total / count

    def diameter(self) -> int:
        if self.num_nodes <= 1:
            return 0
        return max(self.hops(a, b) for a in self.nodes() for b in self.nodes())

    def bisection_links(self) -> int:
        """Links crossing the label-halving cut of the partition."""
        half = self.num_nodes // 2
        if half == 0:
            return 0
        crossing = 0
        for node in self.nodes():
            for other in self.neighbors(node):
                if node < half <= other:
                    crossing += 1
        return crossing

    # -- collective schedules -------------------------------------------------

    def broadcast_schedule(self, p: int) -> list[Stage]:
        """Binomial broadcast tree over positions 0..p-1 (root at position 0)."""
        stages: list[Stage] = []
        span = 1
        while span < p:
            stage = [(i, i + span) for i in range(span) if i + span < p]
            if stage:
                stages.append(stage)
            span <<= 1
        return stages

    def exchange_stages(self, p: int) -> list[tuple[np.ndarray, np.ndarray]]:
        """Recursive-doubling pairwise-exchange stages over positions 0..p-1.

        Stage *s* pairs position ``i`` with ``j = i ^ 2**s`` for every
        ``i < j < p``, as two int64 position arrays ``(i, j)`` in ascending
        ``i``.  This is where a topology defines its exchange schedule;
        :meth:`exchange_schedule` is the list view of it.
        """
        positions = np.arange(p, dtype=np.int64)
        stages = []
        span = 1
        while span < p:                 # position 0 always pairs with span
            low = positions[:p - span]              # j = i ^ span < p ...
            low = low[(low & span) == 0]            # ... and i < j
            stages.append((low, low | span))
            span <<= 1
        return stages

    def exchange_schedule(self, p: int) -> list[Stage]:
        """:meth:`exchange_stages` as lists of ``(i, j)`` position pairs."""
        return [list(zip(i.tolist(), j.tolist()))
                for i, j in self.exchange_stages(p)]


# ---------------------------------------------------------------------------
# hypercube
# ---------------------------------------------------------------------------


def cube_dimension(num_nodes: int) -> int:
    """Dimension of the smallest hypercube holding *num_nodes* nodes."""
    if num_nodes <= 1:
        return 0
    return int(math.ceil(math.log2(num_nodes)))


def hamming_distance(a: int, b: int) -> int:
    return bin(a ^ b).count("1")


def cube_neighbors(node: int, num_nodes: int) -> list[int]:
    """Hypercube neighbours of *node* that exist in a *num_nodes* partition."""
    dim = cube_dimension(num_nodes)
    out = []
    for d in range(dim):
        other = node ^ (1 << d)
        if other < num_nodes:
            out.append(other)
    return out


def ecube_route(src: int, dst: int) -> list[Hop]:
    """Classic e-cube route from *src* to *dst* (ascending dimension order)."""
    route: list[Hop] = []
    current = src
    diff = src ^ dst
    dim = 0
    while diff:
        if diff & 1:
            nxt = current ^ (1 << dim)
            route.append((current, nxt))
            current = nxt
        diff >>= 1
        dim += 1
    return route


def link_id(a: int, b: int) -> tuple[int, int]:
    """Canonical (undirected) identifier of the link between adjacent nodes."""
    return (a, b) if a < b else (b, a)


@dataclass(frozen=True)
class HypercubeTopology(Topology):
    """A *num_nodes*-node partition of a binary hypercube.

    Non-power-of-two partitions use the first ``num_nodes`` labels of the
    enclosing cube.  Routing is dimension-ordered; when the classic ascending
    e-cube path would pass through a label outside the partition, the route
    falls back to clearing the source's surplus address bits before setting
    the destination's (every intermediate label then stays ≤ max(src, dst),
    hence inside the partition), so ``route`` never visits a missing node.
    """

    num_nodes: int

    @property
    def kind(self) -> str:
        return "hypercube"

    @property
    def dimension(self) -> int:
        return cube_dimension(self.num_nodes)

    def neighbors(self, node: int) -> list[int]:
        self._check(node)
        return cube_neighbors(node, self.num_nodes)

    def hops(self, src: int, dst: int) -> int:
        self._check(src, "source")
        self._check(dst, "destination")
        return hamming_distance(src, dst)

    def route(self, src: int, dst: int) -> list[Hop]:
        self._check(src, "source")
        self._check(dst, "destination")
        route = ecube_route(src, dst)
        if all(b < self.num_nodes for _, b in route):
            return route
        return self._partition_safe_route(src, dst)

    def route_matrix(self, src: np.ndarray,
                     dst: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`Topology.route_matrix` by e-cube bit arithmetic.

        The hop across dimension ``d`` leaves ``cur = src ^ (diff & ((1 << d)
        - 1))`` and its id is ``(cur & ~(1 << d)) * D + d``: the link's lower
        endpoint times the cube dimension ``D``, plus ``d``, which is one id
        per :meth:`link_id`.  As in :meth:`route`, a row whose e-cube route
        leaves a non-power-of-two partition takes the partition-safe route.
        """
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        outside = (src < 0) | (src >= self.num_nodes) \
            | (dst < 0) | (dst >= self.num_nodes)
        if outside.any():
            k = int(np.flatnonzero(outside)[0])
            self.route(int(src[k]), int(dst[k]))          # raises TopologyError
        n = src.shape[0]
        links = np.full((n, self.dimension), -1, dtype=np.int64)
        hops = np.zeros(n, dtype=np.int64)
        peak = self._walk(src.copy(), src ^ dst, links, hops)
        unsafe = np.flatnonzero(peak >= self.num_nodes)
        if unsafe.size:
            s, d = src[unsafe], dst[unsafe]
            safe_links = np.full((unsafe.size, self.dimension), -1, dtype=np.int64)
            safe_hops = np.zeros(unsafe.size, dtype=np.int64)
            cur = s.copy()
            self._walk(cur, s & ~d, safe_links, safe_hops)    # clear src-only bits
            self._walk(cur, d & ~s, safe_links, safe_hops)    # set dst-only bits
            links[unsafe] = safe_links
            hops[unsafe] = safe_hops
        return links[:, :int(hops.max(initial=0))], hops

    def _walk(self, cur: np.ndarray, flips: np.ndarray, links: np.ndarray,
              hops: np.ndarray) -> np.ndarray:
        """Append to each row of *links* the hops that flip the set bits of
        *flips* in *cur*, lowest dimension first.

        *cur* and the per-row hop counts *hops* advance in place.  Returns
        the highest label each row visits.
        """
        dim = self.dimension
        peak = cur.copy()
        for d in range(dim):
            bit = 1 << d
            rows = np.flatnonzero(flips & bit)
            if rows.size == 0:
                continue
            here = cur[rows]
            links[rows, hops[rows]] = (here & ~bit) * dim + d
            hops[rows] += 1
            cur[rows] = here ^ bit
            peak[rows] = np.maximum(peak[rows], cur[rows])
        return peak

    def _partition_safe_route(self, src: int, dst: int) -> list[Hop]:
        """Dimension-ordered route that clears bits before setting them."""
        route: list[Hop] = []
        current = src
        for dim in range(self.dimension):          # clear src-only bits
            bit = 1 << dim
            if current & bit and not dst & bit:
                nxt = current ^ bit
                route.append((current, nxt))
                current = nxt
        for dim in range(self.dimension):          # set dst-only bits
            bit = 1 << dim
            if dst & bit and not current & bit:
                nxt = current ^ bit
                route.append((current, nxt))
                current = nxt
        return route

    def diameter(self) -> int:
        if self.num_nodes <= 1:
            return 0
        return max(hamming_distance(a, b)
                   for a in self.nodes() for b in self.nodes())

    def average_distance(self) -> float:
        if self.num_nodes <= 1:
            return 0.0
        return _hypercube_average_distance(self.num_nodes)


@lru_cache(maxsize=None)
def _hypercube_average_distance(p: int) -> float:
    """Mean pairwise hop distance of a *p*-node hypercube partition."""
    if p & (p - 1) == 0:           # full cube: closed form
        dim = p.bit_length() - 1
        return dim * p / (2.0 * (p - 1))
    total = sum(hamming_distance(a, b)
                for a in range(p) for b in range(p) if a != b)
    return total / (p * (p - 1))


# ---------------------------------------------------------------------------
# 2-D mesh
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MeshTopology(Topology):
    """A ``rows`` × ``cols`` 2-D mesh (non-toroidal) with XY wormhole routing.

    Node labels are row-major: node ``r * cols + c`` sits at row *r*, column
    *c*.  A message first travels along its row to the destination column,
    then along that column — the deterministic, deadlock-free XY order of the
    Paragon's wormhole routers.  All XY routes are minimal (Manhattan length).
    """

    rows: int
    cols: int

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise TopologyError(f"invalid mesh shape {self.rows}x{self.cols}")

    @property
    def num_nodes(self) -> int:  # type: ignore[override]
        return self.rows * self.cols

    @property
    def kind(self) -> str:
        return "mesh"

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def coords(self, node: int) -> tuple[int, int]:
        self._check(node)
        return divmod(node, self.cols)

    def node_at(self, row: int, col: int) -> int:
        return row * self.cols + col

    def neighbors(self, node: int) -> list[int]:
        row, col = self.coords(node)
        out = []
        if col > 0:
            out.append(self.node_at(row, col - 1))
        if col < self.cols - 1:
            out.append(self.node_at(row, col + 1))
        if row > 0:
            out.append(self.node_at(row - 1, col))
        if row < self.rows - 1:
            out.append(self.node_at(row + 1, col))
        return out

    def hops(self, src: int, dst: int) -> int:
        (r1, c1), (r2, c2) = self.coords(src), self.coords(dst)
        return abs(r1 - r2) + abs(c1 - c2)

    def route(self, src: int, dst: int) -> list[Hop]:
        self._check(src, "source")
        self._check(dst, "destination")
        (row, col), (drow, dcol) = self.coords(src), self.coords(dst)
        route: list[Hop] = []
        current = src
        step = 1 if dcol > col else -1
        while col != dcol:                        # X leg: along the row
            col += step
            nxt = self.node_at(row, col)
            route.append((current, nxt))
            current = nxt
        step = 1 if drow > row else -1
        while row != drow:                        # Y leg: along the column
            row += step
            nxt = self.node_at(row, col)
            route.append((current, nxt))
            current = nxt
        return route

    def diameter(self) -> int:
        return (self.rows - 1) + (self.cols - 1)

    def average_distance(self) -> float:
        n = self.num_nodes
        if n <= 1:
            return 0.0
        # closed form: sum of |Δr| (resp. |Δc|) over all ordered node pairs is
        # cols² · rows(rows²-1)/3 (resp. rows² · cols(cols²-1)/3)
        rows, cols = self.rows, self.cols
        total = (cols * cols * rows * (rows * rows - 1)
                 + rows * rows * cols * (cols * cols - 1)) / 3.0
        return total / (n * (n - 1))

    def bisection_links(self) -> int:
        # cutting the longer dimension in half severs one link per cross line
        if self.cols >= self.rows:
            return self.rows if self.cols > 1 else 0
        return self.cols if self.rows > 1 else 0

    def broadcast_schedule(self, p: int) -> list[Stage]:
        """Row–column tree: binomial along the root's row, then down columns."""
        if p <= 1:
            return []
        rows, cols = (self.rows, self.cols) if p == self.num_nodes \
            else near_square_shape(p)
        stages: list[Stage] = []
        span = 1
        while span < cols:                        # row phase (row 0 only)
            stage = [(c, c + span) for c in range(span)
                     if c + span < cols and c + span < p]
            if stage:
                stages.append(stage)
            span <<= 1
        span = 1
        while span < rows:                        # column phase (all columns)
            stage = []
            for col in range(cols):
                for row in range(span):
                    sender = row * cols + col
                    receiver = (row + span) * cols + col
                    if sender < p and receiver < p:
                        stage.append((sender, receiver))
            if stage:
                stages.append(stage)
            span <<= 1
        return stages


# ---------------------------------------------------------------------------
# 2-D torus
# ---------------------------------------------------------------------------


def ring_distance(a: int, b: int, size: int) -> int:
    """Hop distance between positions *a* and *b* on a *size*-node ring."""
    d = abs(a - b) % size
    return min(d, size - d)


@dataclass(frozen=True)
class TorusTopology(MeshTopology):
    """A ``rows`` × ``cols`` 2-D torus: a mesh whose rows and columns wrap.

    Same row-major labelling and deterministic XY order as the mesh, but every
    row and every column closes into a ring and each leg takes the shorter way
    around its ring, so all routes are minimal.  Degenerate rings (size 1 or 2)
    collapse to the mesh links — wrap links that would duplicate a direct link
    are not doubled.
    """

    @property
    def kind(self) -> str:
        return "torus"

    def neighbors(self, node: int) -> list[int]:
        row, col = self.coords(node)
        out: list[int] = []
        for r, c in ((row, (col - 1) % self.cols), (row, (col + 1) % self.cols),
                     ((row - 1) % self.rows, col), ((row + 1) % self.rows, col)):
            other = self.node_at(r, c)
            if other != node and other not in out:
                out.append(other)
        return out

    def hops(self, src: int, dst: int) -> int:
        (r1, c1), (r2, c2) = self.coords(src), self.coords(dst)
        return ring_distance(r1, r2, self.rows) + ring_distance(c1, c2, self.cols)

    @staticmethod
    def _ring_step(pos: int, dpos: int, size: int) -> int:
        """Signed step (+1/-1) of the shorter way around a *size*-node ring."""
        forward = (dpos - pos) % size
        backward = (pos - dpos) % size
        return 1 if forward <= backward else -1

    def route(self, src: int, dst: int) -> list[Hop]:
        self._check(src, "source")
        self._check(dst, "destination")
        (row, col), (drow, dcol) = self.coords(src), self.coords(dst)
        route: list[Hop] = []
        current = src
        step = self._ring_step(col, dcol, self.cols)
        while col != dcol:                        # X leg: around the row ring
            col = (col + step) % self.cols
            nxt = self.node_at(row, col)
            route.append((current, nxt))
            current = nxt
        step = self._ring_step(row, drow, self.rows)
        while row != drow:                        # Y leg: around the column ring
            row = (row + step) % self.rows
            nxt = self.node_at(row, col)
            route.append((current, nxt))
            current = nxt
        return route

    def diameter(self) -> int:
        return self.rows // 2 + self.cols // 2

    def average_distance(self) -> float:
        n = self.num_nodes
        if n <= 1:
            return 0.0

        def ring_total(size: int) -> int:
            return size * sum(min(d, size - d) for d in range(1, size))

        total = (self.cols * self.cols * ring_total(self.rows)
                 + self.rows * self.rows * ring_total(self.cols))
        return total / (n * (n - 1))

    def bisection_links(self) -> int:
        # the wrap links double the mesh cut (unless they collapse onto the
        # direct links), so count crossings of the label-halving cut directly
        return Topology.bisection_links(self)


# ---------------------------------------------------------------------------
# fat tree
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FatTreeTopology(Topology):
    """A CM-5-class fat tree: compute nodes at the leaves of an *arity*-ary
    switch tree whose link capacity grows toward the root.

    Compute nodes carry labels ``0 .. num_nodes-1``; switches are pseudo-nodes
    with negative labels (one per (level, group, channel) triple).  A message
    climbs to the lowest switch level whose *arity*-ary group contains both
    endpoints and descends again, so the hop count is ``2 * merge_level`` —
    nodes in the same leaf group are 2 hops apart, the diameter is
    ``2 * levels``.

    The "fatness" is modelled the way the CM-5 data network built it: above
    the leaf switches each group connects to multiple *parallel* parent
    switches (channel count doubling per level, capped at
    ``max_channel_width``), and a route picks its channel deterministically
    from ``(src + dst)``.  Disjoint message pairs therefore spread across the
    parallel upper links, which is exactly the contention relief a fat tree
    buys; the network simulator sees it through distinct link ids.

    Collective schedules stay the binomial / recursive-doubling defaults; the
    CM-5's dedicated control network shows up in the machine parameter set
    (cheap barriers), not in the data-network structure.
    """

    num_nodes: int
    arity: int = 4
    max_channel_width: int = 4

    def __post_init__(self):
        if self.num_nodes < 1:
            raise TopologyError(
                f"a fat tree needs at least one node, got {self.num_nodes}")
        if self.arity < 2:
            raise TopologyError(f"fat-tree arity must be >= 2, got {self.arity}")

    @property
    def kind(self) -> str:
        return "fattree"

    @property
    def levels(self) -> int:
        """Switch levels between a leaf and the root (>= 1).

        Computed by integer doubling, not ``math.log`` — float error on exact
        powers (e.g. ``log(125, 5) = 3.0000000000000004``) would overstate
        the level count and desynchronise it from :meth:`merge_level`.
        """
        levels = 1
        capacity = self.arity
        while capacity < self.num_nodes:
            capacity *= self.arity
            levels += 1
        return levels

    def _width(self, level: int) -> int:
        """Parallel switch channels at *level* (1 at the leaves, doubling up)."""
        return min(2 ** (level - 1), self.max_channel_width)

    def _switch(self, level: int, group: int, channel: int) -> int:
        """Negative pseudo-node label of one (level, group, channel) switch."""
        base = 0
        for l in range(1, level):
            groups = -(-self.num_nodes // self.arity ** l)
            base += groups * self._width(l)
        return -(1 + base + group * self._width(level) + channel)

    def merge_level(self, src: int, dst: int) -> int:
        """Lowest switch level whose group contains both endpoints."""
        level = 1
        while src // self.arity ** level != dst // self.arity ** level:
            level += 1
        return level

    def neighbors(self, node: int) -> list[int]:
        """Compute nodes sharing *node*'s leaf switch (the 2-hop peers)."""
        self._check(node)
        group = node // self.arity
        lo = group * self.arity
        hi = min(lo + self.arity, self.num_nodes)
        return [other for other in range(lo, hi) if other != node]

    def hops(self, src: int, dst: int) -> int:
        self._check(src, "source")
        self._check(dst, "destination")
        if src == dst:
            return 0
        return 2 * self.merge_level(src, dst)

    def route(self, src: int, dst: int) -> list[Hop]:
        self._check(src, "source")
        self._check(dst, "destination")
        if src == dst:
            return []
        top = self.merge_level(src, dst)
        channel_seed = src + dst
        path = [src]
        for level in range(1, top + 1):            # climb the source side
            path.append(self._switch(level, src // self.arity ** level,
                                     channel_seed % self._width(level)))
        for level in range(top - 1, 0, -1):        # descend the destination side
            path.append(self._switch(level, dst // self.arity ** level,
                                     channel_seed % self._width(level)))
        path.append(dst)
        return [(path[i], path[i + 1]) for i in range(len(path) - 1)]

    def links(self) -> set[Hashable]:
        out: set[Hashable] = set()
        for a in self.nodes():
            for b in self.nodes():
                if a != b:
                    out.update(self.link_id(x, y) for x, y in self.route(a, b))
        return out

    def diameter(self) -> int:
        if self.num_nodes <= 1:
            return 0
        return 2 * self.merge_level(0, self.num_nodes - 1)

    def average_distance(self) -> float:
        # called on the interpretation hot path (unstructured gathers price
        # their hop count from it), so use the cached closed form rather
        # than Topology's all-pairs walk
        return _fattree_average_distance(self.num_nodes, self.arity)

    def bisection_links(self) -> int:
        """Parallel root-level links available to the label-halving cut."""
        half = self.num_nodes // 2
        if half == 0:
            return 0
        top = self.levels
        if top == 1:
            return half                     # one switch: the cut severs node links
        subtree = self.arity ** (top - 1)
        lower_groups = max(half // subtree, 1)
        return lower_groups * self._width(top)


@lru_cache(maxsize=None)
def _fattree_average_distance(n: int, arity: int) -> float:
    """Mean pairwise hop distance of an *n*-leaf, *arity*-ary fat tree.

    Ordered pairs are binned by merge level: the pairs whose endpoints share
    a level-``l`` group but no level-``l-1`` group are exactly ``2 * l`` hops
    apart.  Same-group pair counts have a closed form per level, so this is
    O(levels) instead of the O(n² log n) all-pairs walk.
    """
    if n <= 1:
        return 0.0

    def same_group_pairs(level: int) -> int:
        size = arity ** level
        full, remainder = divmod(n, size)
        return full * size * (size - 1) + remainder * (remainder - 1)

    total_pairs = n * (n - 1)
    total_hops = 0
    previous = 0                    # same_group_pairs(0): none (a != b)
    level = 1
    while previous < total_pairs:
        current = same_group_pairs(level)
        total_hops += (current - previous) * 2 * level
        previous = current
        level += 1
    return total_hops / total_pairs


# ---------------------------------------------------------------------------
# switched cluster
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SwitchedTopology(Topology):
    """A cluster whose nodes all hang off one central crossbar switch.

    Every node owns a dedicated up-link into the switch and a dedicated
    down-link out of it, so any source-destination pair is exactly
    ``switch_hops`` apart and disjoint pairs never contend inside the fabric
    (contention only arises at a node's own ports).  This models Delta-class
    service networks and switched workstation clusters.  Because the only
    links are per-node ports, any stage with distinct sources and distinct
    destinations is link-disjoint by construction — the topology advertises
    that through ``link_disjoint_paths`` and the network's array drain prices
    such stages with one vectorised expression.
    """

    num_nodes: int
    switch_hops: int = 2
    link_disjoint_paths = True

    @property
    def kind(self) -> str:
        return "switch"

    def neighbors(self, node: int) -> list[int]:
        self._check(node)
        return [other for other in self.nodes() if other != node]

    def hops(self, src: int, dst: int) -> int:
        self._check(src, "source")
        self._check(dst, "destination")
        return 0 if src == dst else self.switch_hops

    def route(self, src: int, dst: int) -> list[Hop]:
        self._check(src, "source")
        self._check(dst, "destination")
        if src == dst:
            return []
        return [(src, SWITCH_NODE), (SWITCH_NODE, dst)]

    def link_id(self, a: int, b: int) -> Hashable:
        if b == SWITCH_NODE:
            return ("up", a)
        if a == SWITCH_NODE:
            return ("down", b)
        return (a, b) if a < b else (b, a)

    def links(self) -> set[Hashable]:
        out: set[Hashable] = set()
        for node in self.nodes():
            out.add(("up", node))
            out.add(("down", node))
        return out

    def diameter(self) -> int:
        return 0 if self.num_nodes <= 1 else self.switch_hops

    def average_distance(self) -> float:
        return 0.0 if self.num_nodes <= 1 else float(self.switch_hops)

    def bisection_links(self) -> int:
        return self.num_nodes // 2


# ---------------------------------------------------------------------------
# factory
# ---------------------------------------------------------------------------


def near_square_shape(p: int) -> tuple[int, int]:
    """Factor *p* into the most nearly square (rows, cols) with rows ≤ cols."""
    p = max(int(p), 1)
    rows = 1
    for candidate in range(int(math.isqrt(p)), 0, -1):
        if p % candidate == 0:
            rows = candidate
            break
    return rows, p // rows


_TOPOLOGY_ALIASES = {
    "hypercube": "hypercube",
    "cube": "hypercube",
    "mesh": "mesh",
    "mesh2d": "mesh",
    "torus": "torus",
    "torus2d": "torus",
    "wrapmesh": "torus",
    "switch": "switch",
    "switched": "switch",
    "crossbar": "switch",
    "fattree": "fattree",
    "fat-tree": "fattree",
    "fat_tree": "fattree",
    "tree": "fattree",
}

#: Topology kinds that accept a (rows, cols) ``shape=`` override.
SHAPED_KINDS = ("mesh", "torus")


def make_topology(kind: str, num_nodes: int, *,
                  shape: tuple[int, int] | None = None,
                  switch_hops: int = 2,
                  arity: int = 4) -> Topology:
    """Build a topology of *kind* over *num_nodes* nodes.

    ``shape`` overrides the near-square factorisation used for meshes and
    tori; a shape whose product is not *num_nodes* raises
    :class:`TopologyError`.  ``arity`` is the switch fan-out of a fat tree.
    """
    if num_nodes < 1:
        raise TopologyError(f"a partition needs at least one node, got {num_nodes}")
    canonical = _TOPOLOGY_ALIASES.get(kind.lower())
    if canonical is None:
        raise TopologyError(
            f"unknown topology kind {kind!r}; known: "
            f"{sorted(set(_TOPOLOGY_ALIASES.values()))}")
    if canonical == "hypercube":
        return HypercubeTopology(num_nodes)
    if canonical in SHAPED_KINDS:
        rows, cols = shape if shape is not None else near_square_shape(num_nodes)
        if rows * cols != num_nodes:
            raise TopologyError(
                f"{canonical} shape {rows}x{cols} does not hold {num_nodes} nodes"
                f" ({rows}*{cols} = {rows * cols})")
        cls = MeshTopology if canonical == "mesh" else TorusTopology
        return cls(rows, cols)
    if canonical == "fattree":
        return FatTreeTopology(num_nodes, arity=arity)
    return SwitchedTopology(num_nodes, switch_hops=switch_hops)
