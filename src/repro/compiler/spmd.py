"""The loosely-synchronous SPMD intermediate representation.

Phase 1 of the framework (§4.1) translates an HPF/Fortran 90D program into a
"loosely synchronous SPMD program structure ... consisting of alternating
phases of local computation and global communication".  This module defines
that structure.  It is the hand-off artefact between the compiler and

* the **Application Module** (which abstracts it into AAUs / the AAG / SAAG),
* the **interpretation engine** (which charges each node against SAU
  parameters), and
* the **simulator** (which executes each node per-rank to produce "measured"
  times).

The node program is a tree: serial control flow (``NodeDo`` / ``NodeIf`` /
``NodeDoWhile``) wraps sequences of :class:`CommPhase`, :class:`LocalLoopNest`,
:class:`ReductionNode`, :class:`ShiftNode` and :class:`SerialStmt` nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..distribution import ArrayDistribution, ProcessorGrid
from ..frontend import ast_nodes as ast


# ---------------------------------------------------------------------------
# Communication specifications
# ---------------------------------------------------------------------------


@dataclass
class CommSpec:
    """One collective or point-to-point communication requirement.

    ``kind`` is one of:

    * ``'shift'``      — nearest-neighbour exchange of a boundary slab along one
                          distributed axis (constant-offset stencil access, cshift).
    * ``'gather'``     — general gather of off-processor data (unstructured or
                          indirect subscripts).
    * ``'broadcast'``  — one-to-all replication of a scalar or small block.
    * ``'reduce'``     — all-to-one (plus broadcast of the result: allreduce) of a
                          scalar under ``reduce_op``.
    * ``'writeback'``  — scatter of computed values back to their owners
                          (final communication level of a forall).
    """

    kind: str
    array: str = ""
    axis: Optional[int] = None
    offset: int = 0
    reduce_op: Optional[str] = None
    element_size: int = 4
    description: str = ""
    line: int = 0


# ---------------------------------------------------------------------------
# SPMD nodes
# ---------------------------------------------------------------------------


@dataclass
class SPMDNode:
    """Base class of all SPMD node-program constructs."""

    line: int = 0
    label: str = ""


@dataclass
class SeqOverhead(SPMDNode):
    """Sequential bookkeeping emitted around communication (index translation,
    parameter packing, bounds adjustment) — the ``Seq`` AAU of Figure 2."""

    kind: str = "pack_parameters"   # 'pack_parameters' | 'adjust_bounds' | 'index_translation'
    items: int = 1                  # how many parameters / bounds are handled


@dataclass
class CommPhase(SPMDNode):
    """A global communication phase (one or more collective operations)."""

    comms: list[CommSpec] = field(default_factory=list)
    purpose: str = "gather-in"      # 'gather-in' | 'write-back' | 'reduction' | 'broadcast'

    @property
    def is_empty(self) -> bool:
        return not self.comms


@dataclass
class LoopDim:
    """One dimension of a sequentialised forall loop nest."""

    var: str
    lo: ast.Expr
    hi: ast.Expr
    step: Optional[ast.Expr] = None
    home_axis: Optional[int] = None   # axis of the home array this index sweeps


@dataclass
class LocalLoopNest(SPMDNode):
    """The local-computation level of a sequentialised forall (IterD AAU).

    The iteration space is the intersection of the global triplets with the
    indices of ``home_array`` owned by the executing processor (owner-computes
    rule); ``mask`` adds a conditional (CondtD AAU) inside the loop body.
    """

    home_array: Optional[str] = None
    loops: list[LoopDim] = field(default_factory=list)
    mask: Optional[ast.Expr] = None
    body: list[ast.Assignment] = field(default_factory=list)
    origin: Optional[ast.Stmt] = None

    @property
    def depth(self) -> int:
        return len(self.loops)


@dataclass
class ReductionNode(SPMDNode):
    """A global reduction: local partial reduction + collective combine.

    ``target`` is the scalar receiving the result (replicated on every node);
    ``op`` is 'sum' | 'product' | 'max' | 'min' | 'maxloc' | 'minloc' | 'count' |
    'dot_product'; ``source`` is the element expression reduced over the home
    array's index space.
    """

    target: str = ""
    op: str = "sum"
    source: ast.Expr = None  # type: ignore[assignment]
    home_array: Optional[str] = None
    loops: list[LoopDim] = field(default_factory=list)
    mask: Optional[ast.Expr] = None
    origin: Optional[ast.Stmt] = None
    second_source: Optional[ast.Expr] = None   # for dot_product


@dataclass
class ShiftNode(SPMDNode):
    """``target = cshift(source, offset, dim)`` on a distributed array.

    Implemented as boundary exchange + local copy; ``circular`` distinguishes
    cshift from eoshift/tshift (end-off shift filling with ``fill``).
    """

    target: str = ""
    source: str = ""
    axis: int = 0
    offset_expr: ast.Expr = None  # type: ignore[assignment]
    circular: bool = True
    fill: Optional[ast.Expr] = None
    origin: Optional[ast.Stmt] = None


@dataclass
class SerialStmt(SPMDNode):
    """A replicated scalar statement executed identically by every node."""

    stmt: ast.Stmt = None  # type: ignore[assignment]


@dataclass
class OwnerStmt(SPMDNode):
    """A single distributed-array element assignment executed only by its owner."""

    stmt: ast.Assignment = None  # type: ignore[assignment]
    array: str = ""
    comms: list[CommSpec] = field(default_factory=list)


@dataclass
class NodeDo(SPMDNode):
    """A replicated serial DO loop whose body may contain parallel phases."""

    var: str = "i"
    start: ast.Expr = None  # type: ignore[assignment]
    end: ast.Expr = None    # type: ignore[assignment]
    step: Optional[ast.Expr] = None
    body: list[SPMDNode] = field(default_factory=list)
    origin: Optional[ast.Stmt] = None


@dataclass
class NodeDoWhile(SPMDNode):
    """A replicated DO WHILE loop (iteration count is a critical variable)."""

    cond: ast.Expr = None  # type: ignore[assignment]
    body: list[SPMDNode] = field(default_factory=list)
    origin: Optional[ast.Stmt] = None


@dataclass
class NodeIf(SPMDNode):
    """A replicated IF construct whose branches may contain parallel phases."""

    branches: list[tuple[ast.Expr, list["SPMDNode"]]] = field(default_factory=list)
    else_body: list["SPMDNode"] = field(default_factory=list)
    origin: Optional[ast.Stmt] = None


# ---------------------------------------------------------------------------
# The compiled program container
# ---------------------------------------------------------------------------


@dataclass
class SPMDProgram:
    """A complete compiled node program plus its mapping context."""

    name: str
    nodes: list[SPMDNode]
    grid: ProcessorGrid
    distributions: dict[str, ArrayDistribution]
    scalars: dict[str, str] = field(default_factory=dict)  # name -> type
    source_name: str = "<string>"

    def walk(self):
        """Yield every SPMD node depth-first (pre-order)."""

        def visit(nodes: list[SPMDNode]):
            for node in nodes:
                yield node
                if isinstance(node, (NodeDo, NodeDoWhile)):
                    yield from visit(node.body)
                elif isinstance(node, NodeIf):
                    for _, body in node.branches:
                        yield from visit(body)
                    yield from visit(node.else_body)

        yield from visit(self.nodes)

    def communication_phases(self) -> list[CommPhase]:
        return [n for n in self.walk() if isinstance(n, CommPhase)]

    def loop_nests(self) -> list[LocalLoopNest]:
        return [n for n in self.walk() if isinstance(n, LocalLoopNest)]

    def count_nodes(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for node in self.walk():
            counts[type(node).__name__] = counts.get(type(node).__name__, 0) + 1
        return counts
