"""The abstraction parse: SPMD node program → AAG → SAAG (§4.2).

The builder walks the loosely-synchronous SPMD program emitted by Phase 1 and
produces, per construct, the AAU structure described in §4.3 / Figure 2:

* a forall becomes ``Seq`` (pack/adjust) → ``Comm`` (gather) → ``IterD``
  (containing ``CondtD`` when masked) → optional ``Comm`` (write back),
* reductions become ``Reduce`` followed by a ``Comm`` (the collective combine),
* cshift/tshift library calls become ``Comm`` AAUs,
* replicated scalar code becomes ``Seq`` AAUs, and serial control flow
  (``do``/``if``) becomes ``IterD``/``CondtD`` AAUs with children.

It also fills the communication table and superimposes the
communication/synchronisation edges to yield the SAAG.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..compiler.comm_detect import comm_elements_per_proc
from ..compiler.pipeline import CompiledProgram
from ..compiler.spmd import (
    CommPhase,
    LocalLoopNest,
    NodeDo,
    NodeDoWhile,
    NodeIf,
    OwnerStmt,
    ReductionNode,
    SeqOverhead,
    SerialStmt,
    ShiftNode,
    SPMDNode,
)
from .aag import AAG
from .aau import AAU, AAUType
from .comm_table import CommunicationTable
from .critical_vars import resolve_critical_variables
from .saag import SAAG, SyncEdge


@dataclass
class _BuildState:
    next_id: int = 0

    def new_id(self) -> int:
        value = self.next_id
        self.next_id += 1
        return value


class AAGBuilder:
    """Builds the AAG (and, with :meth:`build_saag`, the SAAG) of a compiled program."""

    def __init__(self, compiled: CompiledProgram):
        self.compiled = compiled
        self.state = _BuildState()
        self.comm_table = CommunicationTable()
        self._pending_edges: list[SyncEdge] = []

    # ------------------------------------------------------------------
    # AAG construction
    # ------------------------------------------------------------------

    def build_aag(self) -> AAG:
        root = AAU(
            id=self.state.new_id(),
            type=AAUType.SEQ,
            name=f"program {self.compiled.name}",
            line=self.compiled.program.line,
        )
        self._build_children(self.compiled.spmd.nodes, root)
        return AAG(root=root, program_name=self.compiled.name)

    def _build_children(self, nodes: list[SPMDNode], parent: AAU) -> None:
        previous: AAU | None = None
        for node in nodes:
            aau = self._build_node(node)
            parent.add(aau)
            # Loosely-synchronous ordering edge between a computation AAU and
            # the communication AAU that follows (or precedes) it.
            if previous is not None and (
                previous.type in (AAUType.COMM, AAUType.SYNC)
                or aau.type in (AAUType.COMM, AAUType.SYNC)
            ):
                self._pending_edges.append(SyncEdge(
                    source_id=previous.id, target_id=aau.id, kind="comm",
                    array=str(aau.detail.get("array", "")),
                ))
            previous = aau

    def _build_node(self, node: SPMDNode) -> AAU:
        if isinstance(node, SeqOverhead):
            return AAU(
                id=self.state.new_id(), type=AAUType.SEQ, name=node.kind,
                line=node.line, spmd_node=node,
                detail={"kind": node.kind, "items": node.items},
            )

        if isinstance(node, CommPhase):
            aau = AAU(
                id=self.state.new_id(), type=AAUType.COMM,
                name=f"comm phase ({node.purpose})", line=node.line, spmd_node=node,
                detail={"purpose": node.purpose, "n_comms": len(node.comms)},
            )
            for spec in node.comms:
                elements = comm_elements_per_proc(spec, self.compiled.mapping)
                entry = self.comm_table.new_entry(
                    aau_id=aau.id,
                    kind=spec.kind,
                    array=spec.array,
                    axis=spec.axis,
                    offset=spec.offset,
                    reduce_op=spec.reduce_op,
                    element_size=spec.element_size,
                    elements_per_proc=elements,
                    bytes_per_proc=elements * spec.element_size,
                    line=spec.line or node.line,
                )
                aau.detail.setdefault("entries", []).append(entry.entry_id)
            return aau

        if isinstance(node, LocalLoopNest):
            aau = AAU(
                id=self.state.new_id(), type=AAUType.ITER,
                name=node.label or "local loop nest", line=node.line, spmd_node=node,
                detail={
                    "home_array": node.home_array,
                    "depth": node.depth,
                    "masked": node.mask is not None,
                },
            )
            if node.mask is not None:
                aau.add(AAU(
                    id=self.state.new_id(), type=AAUType.COND, name="forall mask",
                    line=node.line, spmd_node=node, detail={"mask": True},
                ))
            return aau

        if isinstance(node, ReductionNode):
            return AAU(
                id=self.state.new_id(), type=AAUType.REDUCE,
                name=node.label or f"global {node.op}", line=node.line, spmd_node=node,
                detail={"op": node.op, "target": node.target, "home_array": node.home_array},
            )

        if isinstance(node, ShiftNode):
            aau = AAU(
                id=self.state.new_id(), type=AAUType.COMM,
                name=node.label or f"cshift({node.source})", line=node.line, spmd_node=node,
                detail={"library": "cshift" if node.circular else "eoshift",
                        "array": node.source, "axis": node.axis},
            )
            dist = self.compiled.mapping.distribution_of(node.source)
            if dist is not None:
                boundary = 1.0
                for axis_no, axis in enumerate(dist.axes):
                    if axis_no != node.axis:
                        boundary *= max(axis.avg_local_count(), 1.0)
                entry = self.comm_table.new_entry(
                    aau_id=aau.id,
                    kind="shift",
                    array=node.source,
                    axis=node.axis,
                    offset=1,
                    element_size=dist.element_size,
                    elements_per_proc=boundary,
                    bytes_per_proc=boundary * dist.element_size,
                    line=node.line,
                )
                aau.detail.setdefault("entries", []).append(entry.entry_id)
            return aau

        if isinstance(node, (SerialStmt, OwnerStmt)):
            kind = "owner-computes statement" if isinstance(node, OwnerStmt) else "scalar statement"
            return AAU(
                id=self.state.new_id(), type=AAUType.SEQ,
                name=node.label or kind, line=node.line, spmd_node=node,
                detail={"kind": kind},
            )

        if isinstance(node, NodeDo):
            aau = AAU(
                id=self.state.new_id(), type=AAUType.ITER,
                name=node.label or f"do {node.var}", line=node.line, spmd_node=node,
                detail={"serial_loop": True, "var": node.var},
            )
            self._build_children(node.body, aau)
            return aau

        if isinstance(node, NodeDoWhile):
            aau = AAU(
                id=self.state.new_id(), type=AAUType.ITER,
                name=node.label or "do while", line=node.line, spmd_node=node,
                detail={"serial_loop": True, "while": True},
                deterministic=False,
            )
            self._build_children(node.body, aau)
            return aau

        if isinstance(node, NodeIf):
            aau = AAU(
                id=self.state.new_id(), type=AAUType.COND,
                name=node.label or "if construct", line=node.line, spmd_node=node,
                detail={"branches": len(node.branches), "has_else": bool(node.else_body)},
            )
            for branch_no, (_, body) in enumerate(node.branches):
                branch = AAU(
                    id=self.state.new_id(), type=AAUType.SEQ, name=f"branch {branch_no}",
                    line=node.line, detail={"branch": branch_no},
                )
                self._build_children(body, branch)
                aau.add(branch)
            if node.else_body:
                branch = AAU(
                    id=self.state.new_id(), type=AAUType.SEQ, name="else branch",
                    line=node.line, detail={"branch": "else"},
                )
                self._build_children(node.else_body, branch)
                aau.add(branch)
            return aau

        raise TypeError(f"cannot abstract SPMD node {type(node).__name__}")

    # ------------------------------------------------------------------
    # SAAG construction
    # ------------------------------------------------------------------

    def build_saag(
        self,
        aag: AAG | None = None,
        overrides: dict[str, float] | None = None,
    ) -> SAAG:
        aag = aag or self.build_aag()
        critical = resolve_critical_variables(
            self.compiled.normalized,
            self.compiled.symtable,
            overrides=overrides,
            base_env=self.compiled.mapping.env,
        )
        saag = SAAG(
            aag=aag,
            edges=list(self._pending_edges),
            comm_table=self.comm_table,
            critical_variables=critical,
        )
        # Reduction AAUs synchronise with the comm AAU that follows them.
        aaus = list(aag.walk())
        for index, aau in enumerate(aaus):
            if aau.type is AAUType.REDUCE and index + 1 < len(aaus):
                nxt = aaus[index + 1]
                if nxt.type is AAUType.COMM:
                    saag.add_edge(SyncEdge(
                        source_id=aau.id, target_id=nxt.id, kind="reduce",
                        array=str(aau.detail.get("home_array") or ""),
                    ))
        return saag


def build_aag(compiled: CompiledProgram) -> AAG:
    """Convenience: build just the AAG of a compiled program."""
    return AAGBuilder(compiled).build_aag()


def build_saag(
    compiled: CompiledProgram, overrides: dict[str, float] | None = None
) -> SAAG:
    """Convenience: run the full abstraction parse (AAG + SAAG + comm table)."""
    builder = AAGBuilder(compiled)
    aag = builder.build_aag()
    return builder.build_saag(aag, overrides=overrides)
