"""The abstraction parse (§4.2): SPMD node program → SAAG, in one walk.

The walk visits each node of the loosely-synchronous SPMD program emitted by
Phase 1 once and builds its AAUs (§4.3 / Figure 2) together with the
machine-free parameters each one prices with (``AAU.params``):

* a forall becomes ``Seq`` (pack/adjust) → ``Comm`` (gather) → ``IterD``
  (containing ``CondtD`` when masked) → optional ``Comm`` (write back),
* reductions become ``Reduce`` followed by a ``Comm`` (the collective combine),
* cshift/tshift library calls become ``Comm`` AAUs,
* replicated scalar code becomes ``Seq`` AAUs, and serial control flow
  (``do``/``if``) becomes ``IterD``/``CondtD`` AAUs with children.

A leaf's parameters are its interpretation function's ``(pricer, data)``
(:mod:`repro.interpreter.functions`), a serial DO loop's are its trip count
and a conditional's its statically resolved branch (``None`` when a
condition does not resolve).  Critical variables are resolved before the
walk, so loop bounds and branch conditions read them.  Every communication a
pricer charges gets one communication-table entry of its planned size, and
the communication/synchronisation edges are superimposed as the walk goes.
Nothing here depends on the machine: one SAAG prices every machine, and
pricing only reads it.
"""

from __future__ import annotations

import math
from itertools import count
from typing import Sequence

from ..appmodel.aag import AAG
from ..appmodel.aau import AAU, AAUType
from ..appmodel.comm_table import CommunicationTable
from ..appmodel.critical_vars import resolve_critical_variables
from ..appmodel.saag import SAAG, SyncEdge
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
from .functions import (
    CommSpecPlan,
    InterpreterOptions,
    LeafPlan,
    PlanContext,
    plan_comm_phase,
    plan_loop_nest,
    plan_owner_stmt,
    plan_reduction,
    plan_seq_overhead,
    plan_serial_stmt,
    plan_shift,
)


def build_saag(compiled: CompiledProgram,
               options: InterpreterOptions | None = None) -> SAAG:
    """Run the abstraction parse of *compiled*.

    Of *options* only ``overrides``, the user-specified critical variables,
    enters the SAAG; the SAAG keeps a copy of them.
    """
    overrides = dict((options or InterpreterOptions()).overrides)
    critical = resolve_critical_variables(
        compiled.normalized, compiled.symtable, overrides=overrides,
        base_env=compiled.mapping.env)
    env = dict(compiled.mapping.env)
    env.update(critical.resolved_env())
    env.update({k.lower(): float(v) for k, v in overrides.items()})
    walk = _Walk(PlanContext(compiled, env))
    root = walk.new(AAUType.SEQ, f"program {compiled.name}", compiled.program.line)
    walk.sequence(compiled.spmd.nodes, root)
    return SAAG(aag=AAG(root=root, program_name=compiled.name), edges=walk.edges,
                comm_table=walk.table, critical_variables=critical,
                compiled=compiled, overrides=overrides)


class _Walk:
    """The state of one abstraction parse: the planners' context, the next
    AAU id, the communication table and the synchronisation edges."""

    def __init__(self, pc: PlanContext):
        self.pc = pc
        self.ids = count()
        self.table = CommunicationTable()
        self.edges: list[SyncEdge] = []

    def new(self, kind: AAUType, name: str, line: int, node: SPMDNode | None = None,
            params=None, deterministic: bool = True) -> AAU:
        return AAU(id=next(self.ids), type=kind, name=name, line=line,
                   spmd_node=node, params=params, deterministic=deterministic)

    def sequence(self, nodes: list[SPMDNode], parent: AAU) -> None:
        previous: AAU | None = None
        for node in nodes:
            aau = parent.add(self.node(node))
            # Loosely-synchronous ordering edge between a computation AAU and
            # the communication AAU that follows (or precedes) it; a
            # reduction also synchronises with the combine that follows it.
            if previous is not None and AAUType.COMM in (previous.type, aau.type):
                self.edges.append(SyncEdge(
                    source_id=previous.id, target_id=aau.id, kind="comm",
                    array=node.source if isinstance(node, ShiftNode) else ""))
                if previous.type is AAUType.REDUCE:
                    self.edges.append(SyncEdge(
                        source_id=previous.id, target_id=aau.id, kind="reduce",
                        array=previous.spmd_node.home_array or ""))
            previous = aau

    def leaf(self, kind: AAUType, name: str, node: SPMDNode, plan: LeafPlan,
             comms: Sequence[CommSpecPlan] = ()) -> AAU:
        """A leaf AAU priced by *plan*.  Each of *comms*, the communications
        its pricer charges, gets a table entry of its planned size, unless
        it spans one rank: every collective model charges nothing there,
        and no shift is planned there."""
        aau = self.new(kind, name, node.line, node, plan)
        for comm in comms:
            if comm.procs > 1:
                spec = comm.spec
                self.table.new_entry(
                    aau_id=aau.id, kind=spec.kind, array=spec.array, axis=spec.axis,
                    offset=spec.offset, reduce_op=spec.reduce_op,
                    element_size=spec.element_size, elements_per_proc=comm.elements,
                    bytes_per_proc=comm.nbytes, line=spec.line or node.line)
        return aau

    def node(self, node: SPMDNode) -> AAU:
        pc = self.pc
        if isinstance(node, SeqOverhead):
            return self.leaf(AAUType.SEQ, node.kind, node, plan_seq_overhead(node, pc))

        if isinstance(node, CommPhase):
            plan = plan_comm_phase(node, pc)
            return self.leaf(AAUType.COMM, f"comm phase ({node.purpose})", node, plan,
                             plan[1])

        if isinstance(node, LocalLoopNest):
            aau = self.leaf(AAUType.ITER, node.label or "local loop nest", node,
                            plan_loop_nest(node, pc))
            if node.mask is not None:
                aau.add(self.new(AAUType.COND, "forall mask", node.line, node))
            return aau

        if isinstance(node, ReductionNode):
            return self.leaf(AAUType.REDUCE, node.label or f"global {node.op}", node,
                             plan_reduction(node, pc))

        if isinstance(node, ShiftNode):
            plan = plan_shift(node, pc)
            data = plan[1]          # None for a source with no distribution
            exchange = data[1] if data else None
            return self.leaf(AAUType.COMM, node.label or f"cshift({node.source})", node,
                             plan, [exchange] if exchange else [])

        if isinstance(node, OwnerStmt):
            plan = plan_owner_stmt(node, pc)
            return self.leaf(AAUType.SEQ, node.label or "owner-computes statement",
                             node, plan, plan[1][1])

        if isinstance(node, SerialStmt):
            return self.leaf(AAUType.SEQ, node.label or "scalar statement", node,
                             plan_serial_stmt(node, pc))

        if isinstance(node, NodeDo):
            start = pc.eval(node.start, 1.0)
            end = pc.eval(node.end, start)
            step = pc.eval(node.step, 1.0) or 1.0
            aau = self.new(AAUType.ITER, node.label or f"do {node.var}", node.line, node,
                           max(math.floor((end - start) / step) + 1, 0))
            # The body sees a representative (mid-range) value of the loop
            # variable, so bounds that depend on it (triangular loops)
            # interpret to their average.
            var = node.var.lower()
            saved = pc.env.get(var)
            pc.env[var] = (start + end) / 2.0
            self.sequence(node.body, aau)
            if saved is None:
                pc.env.pop(var, None)
            else:
                pc.env[var] = saved
            return aau

        if isinstance(node, NodeDoWhile):
            # its trip count is the price's while_trip_estimate
            aau = self.new(AAUType.ITER, node.label or "do while", node.line, node,
                           deterministic=False)
            self.sequence(node.body, aau)
            return aau

        if isinstance(node, NodeIf):
            aau = self.new(AAUType.COND, node.label or "if construct", node.line, node,
                           _static_branch(node, pc))
            bodies = [(f"branch {n}", body) for n, (_, body) in enumerate(node.branches)]
            if node.else_body:
                bodies.append(("else branch", node.else_body))
            for name, body in bodies:
                self.sequence(body, aau.add(self.new(AAUType.SEQ, name, node.line)))
            return aau

        raise TypeError(f"cannot abstract SPMD node {type(node).__name__}")


def _static_branch(node: NodeIf, pc: PlanContext) -> int | None:
    """The branch a deterministic conditional takes (``len(branches)`` for
    the else branch), or ``None`` when a condition does not resolve."""
    for index, (cond, _) in enumerate(node.branches):
        value = pc.eval(cond, None)
        if value is None:
            return None
        if value:
            return index
    return len(node.branches)
