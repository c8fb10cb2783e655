"""Sequentialisation and SPMD code generation (Phase 1, steps 3-5).

Parallel constructs are converted into node loops over locally-owned
iterations, communication calls are inserted where the analysis of
:mod:`repro.compiler.comm_detect` demands them, and the result is the
loosely-synchronous SPMD node program (alternating local-computation /
global-communication phases) defined in :mod:`repro.compiler.spmd`.

The generated structure for a forall follows Figure 2 of the paper:

    Seq  (pack parameters, adjust bounds)
    Comm (gather off-processor data)
    IterD (local loop nest) [ containing CondtD when a mask is present ]
    Comm (write back off-processor results)      -- only when required
"""

from __future__ import annotations

from typing import Optional

from ..frontend import ast_nodes as ast
from ..frontend.errors import CompilerError
from ..frontend.symbols import SymbolTable
from .comm_detect import (
    analyze_forall,
    analyze_reduction_source,
    analyze_scalar_rhs,
)
from .partition import MappingContext
from .spmd import (
    CommPhase,
    CommSpec,
    LocalLoopNest,
    LoopDim,
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

_REDUCTION_OPS = {
    "sum": "sum",
    "product": "product",
    "maxval": "max",
    "minval": "min",
    "count": "count",
    "any": "any",
    "all": "all",
    "maxloc": "maxloc",
    "minloc": "minloc",
    "dot_product": "dot_product",
}
_SHIFT_NAMES = {"cshift", "eoshift", "tshift"}


def statement_labels(program: ast.Program) -> dict[int, str]:
    """``ast.format_stmt`` of every statement of *program*, keyed by ``id``:
    the labels :class:`Sequentializer` gives SPMD nodes.  Valid while
    *program* is alive and unchanged."""
    return {id(stmt): ast.format_stmt(stmt) for stmt in program.all_statements()}


class Sequentializer:
    """Generates the SPMD node program from a normalised AST.

    ``labels`` is the :func:`statement_labels` table of the program lowered.
    """

    def __init__(self, symtable: SymbolTable, mapping: MappingContext,
                 labels: dict[int, str]):
        self.symtable = symtable
        self.mapping = mapping
        self.labels = labels

    # ------------------------------------------------------------------
    # entry point
    # ------------------------------------------------------------------

    def run(self, body: list[ast.Stmt]) -> list[SPMDNode]:
        nodes: list[SPMDNode] = []
        for stmt in body:
            nodes.extend(self.lower_stmt(stmt))
        return nodes

    # ------------------------------------------------------------------
    # statement dispatch
    # ------------------------------------------------------------------

    def lower_stmt(self, stmt: ast.Stmt) -> list[SPMDNode]:
        if isinstance(stmt, ast.ForallStmt):
            return self._lower_forall(stmt)
        if isinstance(stmt, ast.Assignment):
            return self._lower_assignment(stmt)
        if isinstance(stmt, ast.DoLoop):
            node = NodeDo(line=stmt.line, var=stmt.var, start=stmt.start, end=stmt.end,
                          step=stmt.step, body=self.run(stmt.body),
                          origin=stmt, label=f"do {stmt.var}")
            return [node]
        if isinstance(stmt, ast.DoWhile):
            node = NodeDoWhile(line=stmt.line, cond=stmt.cond, body=self.run(stmt.body),
                               origin=stmt, label="do while")
            return [node]
        if isinstance(stmt, ast.IfBlock):
            node = NodeIf(
                line=stmt.line,
                branches=[(cond, self.run(body)) for cond, body in stmt.branches],
                else_body=self.run(stmt.else_body),
                origin=stmt,
                label="if",
            )
            return [node]
        if isinstance(stmt, ast.WhereStmt):
            raise CompilerError("WHERE statement survived normalisation", stmt.line)
        # print / call / stop / exit / cycle / continue / declarations in body
        return [SerialStmt(line=stmt.line, stmt=stmt, label=self.labels[id(stmt)])]

    # ------------------------------------------------------------------
    # forall
    # ------------------------------------------------------------------

    def _lower_forall(self, forall: ast.ForallStmt) -> list[SPMDNode]:
        info = analyze_forall(forall, self.mapping, self.symtable)
        nodes: list[SPMDNode] = []

        if info.gather_in:
            nodes.append(SeqOverhead(
                line=forall.line, kind="pack_parameters",
                items=len(info.gather_in), label="pack parameters",
            ))
            nodes.append(CommPhase(
                line=forall.line, comms=list(info.gather_in), purpose="gather-in",
                label="gather off-processor data",
            ))

        loops: list[LoopDim] = []
        for triplet in forall.triplets:
            lhs_info = info.lhs_index_map.get(triplet.var.lower())
            loops.append(LoopDim(
                var=triplet.var.lower(),
                lo=triplet.lo,
                hi=triplet.hi,
                step=triplet.step,
                home_axis=lhs_info.home_axis if lhs_info is not None else None,
            ))

        if not info.replicated_compute:
            nodes.append(SeqOverhead(
                line=forall.line, kind="adjust_bounds", items=len(loops),
                label="adjust loop bounds",
            ))

        nodes.append(LocalLoopNest(
            line=forall.line,
            home_array=info.home_array,
            loops=loops,
            mask=forall.mask,
            body=list(forall.body),
            origin=forall,
            label=self.labels[id(forall)],
        ))

        if info.write_back:
            nodes.append(CommPhase(
                line=forall.line, comms=list(info.write_back), purpose="write-back",
                label="write back off-processor results",
            ))
        return nodes

    # ------------------------------------------------------------------
    # assignments
    # ------------------------------------------------------------------

    def _lower_assignment(self, stmt: ast.Assignment) -> list[SPMDNode]:
        value = stmt.value

        if isinstance(value, ast.FuncCall):
            name = value.name.lower()
            if name in _SHIFT_NAMES:
                return self._lower_shift(stmt, value)
            if name in _REDUCTION_OPS and self._references_array(value):
                return self._lower_reduction(stmt, value)

        target = stmt.target
        if isinstance(target, ast.Var):
            sym = self.symtable.get(target.name)
            if sym is not None and sym.is_array:
                raise CompilerError(
                    f"whole-array assignment to '{target.name}' survived normalisation",
                    stmt.line,
                )
            comms = analyze_scalar_rhs(stmt.value, self.mapping)
            nodes: list[SPMDNode] = []
            if comms:
                nodes.append(CommPhase(line=stmt.line, comms=comms, purpose="broadcast",
                                       label="fetch remote operands"))
            nodes.append(SerialStmt(line=stmt.line, stmt=stmt, label=self.labels[id(stmt)]))
            return nodes

        if isinstance(target, ast.ArrayRef):
            dist = self.mapping.distribution_of(target.name)
            if dist is not None and not dist.is_replicated:
                comms = analyze_scalar_rhs(stmt.value, self.mapping)
                return [OwnerStmt(line=stmt.line, stmt=stmt, array=target.name.lower(),
                                  comms=comms, label=self.labels[id(stmt)])]
            return [SerialStmt(line=stmt.line, stmt=stmt, label=self.labels[id(stmt)])]

        return [SerialStmt(line=stmt.line, stmt=stmt, label=self.labels[id(stmt)])]

    def _references_array(self, expr: ast.Expr) -> bool:
        for node in ast.walk_expr(expr):
            if isinstance(node, (ast.Var, ast.ArrayRef)):
                sym = self.symtable.get(node.name)
                if sym is not None and sym.is_array:
                    return True
        return False

    # ------------------------------------------------------------------
    # shifts
    # ------------------------------------------------------------------

    def _lower_shift(self, stmt: ast.Assignment, call: ast.FuncCall) -> list[SPMDNode]:
        if not call.args:
            raise CompilerError("cshift requires at least an array argument", stmt.line)
        source = call.args[0]
        source_name = None
        if isinstance(source, (ast.Var, ast.ArrayRef)):
            source_name = source.name.lower()
        if source_name is None:
            raise CompilerError("cshift argument must be a named array", stmt.line)

        offset_expr = call.args[1] if len(call.args) > 1 else ast.Num(value=1.0, is_int=True)
        name = call.name.lower()
        axis = 0
        fill: Optional[ast.Expr] = None
        if name == "eoshift":
            if len(call.args) > 2:
                fill = call.args[2]
            if len(call.args) > 3:
                axis = self._dim_to_axis(call.args[3], stmt.line)
        else:
            if len(call.args) > 2:
                axis = self._dim_to_axis(call.args[2], stmt.line)

        target = stmt.target
        if isinstance(target, ast.ArrayRef) and target.has_section:
            target_name = target.name.lower()
        elif isinstance(target, (ast.Var, ast.ArrayRef)):
            target_name = target.name.lower()
        else:
            raise CompilerError("cshift result must be assigned to an array", stmt.line)

        return [ShiftNode(
            line=stmt.line,
            target=target_name,
            source=source_name,
            axis=axis,
            offset_expr=offset_expr,
            circular=(name != "eoshift"),
            fill=fill,
            origin=stmt,
            label=f"{target_name} = {name}({source_name}, ...)",
        )]

    def _dim_to_axis(self, expr: ast.Expr, line: int) -> int:
        from ..frontend.symbols import try_eval_const

        value = try_eval_const(expr, dict(self.mapping.env))
        if value is None:
            raise CompilerError("cshift DIM argument must be a constant", line)
        return int(value) - 1

    # ------------------------------------------------------------------
    # reductions
    # ------------------------------------------------------------------

    def _lower_reduction(self, stmt: ast.Assignment, call: ast.FuncCall) -> list[SPMDNode]:
        op = _REDUCTION_OPS[call.name.lower()]
        target = stmt.target
        if isinstance(target, ast.Var):
            target_name = target.name.lower()
        elif isinstance(target, ast.ArrayRef):
            target_name = target.name.lower()
        else:
            raise CompilerError("reduction result must be assigned to a variable", stmt.line)

        source = call.args[0] if call.args else None
        if source is None:
            raise CompilerError(f"{call.name} requires an argument", stmt.line)
        second = None
        mask = None
        if op == "dot_product":
            if len(call.args) < 2:
                raise CompilerError("dot_product requires two arguments", stmt.line)
            second = call.args[1]
        elif len(call.args) > 1:
            # sum(expr, mask) — a DIM argument (integer literal) is not supported
            # for distributed reductions in this subset; treat it as a mask only
            # when it is a logical expression.
            candidate = call.args[1]
            if not isinstance(candidate, ast.Num):
                mask = candidate

        home, comms = analyze_reduction_source(
            source if second is None else ast.BinOp(op="*", left=source, right=second),
            self.mapping,
        )

        nodes: list[SPMDNode] = []
        if comms:
            nodes.append(CommPhase(line=stmt.line, comms=comms, purpose="gather-in",
                                   label="gather reduction operands"))
        reduce_comm = CommSpec(
            kind="reduce",
            array=home or "",
            reduce_op=op,
            line=stmt.line,
            description=f"global {op}",
        )
        nodes.append(ReductionNode(
            line=stmt.line,
            target=target_name,
            op=op,
            source=source,
            second_source=second,
            home_array=home,
            mask=mask,
            origin=stmt,
            label=f"{target_name} = {call.name}(...)",
        ))
        nodes.append(CommPhase(line=stmt.line, comms=[reduce_comm], purpose="reduction",
                               label=f"global {op} combine"))
        return nodes


def sequentialize(
    program: ast.Program,
    symtable: SymbolTable,
    mapping: MappingContext,
    labels: dict[int, str],
) -> list[SPMDNode]:
    """Lower the (normalised) *program* body into the SPMD node program;
    *labels* is *program*'s :func:`statement_labels` table."""
    return Sequentializer(symtable, mapping, labels).run(program.body)
