"""Static operation counting for Fortran expressions and assignments.

The interpretation function of a computational AAU needs the per-iteration
cost of its body.  This module counts, from the AST alone:

* floating-point adds/multiplies, divides and exponentiations,
* elemental intrinsic calls (weighted by the catalogue's per-call flop count),
* integer/index operations (subscript arithmetic),
* memory references (array element loads/stores) and distinct arrays touched,
* comparisons, logical operations and mask evaluations.

The resulting :class:`OpCount` is turned into time by ``iteration_time`` using
the Processing and Memory components of the node SAU.  The same counter is
used by the simulator's node cost model so both timing paths agree on the
*static* work per iteration and differ only in dynamic effects.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..frontend import ast_nodes as ast
from ..frontend.intrinsics import IntrinsicClass, intrinsic_class, intrinsic_info, is_intrinsic
from ..system.sau import MemoryComponent, ProcessingComponent

if TYPE_CHECKING:
    from ..compiler.spmd import ReductionNode


@dataclass
class OpCount:
    """Operation counts for one evaluation of an expression / statement."""

    flops: float = 0.0            # adds + multiplies (+ intrinsic-weighted work)
    divides: float = 0.0
    int_ops: float = 0.0          # subscript and loop-index arithmetic
    mem_reads: float = 0.0        # array element loads
    mem_writes: float = 0.0       # array element stores
    scalar_refs: float = 0.0
    compares: float = 0.0
    logicals: float = 0.0
    calls: float = 0.0
    arrays_touched: set[str] = field(default_factory=set)

    def __add__(self, other: "OpCount") -> "OpCount":
        return OpCount(
            flops=self.flops + other.flops,
            divides=self.divides + other.divides,
            int_ops=self.int_ops + other.int_ops,
            mem_reads=self.mem_reads + other.mem_reads,
            mem_writes=self.mem_writes + other.mem_writes,
            scalar_refs=self.scalar_refs + other.scalar_refs,
            compares=self.compares + other.compares,
            logicals=self.logicals + other.logicals,
            calls=self.calls + other.calls,
            arrays_touched=self.arrays_touched | other.arrays_touched,
        )

    @property
    def memory_accesses(self) -> float:
        return self.mem_reads + self.mem_writes


def count_expr(expr: ast.Expr | None) -> OpCount:
    """Count the operations needed to evaluate *expr* once."""
    count = OpCount()
    if expr is None:
        return count
    _count_into(expr, count)
    return count


def _count_into(expr: ast.Expr, count: OpCount) -> None:
    if isinstance(expr, (ast.Num, ast.Str, ast.LogicalLit)):
        return
    if isinstance(expr, ast.Var):
        count.scalar_refs += 1
        return
    if isinstance(expr, ast.Section):
        for part in (expr.lo, expr.hi, expr.stride):
            if part is not None:
                _count_into(part, count)
        return
    if isinstance(expr, ast.ArrayRef):
        count.mem_reads += 1
        count.arrays_touched.add(expr.name.lower())
        for index in expr.indices:
            # each subscript costs index arithmetic (scale + offset)
            count.int_ops += 1.5
            _count_into(index, count)
        return
    if isinstance(expr, ast.FuncCall):
        name = expr.name.lower()
        for arg in expr.args:
            _count_into(arg, count)
        if is_intrinsic(name):
            info = intrinsic_info(name)
            cls = intrinsic_class(name)
            if cls in (IntrinsicClass.ELEMENTAL, IntrinsicClass.CONVERSION):
                count.flops += info.flops
                count.calls += 0.0 if info.flops <= 2 else 1.0
            else:
                # non-elemental intrinsic appearing inline (rare after
                # normalisation): charge a call plus per-element flop weight
                count.calls += 1.0
                count.flops += info.flops
        else:
            count.calls += 1.0
        return
    if isinstance(expr, ast.UnaryOp):
        if expr.op in ("-", "+"):
            count.flops += 0.5
        else:
            count.logicals += 1.0
        _count_into(expr.operand, count)
        return
    if isinstance(expr, ast.BinOp):
        if expr.op in ("+", "-", "*"):
            count.flops += 1.0
        elif expr.op == "/":
            count.divides += 1.0
        elif expr.op == "**":
            count.flops += _power_cost(expr.right)
        _count_into(expr.left, count)
        _count_into(expr.right, count)
        return
    if isinstance(expr, ast.Compare):
        count.compares += 1.0
        _count_into(expr.left, count)
        _count_into(expr.right, count)
        return
    if isinstance(expr, ast.Logical):
        count.logicals += 1.0
        _count_into(expr.left, count)
        _count_into(expr.right, count)
        return


def _power_cost(exponent: ast.Expr) -> float:
    """x**k costs ~log2(k) multiplies for small integer k, else a full pow()."""
    if isinstance(exponent, ast.Num) and exponent.is_int:
        k = abs(int(exponent.value))
        if k <= 1:
            return 1.0
        return float(max(1, k.bit_length()))
    return 25.0  # general pow via exp/log


def count_assignment(stmt: ast.Assignment) -> OpCount:
    """Count one execution of an assignment (RHS evaluation + LHS store)."""
    count = count_expr(stmt.value)
    target = stmt.target
    if isinstance(target, ast.ArrayRef):
        count.mem_writes += 1
        count.arrays_touched.add(target.name.lower())
        for index in target.indices:
            count.int_ops += 1.5
            count += count_expr(index) if not isinstance(index, ast.Var) else OpCount(scalar_refs=1)
    else:
        count.scalar_refs += 1
    return count


def count_statement_body(body: list[ast.Assignment], mask: ast.Expr | None = None) -> OpCount:
    """Count one iteration of a forall/loop body (all assignments + mask evaluation)."""
    total = OpCount()
    for stmt in body:
        total += count_assignment(stmt)
    if mask is not None:
        total += count_expr(mask)
    return total


def count_reduction(node: ReductionNode) -> OpCount:
    """Count one element of a reduction's local sweep: its operands, the
    multiply of a two-operand reduction (``dot_product``), the mask, and
    the accumulate.  The interpreter and the simulator both price it."""
    count = count_expr(node.source)
    if node.second_source is not None:
        count += count_expr(node.second_source)
        count.flops += 1.0  # the multiply of dot_product
    if node.mask is not None:
        count += count_expr(node.mask)
    count.flops += 1.0      # the accumulate
    return count


def iteration_time(
    count: OpCount,
    proc: ProcessingComponent,
    memory: MemoryComponent,
    *,
    precision: str = "real",
    hit_ratio: float = 0.9,
    include_loop_overhead: bool = True,
) -> float:
    """Convert an :class:`OpCount` into microseconds for one iteration."""
    flop_time = proc.flop_time(precision)
    time = (
        count.flops * flop_time
        + count.divides * proc.divide_time
        + count.int_ops * proc.int_op_time
        + count.compares * proc.branch_time
        + count.logicals * proc.int_op_time
        + count.calls * proc.call_overhead
        + count.scalar_refs * memory.hit_time
        + count.memory_accesses * memory.access_time(hit_ratio)
        + count.mem_writes * memory.write_through_penalty
        + proc.assignment_overhead
    )
    if include_loop_overhead:
        time += proc.loop_iteration_overhead
    return time
