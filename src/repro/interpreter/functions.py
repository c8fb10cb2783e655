"""Interpretation functions: one per AAU type (§3.3).

*"An interpretation function is defined for each AAU type to compute its
performance in terms of parameters exported by the associated SAU."*

Every function takes the AAU and the shared :class:`InterpretationContext`
and returns the :class:`~repro.interpreter.metrics.Metrics` of **one
execution** of that AAU; the interpretation algorithm (in
:mod:`repro.interpreter.engine`) handles loop trip counts, branches and
accumulation into the SAAG-level cumulative metrics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..appmodel.aau import AAU
from ..appmodel.saag import SAAG
from ..compiler.comm_detect import comm_elements_per_proc
from ..compiler.pipeline import CompiledProgram
from ..compiler.spmd import (
    CommPhase,
    CommSpec,
    LocalLoopNest,
    OwnerStmt,
    ReductionNode,
    SeqOverhead,
    SerialStmt,
    ShiftNode,
)
from ..frontend import ast_nodes as ast
from ..frontend.symbols import try_eval_const
from ..system import comm_models
from ..system.machine import Machine
from .expression_cost import (
    OpCount,
    count_expr,
    count_reduction,
    count_statement_body,
    iteration_time,
)
from .memory_model import MemoryModelOptions, estimate_hit_ratio, working_set_bytes
from .metrics import Metrics
from .overlap import OverlapOptions


@dataclass
class InterpreterOptions:
    """All user-controllable Phase-2 interpretation parameters.

    An unresolvable conditional weighs its branches by ``BRANCH_PROBABILITY``,
    and every program pays ``PROGRAM_STARTUP_US``, as in the simulator.
    """

    overrides: dict[str, float] = field(default_factory=dict)   # critical variables
    mask_true_fraction: float = 1.0       # static assumption for masked foralls
    while_trip_estimate: float = 10.0     # for DO WHILE loops
    memory: MemoryModelOptions = field(default_factory=MemoryModelOptions)
    overlap: OverlapOptions = field(default_factory=OverlapOptions)


@dataclass
class InterpretationContext:
    """Shared state threaded through the interpretation functions."""

    compiled: CompiledProgram
    machine: Machine
    saag: SAAG
    options: InterpreterOptions
    env: dict[str, float]

    @property
    def nprocs(self) -> int:
        return self.compiled.nprocs

    def topology(self, nprocs: int | None = None):
        """The machine's interconnect topology over *nprocs* nodes."""
        return self.machine.topology(max(nprocs or self.nprocs, 1))

    def eval(self, expr: ast.Expr | None, default: float | None = None) -> float | None:
        if expr is None:
            return default
        value = try_eval_const(expr, self.env)
        return value if value is not None else default


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _trip_count(ctx: InterpretationContext, lo: ast.Expr, hi: ast.Expr,
                step: ast.Expr | None) -> float:
    lo_v = ctx.eval(lo, 1.0)
    hi_v = ctx.eval(hi, lo_v)
    step_v = ctx.eval(step, 1.0) or 1.0
    if step_v == 0:
        step_v = 1.0
    trips = math.floor((hi_v - lo_v) / step_v) + 1
    return max(float(trips), 0.0)


def _home_format(ctx: InterpretationContext, array: str | None) -> tuple[int, str]:
    """Element size and precision of a node's home array; 4-byte real without one."""
    dist = ctx.compiled.mapping.distribution_of(array) if array else None
    if dist is None:
        return 4, "real"
    sym = ctx.compiled.symtable.get(array)
    return dist.element_size, ("double" if sym is not None and sym.type_name == "double"
                               else "real")


# ---------------------------------------------------------------------------
# interpretation functions
# ---------------------------------------------------------------------------


def interpret_seq_overhead(aau: AAU, ctx: InterpretationContext) -> Metrics:
    """Seq AAU: parameter packing / bounds adjustment around communication."""
    node: SeqOverhead = aau.spmd_node
    proc = ctx.machine.processing
    items = max(node.items, 1)
    if node.kind == "pack_parameters":
        time = items * (12 * proc.int_op_time + 2 * proc.assignment_overhead)
    elif node.kind == "adjust_bounds":
        time = items * (8 * proc.int_op_time + proc.divide_time)
    else:  # index translation
        time = items * (6 * proc.int_op_time)
    return Metrics(overhead=time)


def interpret_serial_stmt(aau: AAU, ctx: InterpretationContext) -> Metrics:
    """Seq AAU: replicated scalar statement executed identically on every node."""
    stmt = aau.spmd_node.stmt
    proc = ctx.machine.processing
    memory = ctx.machine.memory

    if isinstance(stmt, ast.Assignment):
        count = count_statement_body([stmt])
        time = iteration_time(count, proc, memory, hit_ratio=0.95,
                              include_loop_overhead=False)
        return Metrics(computation=time)
    if isinstance(stmt, ast.PrintStmt):
        items = max(len(stmt.items), 1)
        return Metrics(overhead=items * 55.0 + 180.0)   # formatted output to the host
    if isinstance(stmt, ast.CallStmt):
        count = OpCount(calls=1.0)
        for arg in stmt.args:
            count += count_expr(arg)
        time = iteration_time(count, proc, memory, hit_ratio=0.95,
                              include_loop_overhead=False)
        return Metrics(computation=time)
    # stop / exit / cycle / continue
    return Metrics(overhead=proc.branch_time)


def interpret_owner_stmt(aau: AAU, ctx: InterpretationContext) -> Metrics:
    """Seq AAU for a single element assignment executed only by the owner.

    In the loosely-synchronous model the other processors reach the next
    communication point and wait, so the element's cost appears on the critical
    path exactly once (plus the ownership test every node performs).
    """
    node: OwnerStmt = aau.spmd_node
    proc = ctx.machine.processing
    memory = ctx.machine.memory
    count = count_statement_body([node.stmt])
    compute = iteration_time(count, proc, memory, hit_ratio=0.95,
                             include_loop_overhead=False)
    guard = 4 * proc.int_op_time + proc.branch_time
    # only the owner computes while the other ranks idle at the guard, so the
    # mean-rank computation is 1/p of the critical-path charge
    metrics = Metrics(computation=compute, overhead=guard,
                      balanced_computation=compute / max(ctx.nprocs, 1))
    for spec in node.comms:
        metrics += _comm_spec_metrics(spec, ctx)
    return metrics


def _comm_spec_metrics(spec: CommSpec, ctx: InterpretationContext) -> Metrics:
    """Cost of one communication specification, charged to the cube SAU."""
    comm = ctx.machine.communication
    proc = ctx.machine.processing
    nprocs = ctx.nprocs
    dist = ctx.compiled.mapping.distribution_of(spec.array) if spec.array else None

    elements = comm_elements_per_proc(spec, ctx.compiled.mapping)
    nbytes = int(elements * spec.element_size)

    if spec.kind == "shift":
        # the compiler emits shifts only along axes spread over several ranks
        time = comm_models.shift_exchange_time(comm, nbytes)
        pack = elements * 2 * proc.int_op_time
        return Metrics(communication=time, overhead=pack)

    if spec.kind == "broadcast":
        procs = nprocs
        if dist is not None and spec.axis is not None and spec.axis < len(dist.axes):
            procs = max(dist.axes[spec.axis].nprocs, 1)
        time = comm_models.broadcast_time(comm, max(nbytes, spec.element_size), procs,
                                          topology=ctx.topology(procs))
        return Metrics(communication=time)

    if spec.kind == "reduce":
        time = comm_models.allreduce_time(
            comm, spec.element_size, nprocs,
            combine_time_per_stage=proc.flop_time_sp,
            topology=ctx.topology(),
        )
        return Metrics(communication=time)

    if spec.kind in ("gather", "writeback"):
        procs = dist.nprocs if dist is not None else nprocs
        time = comm_models.unstructured_gather_time(comm, nbytes, max(procs, 1),
                                                    topology=ctx.topology(max(procs, 1)))
        pack = elements * 3 * proc.int_op_time
        return Metrics(communication=time, overhead=pack)

    # unknown pattern: charge a barrier as a safe over-approximation
    return Metrics(communication=comm_models.barrier_time(comm, nprocs,
                                                          topology=ctx.topology()))


def interpret_comm_phase(aau: AAU, ctx: InterpretationContext) -> Metrics:
    """Comm AAU: one global communication phase (one or more collectives)."""
    node: CommPhase = aau.spmd_node
    metrics = Metrics()
    for spec in node.comms:
        spec_metrics = _comm_spec_metrics(spec, ctx)
        metrics += spec_metrics
        # update the communication table entries attached to this AAU
        for entry in ctx.saag.comm_table.for_aau(aau.id):
            if entry.kind == spec.kind and entry.array == spec.array and \
                    entry.axis == spec.axis and entry.offset == spec.offset:
                entry.estimated_time = spec_metrics.total
                entry.status = "interpreted"
    return metrics


def interpret_shift(aau: AAU, ctx: InterpretationContext) -> Metrics:
    """Comm AAU produced by a cshift/tshift/eoshift library call."""
    node: ShiftNode = aau.spmd_node
    dist = ctx.compiled.mapping.distribution_of(node.source)
    proc = ctx.machine.processing
    comm = ctx.machine.communication
    if dist is None:
        return Metrics(overhead=proc.call_overhead)

    local_elements = dist.avg_local_size()
    boundary = 1.0
    procs_along = 1
    offset = abs(ctx.eval(node.offset_expr, 1.0) or 1.0)
    for axis_no, axis in enumerate(dist.axes):
        if axis_no == node.axis:
            procs_along = axis.nprocs
            boundary *= min(offset, axis.avg_local_count()) or 1.0
        else:
            boundary *= max(axis.avg_local_count(), 1.0)

    # Every rank copies its block at the single-precision rate, whatever the
    # array's type, as the pinned predictions do: no machine annotation ever
    # gave a shift its array's precision, so pricing doubles at their own
    # rate is a cost-model change.
    copy =local_elements * (proc.assignment_overhead + proc.flop_time("real"))
    communication = 0.0
    if procs_along > 1:
        exchange = comm_models.shift_exchange_time(comm, int(boundary * dist.element_size))
        pack = boundary * proc.int_op_time * 2.0
        # (copy + exchange + pack) - copy, not exchange + pack: the two round
        # differently, and the shorter form moves finance's predictions in
        # the last bits.
        communication = copy + exchange + pack - copy
    metrics = Metrics(computation=copy, communication=communication)

    for entry in ctx.saag.comm_table.for_aau(aau.id):
        entry.estimated_time = metrics.communication
        entry.status = "interpreted"
    return metrics


def interpret_reduction(aau: AAU, ctx: InterpretationContext) -> Metrics:
    """Reduce AAU: the local partial reduction (the combine is the next Comm AAU)."""
    node: ReductionNode = aau.spmd_node
    proc = ctx.machine.processing
    memory = ctx.machine.memory

    local_elements = _reduction_local_elements(node, ctx)
    count = count_reduction(node)

    element_size, precision = _home_format(ctx, node.home_array)
    ws = working_set_bytes(local_elements, max(len(count.arrays_touched), 1), element_size)
    hit = estimate_hit_ratio(memory, ws, element_size, stride1=True,
                             arrays_touched=len(count.arrays_touched),
                             options=ctx.options.memory)
    per_iter = iteration_time(count, proc, memory, precision=precision, hit_ratio=hit)
    compute = proc.loop_startup_overhead + local_elements * per_iter
    return Metrics(computation=compute)


def _reduction_local_elements(node: ReductionNode, ctx: InterpretationContext) -> float:
    """Static per-processor element count a reduction sweeps over."""
    if node.home_array:
        dist = ctx.compiled.mapping.distribution_of(node.home_array)
        if dist is not None:
            extent = _reference_extent(node.source, node.home_array, ctx)
            if extent is not None and dist.size > 0:
                return max(extent / max(dist.nprocs, 1), 1.0)
            return max(dist.avg_local_size(), 1.0)
    # replicated data: every node reduces the full extent
    extent = _any_reference_extent(node.source, ctx)
    return extent if extent is not None else 1.0


def _reference_extent(expr: ast.Expr, array: str, ctx: InterpretationContext) -> float | None:
    """Number of elements of *array* referenced by *expr* (sections honoured)."""
    for ref in ast.expr_array_refs(expr):
        if ref.name.lower() != array.lower():
            continue
        dist = ctx.compiled.mapping.distribution_of(array)
        shape = dist.shape if dist is not None else None
        total = 1.0
        for axis, index in enumerate(ref.indices):
            if isinstance(index, ast.Section):
                lo = ctx.eval(index.lo, 1.0)
                hi = ctx.eval(index.hi, float(shape[axis]) if shape else lo)
                stride = ctx.eval(index.stride, 1.0) or 1.0
                total *= max(math.floor((hi - lo) / stride) + 1, 0)
            else:
                total *= 1.0
        return total
    # whole-array reference through a Var
    for node in ast.walk_expr(expr):
        if isinstance(node, ast.Var) and node.name.lower() == array.lower():
            dist = ctx.compiled.mapping.distribution_of(array)
            if dist is not None:
                return float(dist.size)
    return None


def _any_reference_extent(expr: ast.Expr, ctx: InterpretationContext) -> float | None:
    for node in ast.walk_expr(expr):
        if isinstance(node, (ast.Var, ast.ArrayRef)):
            sym = ctx.compiled.symtable.get(node.name)
            if sym is not None and sym.is_array:
                try:
                    shape = ctx.compiled.symtable.array_shape(node.name, ctx.env)
                except Exception:
                    continue
                total = 1.0
                for extent in shape:
                    total *= extent
                return total
    return None


def interpret_loop_nest(aau: AAU, ctx: InterpretationContext) -> Metrics:
    """IterD AAU: the local computation level of a sequentialised forall."""
    node: LocalLoopNest = aau.spmd_node
    proc = ctx.machine.processing
    memory = ctx.machine.memory
    mapping = ctx.compiled.mapping

    home_dist = mapping.distribution_of(node.home_array) if node.home_array else None
    distributed = home_dist is not None and not home_dist.is_replicated

    # --- local iteration count (static, owner computes) -----------------------
    local_iterations = 1.0      # the slowest rank: ceil(trips / procs) per axis
    mean_iterations = 1.0       # the perfectly-even split: trips / procs
    global_iterations = 1.0
    for dim in node.loops:
        trips = _trip_count(ctx, dim.lo, dim.hi, dim.step)
        global_iterations *= trips
        procs_along = 1
        if distributed and dim.home_axis is not None and dim.home_axis < len(home_dist.axes):
            procs_along = max(home_dist.axes[dim.home_axis].nprocs, 1)
        if procs_along > 1:
            local_iterations *= math.ceil(trips / procs_along)
            mean_iterations *= trips / procs_along
        else:
            local_iterations *= trips
            mean_iterations *= trips

    # --- per-iteration cost ------------------------------------------------------
    count = count_statement_body(node.body, node.mask)
    element_size, precision = _home_format(ctx, node.home_array)
    # loop reordering makes the innermost loop sweep the home array's stride-1 axis
    stride1 = not node.home_array or ctx.compiled.options.optimizations.loop_reordering
    ws = working_set_bytes(local_iterations, max(len(count.arrays_touched), 1), element_size)
    hit = estimate_hit_ratio(memory, ws, element_size, stride1=stride1,
                             arrays_touched=len(count.arrays_touched),
                             options=ctx.options.memory)
    per_iteration = iteration_time(count, proc, memory, precision=precision, hit_ratio=hit)

    if node.mask is not None:
        # evaluation of the mask happens every iteration; the assignment only on
        # the (statically assumed) true fraction
        assign_count = count_statement_body(node.body)
        assign_time = iteration_time(assign_count, proc, memory, precision=precision,
                                     hit_ratio=hit, include_loop_overhead=False)
        mask_time = iteration_time(count_expr(node.mask), proc, memory, precision=precision,
                                   hit_ratio=hit, include_loop_overhead=False)
        per_iteration = (
            proc.loop_iteration_overhead
            + proc.conditional_overhead
            + mask_time
            + ctx.options.mask_true_fraction * assign_time
        )

    compute = local_iterations * per_iteration
    overhead = len(node.loops) * proc.loop_startup_overhead
    if node.mask is not None:
        overhead += proc.conditional_overhead  # the guard's setup

    return Metrics(computation=compute, overhead=overhead,
                   balanced_computation=mean_iterations * per_iteration)


# dispatch table used by the engine ------------------------------------------------

def interpret_leaf(aau: AAU, ctx: InterpretationContext) -> Metrics:
    """Dispatch on the AAU's SPMD node type and return one-execution metrics."""
    node = aau.spmd_node
    if isinstance(node, SeqOverhead):
        return interpret_seq_overhead(aau, ctx)
    if isinstance(node, CommPhase):
        return interpret_comm_phase(aau, ctx)
    if isinstance(node, LocalLoopNest):
        return interpret_loop_nest(aau, ctx)
    if isinstance(node, ReductionNode):
        return interpret_reduction(aau, ctx)
    if isinstance(node, ShiftNode):
        return interpret_shift(aau, ctx)
    if isinstance(node, OwnerStmt):
        return interpret_owner_stmt(aau, ctx)
    if isinstance(node, SerialStmt):
        return interpret_serial_stmt(aau, ctx)
    return Metrics()
