"""Interpretation functions: one per AAU type (§3.3).

*"An interpretation function is defined for each AAU type to compute its
performance in terms of parameters exported by the associated SAU."*

Each function comes in two halves, split where the paper splits the
abstraction parse from the interpretation parse:

* a **planner** (``plan_*``) computes, once per SAAG, what depends on
  neither the machine nor the price: iteration counts, home formats,
  operation counts, communication sizes.  It reads the compiled program
  through a :class:`PlanContext`, and returns a ``(pricer, data)`` pair,
  which the abstraction parse (:mod:`repro.interpreter.abstraction`) keeps
  as the leaf AAU's ``params``;
* the **pricer** (``price_*``) turns that data into the
  :class:`~repro.interpreter.metrics.Metrics` of **one execution** of the
  AAU with one machine's SAU parameters (an :class:`InterpretationContext`),
  in the order the quantities were always combined, so a planned price is
  bit-identical to a single-pass one.  It writes nothing into the SAAG.

The interpretation algorithm (in :mod:`repro.interpreter.engine`) handles
loop trip counts, branches and accumulation into the SAAG-level cumulative
metrics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

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


@dataclass
class InterpreterOptions:
    """All user-controllable Phase-2 interpretation parameters.

    An unresolvable conditional weighs its branches by ``BRANCH_PROBABILITY``,
    and every program pays ``PROGRAM_STARTUP_US``, as in the simulator.
    Only ``overrides`` enters the SAAG; the other fields are read when it
    is priced.
    """

    overrides: dict[str, float] = field(default_factory=dict)   # critical variables
    mask_true_fraction: float = 1.0       # static assumption for masked foralls
    while_trip_estimate: float = 10.0     # for DO WHILE loops
    memory: MemoryModelOptions = field(default_factory=MemoryModelOptions)


@dataclass
class PlanContext:
    """What the planners read: the compiled program and the
    critical-variable environment (``eval``)."""

    compiled: CompiledProgram
    env: dict[str, float]

    @property
    def nprocs(self) -> int:
        return self.compiled.nprocs

    def eval(self, expr: ast.Expr | None, default: float | None = None) -> float | None:
        if expr is None:
            return default
        value = try_eval_const(expr, self.env)
        return value if value is not None else default


class InterpretationContext:
    """What the pricers read: one machine, the price's options and the
    process count.

    The machine's node processing and memory components and its cube
    communication component are resolved once here: each
    :class:`~repro.system.machine.Machine` property walks the SAG.
    """

    def __init__(self, machine: Machine, options: InterpreterOptions,
                 nprocs: int):
        self.machine = machine
        self.options = options
        self.nprocs = nprocs
        self.processing = machine.processing
        self.memory = machine.memory
        self.communication = machine.communication


#: what a planner returns, a leaf AAU's ``params``: the pricer and the
#: machine-free data it prices
LeafPlan = tuple[Callable[[Any, InterpretationContext], Metrics], Any]


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _trip_count(pc: PlanContext, lo: ast.Expr, hi: ast.Expr,
                step: ast.Expr | None) -> float:
    lo_v = pc.eval(lo, 1.0)
    hi_v = pc.eval(hi, lo_v)
    step_v = pc.eval(step, 1.0) or 1.0
    if step_v == 0:
        step_v = 1.0
    trips = math.floor((hi_v - lo_v) / step_v) + 1
    return max(float(trips), 0.0)


def _home_format(pc: PlanContext, array: str | None) -> tuple[int, str]:
    """Element size and precision of a node's home array; 4-byte real without one."""
    dist = pc.compiled.mapping.distribution_of(array) if array else None
    if dist is None:
        return 4, "real"
    sym = pc.compiled.symtable.get(array)
    return dist.element_size, ("double" if sym is not None and sym.type_name == "double"
                               else "real")


def price_fixed_overhead(overhead: float, ctx: InterpretationContext) -> Metrics:
    """An overhead that no machine parameter scales."""
    return Metrics(overhead=overhead)


def price_call(_data: Any, ctx: InterpretationContext) -> Metrics:
    return Metrics(overhead=ctx.processing.call_overhead)


def price_branch(_data: Any, ctx: InterpretationContext) -> Metrics:
    return Metrics(overhead=ctx.processing.branch_time)


# ---------------------------------------------------------------------------
# interpretation functions
# ---------------------------------------------------------------------------


def plan_seq_overhead(node: SeqOverhead, pc: PlanContext) -> LeafPlan:
    """Seq AAU: parameter packing / bounds adjustment around communication."""
    return price_seq_overhead, (node.kind, max(node.items, 1))


def price_seq_overhead(data: tuple[str, int], ctx: InterpretationContext) -> Metrics:
    kind, items = data
    proc = ctx.processing
    if kind == "pack_parameters":
        time = items * (12 * proc.int_op_time + 2 * proc.assignment_overhead)
    elif kind == "adjust_bounds":
        time = items * (8 * proc.int_op_time + proc.divide_time)
    else:  # index translation
        time = items * (6 * proc.int_op_time)
    return Metrics(overhead=time)


def plan_serial_stmt(node: SerialStmt, pc: PlanContext) -> LeafPlan:
    """Seq AAU: replicated scalar statement executed identically on every node."""
    stmt = node.stmt
    if isinstance(stmt, ast.Assignment):
        return price_replicated, count_statement_body([stmt])
    if isinstance(stmt, ast.PrintStmt):
        items = max(len(stmt.items), 1)
        return price_fixed_overhead, items * 55.0 + 180.0   # formatted output to the host
    if isinstance(stmt, ast.CallStmt):
        count = OpCount(calls=1.0)
        for arg in stmt.args:
            count += count_expr(arg)
        return price_replicated, count
    # stop / exit / cycle / continue
    return price_branch, None


def price_replicated(count: OpCount, ctx: InterpretationContext) -> Metrics:
    time = iteration_time(count, ctx.processing, ctx.memory, hit_ratio=0.95,
                          include_loop_overhead=False)
    return Metrics(computation=time)


def plan_owner_stmt(node: OwnerStmt, pc: PlanContext) -> LeafPlan:
    """Seq AAU for a single element assignment executed only by the owner.

    In the loosely-synchronous model the other processors reach the next
    communication point and wait, so the element's cost appears on the critical
    path exactly once (plus the ownership test every node performs).
    """
    return price_owner_stmt, (count_statement_body([node.stmt]),
                              [plan_comm_spec(spec, pc) for spec in node.comms])


def price_owner_stmt(data: tuple[OpCount, list["CommSpecPlan"]],
                     ctx: InterpretationContext) -> Metrics:
    count, specs = data
    proc = ctx.processing
    compute = iteration_time(count, proc, ctx.memory, hit_ratio=0.95,
                             include_loop_overhead=False)
    guard = 4 * proc.int_op_time + proc.branch_time
    # only the owner computes while the other ranks idle at the guard, so the
    # mean-rank computation is 1/p of the critical-path charge
    metrics = Metrics(computation=compute, overhead=guard,
                      balanced_computation=compute / max(ctx.nprocs, 1))
    for spec in specs:
        metrics += price_comm_spec(spec, ctx)
    return metrics


@dataclass(frozen=True)
class CommSpecPlan:
    """One communication specification and its machine-free sizes."""

    spec: CommSpec
    elements: float      # per processor
    nbytes: int          # per processor
    procs: int           # the ranks a collective spans


def plan_comm_spec(spec: CommSpec, pc: PlanContext) -> CommSpecPlan:
    mapping = pc.compiled.mapping
    dist = mapping.distribution_of(spec.array) if spec.array else None
    elements = comm_elements_per_proc(spec, mapping)
    procs = max(pc.nprocs, 1)
    if spec.kind == "broadcast":
        if dist is not None and spec.axis is not None and spec.axis < len(dist.axes):
            procs = max(dist.axes[spec.axis].nprocs, 1)
    elif spec.kind in ("gather", "writeback"):
        procs = max(dist.nprocs if dist is not None else pc.nprocs, 1)
    return CommSpecPlan(spec, elements, int(elements * spec.element_size), procs)


def price_comm_spec(planned: CommSpecPlan, ctx: InterpretationContext) -> Metrics:
    """Cost of one communication specification, charged to the cube SAU."""
    comm = ctx.communication
    proc = ctx.processing
    kind, element_size = planned.spec.kind, planned.spec.element_size

    if kind == "shift":
        # the compiler emits shifts only along axes spread over several ranks
        time = comm_models.shift_exchange_time(comm, planned.nbytes)
        pack = planned.elements * 2 * proc.int_op_time
        return Metrics(communication=time, overhead=pack)

    topology = ctx.machine.topology(planned.procs)
    if kind == "broadcast":
        time = comm_models.broadcast_time(comm, max(planned.nbytes, element_size),
                                          planned.procs, topology=topology)
        return Metrics(communication=time)

    if kind == "reduce":
        time = comm_models.allreduce_time(
            comm, element_size, planned.procs,
            combine_time_per_stage=proc.flop_time_sp,
            topology=topology,
        )
        return Metrics(communication=time)

    if kind in ("gather", "writeback"):
        time = comm_models.unstructured_gather_time(comm, planned.nbytes, planned.procs,
                                                    topology=topology)
        pack = planned.elements * 3 * proc.int_op_time
        return Metrics(communication=time, overhead=pack)

    # unknown pattern: charge a barrier as a safe over-approximation
    return Metrics(communication=comm_models.barrier_time(comm, planned.procs,
                                                          topology=topology))


def plan_comm_phase(node: CommPhase, pc: PlanContext) -> LeafPlan:
    """Comm AAU: one global communication phase (one or more collectives)."""
    return price_comm_phase, [plan_comm_spec(spec, pc) for spec in node.comms]


def price_comm_phase(specs: list[CommSpecPlan], ctx: InterpretationContext) -> Metrics:
    metrics = Metrics()
    for spec in specs:
        metrics += price_comm_spec(spec, ctx)
    return metrics


def plan_shift(node: ShiftNode, pc: PlanContext) -> LeafPlan:
    """Comm AAU produced by a cshift/tshift/eoshift library call: every rank
    copies its block, and exchanges a boundary slab of *offset* planes when
    the shifted axis is spread over several ranks."""
    dist = pc.compiled.mapping.distribution_of(node.source)
    if dist is None:
        return price_call, None

    exchange = None
    if node.axis < len(dist.axes) and dist.axes[node.axis].nprocs > 1:
        offset = abs(pc.eval(node.offset_expr, 1.0) or 1.0)
        exchange = plan_comm_spec(
            CommSpec("shift", node.source, node.axis, offset=offset,
                     element_size=dist.element_size, line=node.line), pc)
    return price_shift, (dist.avg_local_size(), exchange)


def price_shift(data: tuple[float, Optional[CommSpecPlan]],
                ctx: InterpretationContext) -> Metrics:
    local_elements, exchange = data
    proc = ctx.processing
    # Every rank copies its block at the single-precision rate, whatever the
    # array's type, as the pinned predictions do: no machine annotation ever
    # gave a shift its array's precision, so pricing doubles at their own
    # rate is a cost-model change.
    copy = local_elements * (proc.assignment_overhead + proc.flop_time("real"))
    communication = 0.0
    if exchange is not None:
        time = comm_models.shift_exchange_time(ctx.communication, exchange.nbytes)
        pack = exchange.elements * proc.int_op_time * 2.0
        # (copy + time + pack) - copy, not time + pack: the two round
        # differently, and the shorter form moves finance's predictions in
        # the last bits.
        communication = copy + time + pack - copy
    return Metrics(computation=copy, communication=communication)


@dataclass(frozen=True)
class LocalSweep:
    """The machine-free half of a local loop nest or a reduction's local
    sweep: how many iterations, what one iteration does, and what its cache
    model needs."""

    iterations: float           # the slowest rank's
    count: OpCount              # one iteration (a masked nest: body and mask)
    element_size: int
    precision: str
    stride1: bool
    working_set: float          # bytes
    arrays: int                 # distinct arrays touched
    mean_iterations: float = 0.0          # loop nests: the perfectly-even split
    depth: int = 0                        # loop nests: loops in the nest
    assign_count: OpCount | None = None   # masked nests: the assignments alone
    mask_count: OpCount | None = None     # masked nests: the mask alone


def _hit_ratio(sweep: LocalSweep, ctx: InterpretationContext) -> float:
    return estimate_hit_ratio(ctx.memory, sweep.working_set, sweep.element_size,
                              stride1=sweep.stride1, arrays_touched=sweep.arrays,
                              options=ctx.options.memory)


def plan_reduction(node: ReductionNode, pc: PlanContext) -> LeafPlan:
    """Reduce AAU: the local partial reduction (the combine is the next Comm AAU)."""
    local_elements = _reduction_local_elements(node, pc)
    count = count_reduction(node)
    element_size, precision = _home_format(pc, node.home_array)
    arrays = len(count.arrays_touched)
    return price_reduction, LocalSweep(
        iterations=local_elements, count=count, element_size=element_size,
        precision=precision, stride1=True,
        working_set=working_set_bytes(local_elements, max(arrays, 1), element_size),
        arrays=arrays)


def price_reduction(sweep: LocalSweep, ctx: InterpretationContext) -> Metrics:
    proc = ctx.processing
    per_iter = iteration_time(sweep.count, proc, ctx.memory, precision=sweep.precision,
                              hit_ratio=_hit_ratio(sweep, ctx))
    return Metrics(computation=proc.loop_startup_overhead + sweep.iterations * per_iter)


def _reduction_local_elements(node: ReductionNode, pc: PlanContext) -> float:
    """Static per-processor element count a reduction sweeps over."""
    if node.home_array:
        dist = pc.compiled.mapping.distribution_of(node.home_array)
        if dist is not None:
            extent = _reference_extent(node.source, node.home_array, pc)
            if extent is not None and dist.size > 0:
                return max(extent / max(dist.nprocs, 1), 1.0)
            return max(dist.avg_local_size(), 1.0)
    # replicated data: every node reduces the full extent
    extent = _any_reference_extent(node.source, pc)
    return extent if extent is not None else 1.0


def _reference_extent(expr: ast.Expr, array: str, pc: PlanContext) -> float | None:
    """Number of elements of *array* referenced by *expr* (sections honoured)."""
    for ref in ast.expr_array_refs(expr):
        if ref.name.lower() != array.lower():
            continue
        dist = pc.compiled.mapping.distribution_of(array)
        shape = dist.shape if dist is not None else None
        total = 1.0
        for axis, index in enumerate(ref.indices):
            if isinstance(index, ast.Section):
                lo = pc.eval(index.lo, 1.0)
                hi = pc.eval(index.hi, float(shape[axis]) if shape else lo)
                stride = pc.eval(index.stride, 1.0) or 1.0
                total *= max(math.floor((hi - lo) / stride) + 1, 0)
            else:
                total *= 1.0
        return total
    # whole-array reference through a Var
    for node in ast.walk_expr(expr):
        if isinstance(node, ast.Var) and node.name.lower() == array.lower():
            dist = pc.compiled.mapping.distribution_of(array)
            if dist is not None:
                return float(dist.size)
    return None


def _any_reference_extent(expr: ast.Expr, pc: PlanContext) -> float | None:
    for node in ast.walk_expr(expr):
        if isinstance(node, (ast.Var, ast.ArrayRef)):
            sym = pc.compiled.symtable.get(node.name)
            if sym is not None and sym.is_array:
                try:
                    shape = pc.compiled.symtable.array_shape(node.name, pc.env)
                except Exception:
                    continue
                total = 1.0
                for extent in shape:
                    total *= extent
                return total
    return None


def plan_loop_nest(node: LocalLoopNest, pc: PlanContext) -> LeafPlan:
    """IterD AAU: the local computation level of a sequentialised forall."""
    home_dist = pc.compiled.mapping.distribution_of(node.home_array) \
        if node.home_array else None
    distributed = home_dist is not None and not home_dist.is_replicated

    # --- local iteration count (static, owner computes) -----------------------
    local_iterations = 1.0      # the slowest rank: ceil(trips / procs) per axis
    mean_iterations = 1.0       # the perfectly-even split: trips / procs
    for dim in node.loops:
        trips = _trip_count(pc, dim.lo, dim.hi, dim.step)
        procs_along = 1
        if distributed and dim.home_axis is not None and dim.home_axis < len(home_dist.axes):
            procs_along = max(home_dist.axes[dim.home_axis].nprocs, 1)
        if procs_along > 1:
            local_iterations *= math.ceil(trips / procs_along)
            mean_iterations *= trips / procs_along
        else:
            local_iterations *= trips
            mean_iterations *= trips

    # --- per-iteration work ------------------------------------------------------
    count = count_statement_body(node.body, node.mask)
    element_size, precision = _home_format(pc, node.home_array)
    arrays = len(count.arrays_touched)
    masked = node.mask is not None
    return price_loop_nest, LocalSweep(
        iterations=local_iterations, count=count, element_size=element_size,
        precision=precision,
        # loop reordering makes the innermost loop sweep the home array's
        # stride-1 axis
        stride1=not node.home_array or pc.compiled.options.optimizations.loop_reordering,
        working_set=working_set_bytes(local_iterations, max(arrays, 1), element_size),
        arrays=arrays, mean_iterations=mean_iterations, depth=len(node.loops),
        assign_count=count_statement_body(node.body) if masked else None,
        mask_count=count_expr(node.mask) if masked else None)


def price_loop_nest(nest: LocalSweep, ctx: InterpretationContext) -> Metrics:
    proc = ctx.processing
    memory = ctx.memory
    hit = _hit_ratio(nest, ctx)
    if nest.mask_count is None:
        per_iteration = iteration_time(nest.count, proc, memory,
                                       precision=nest.precision, hit_ratio=hit)
    else:
        # evaluation of the mask happens every iteration; the assignment only on
        # the (statically assumed) true fraction
        assign_time = iteration_time(nest.assign_count, proc, memory,
                                     precision=nest.precision, hit_ratio=hit,
                                     include_loop_overhead=False)
        mask_time = iteration_time(nest.mask_count, proc, memory,
                                   precision=nest.precision, hit_ratio=hit,
                                   include_loop_overhead=False)
        per_iteration = (
            proc.loop_iteration_overhead
            + proc.conditional_overhead
            + mask_time
            + ctx.options.mask_true_fraction * assign_time
        )

    compute = nest.iterations * per_iteration
    overhead = nest.depth * proc.loop_startup_overhead
    if nest.mask_count is not None:
        overhead += proc.conditional_overhead  # the guard's setup

    return Metrics(computation=compute, overhead=overhead,
                   balanced_computation=nest.mean_iterations * per_iteration)
