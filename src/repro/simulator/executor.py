"""Per-rank execution of the SPMD node program ("measured" times).

The executor is the simulator's counterpart of running the compiled node
program on the real machine.  It drives the compiled SPMD IR, keeping

* one **data plane** — the program's arrays and scalars, evaluated with NumPy
  through the functional evaluator (so simulated results are bit-identical to
  the functional interpreter) or replayed from a recorded tape of the answers
  an earlier run took from it (:mod:`repro.simulator.dataplane`), and
* one **timing plane** — a clock per rank, advanced by the dynamic node cost
  model for local computation and by the message-level network model for
  communication phases, with seeded system-load noise on top.

Because the data plane executes the program for real, the timing plane sees
the *actual* iteration counts, mask fractions, message sizes, trip counts and
branch outcomes — precisely the dynamic information the static interpretation
parse has to approximate.  The difference between the two is the prediction
error the paper's Table 2 and Figures 4–5 quantify.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .. import obs
from ..compiler.pipeline import CompiledProgram
from ..compiler.spmd import (
    CommPhase,
    CommSpec,
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
from ..distribution import ArrayDistribution
from ..frontend import ast_nodes as ast
from ..frontend.errors import SimulationError
from ..functional.evaluator import CycleLoop, ExitLoop, StopProgram
from ..interpreter.expression_cost import OpCount, count_expr, count_statement_body
from ..interpreter.metrics import Metrics
from ..system.ipsc860 import PROGRAM_STARTUP_US
from ..system.machine import Machine
from .collectives import allreduce, broadcast, shift_exchange, unstructured_gather
from .dataplane import DataPlane
from .network import Network
from .node import IterationProfile, NodeCostModel
from .noise import NoiseModel, NoiseOptions


#: Execution-core engines: ``"vector"`` computes per-rank state in bulk
#: (array-based iteration counting, memoised cost-model calls, array network
#: drain); ``"loop"`` is the original per-rank python loop implementation on
#: the per-event network heap, kept as the oracle.  Both produce identical
#: results.
ENGINES = ("vector", "loop")

#: index of each charge category in the running sums
_CATEGORIES = {"computation": 0, "communication": 1, "overhead": 2}

#: the signal each jump statement raises, caught as the functional
#: evaluator catches it
_JUMPS = {ast.ExitStmt: ExitLoop, ast.CycleStmt: CycleLoop,
          ast.StopStmt: StopProgram}


@dataclass
class SimulatorOptions:
    """User-controllable simulation parameters.

    ``engine`` selects the execution core: ``"vector"`` (default) computes
    per-rank iteration counts, compute-time accrual and boundary exchanges in
    bulk and prices each network stage with array kernels; ``"loop"`` is the
    original per-rank python implementation on the per-event network heap,
    kept as the correctness oracle.
    The two are required (and tested) to agree on every per-rank time to
    within 1e-9 — in practice bit-for-bit.
    """

    noise: NoiseOptions = field(default_factory=NoiseOptions)
    seed: int = 12345
    max_while_iterations: int = 100_000
    #: per-collective library software overhead; None means "use the machine's
    #: benchmarked collective_call_overhead" (30 µs on the iPSC/860)
    collective_software_overhead: float | None = None
    program_startup_us: float = PROGRAM_STARTUP_US   # node program load + initial barrier
    engine: str = "vector"                           # "vector" | "loop"

    def __post_init__(self) -> None:
        # Validate eagerly: a typo'd engine should fail where the config is
        # written, not several layers down when the simulation dispatches.
        if self.engine not in ENGINES:
            known = " | ".join(repr(name) for name in ENGINES)
            raise SimulationError(
                f"unknown simulator engine {self.engine!r}; known engines: "
                f"{known} (pass e.g. SimulatorOptions(engine=\"vector\"))")


@dataclass
class CommStatistics:
    messages: int = 0
    bytes: int = 0
    operations: int = 0

    def record(self, messages: int, nbytes: float) -> None:
        self.messages += messages
        self.bytes += int(nbytes)
        self.operations += 1


class SPMDExecutor:
    """Executes one compiled program on the simulated machine.

    This class is the ``"loop"`` engine: every per-rank quantity is computed
    in an explicit ``for rank in range(self.nprocs)`` python loop.  It is kept
    as the correctness oracle; the scaled ``"vector"`` engine
    (:class:`~repro.simulator.vector.VectorSPMDExecutor`) overrides the
    per-rank hook methods (``_loop_nest_per_rank``, ``_reduction_per_rank``,
    ``_shift_copy_per_rank``, ``_set_clocks``) and the whole communication
    phases (``_exec_shift``, ``_exec_comm_spec`` — array clocks end to end)
    with array-based implementations that must produce identical times.
    Engine selection happens in :func:`repro.simulator.runtime.simulate`;
    instantiating this class directly always runs the loop implementation.
    ``plane`` is the program's data plane
    (:mod:`repro.simulator.dataplane`), live or replayed; ``simulate``
    picks it.
    """

    engine_name = "loop"

    def __init__(
        self,
        compiled: CompiledProgram,
        machine: Machine,
        options: SimulatorOptions | None = None,
        *,
        plane: DataPlane,
    ):
        self.compiled = compiled
        self.machine = machine
        self.options = options or SimulatorOptions()
        self.nprocs = compiled.nprocs
        self.grid = compiled.mapping.grid

        # Data plane: the *normalised* program's values, with control flow
        # driven from the SPMD IR; live, or a recorded tape replayed.
        self.plane = plane

        self.cost = NodeCostModel(machine)
        num_nodes = max(self.nprocs, 1)
        self.network = Network(machine.communication, num_nodes,
                               topology=machine.topology(num_nodes))
        self.noise = NoiseModel(seed=self.options.seed + machine.noise_seed,
                                options=self.options.noise)
        # A single-rank "collective" never enters the messaging library, so it
        # pays no software overhead (mirrors the analytic models' p=1 guard).
        if self.nprocs <= 1:
            self.collective_overhead = 0.0
        elif self.options.collective_software_overhead is not None:
            self.collective_overhead = self.options.collective_software_overhead
        else:
            self.collective_overhead = machine.communication.collective_call_overhead

        self.clocks = np.zeros(self.nprocs, dtype=np.float64)
        # running computation / communication / overhead means, in total
        # and per source line, added one charge at a time (see _charge)
        self._totals = [0.0, 0.0, 0.0]
        self._lines: dict[int, list[float]] = {}
        # scalar charge -> the mean of that value over every rank
        self._scalar_means: dict[float, float] = {}
        self.comm_stats = CommStatistics()
        self.statements_executed = 0
        # id(spmd node) -> its static cost (op count or scalar-statement
        # time); see _static_cost.
        self._static_costs: dict[int, object] = {}

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def run(self) -> None:
        self.clocks += self.options.program_startup_us
        try:
            self._execute_sequence(self.compiled.spmd.nodes)
        except StopProgram:
            self.plane.stop()
        except (ExitLoop, CycleLoop):
            raise SimulationError("EXIT or CYCLE outside a DO loop") from None

    @property
    def elapsed_us(self) -> float:
        return float(np.max(self.clocks)) if self.nprocs else 0.0

    @property
    def totals(self) -> Metrics:
        """Whole-run computation / communication / overhead means."""
        return self._metrics(self._totals)

    @property
    def line_metrics(self) -> dict[int, Metrics]:
        """The same means per source line, in first-charge order."""
        return {line: self._metrics(sums) for line, sums in self._lines.items()}

    @staticmethod
    def _metrics(sums: list[float]) -> Metrics:
        # a Metrics += chain keeps balanced_computation equal to computation
        return Metrics(sums[0], sums[1], sums[2], balanced_computation=sums[0])

    # ------------------------------------------------------------------
    # charging helpers
    # ------------------------------------------------------------------

    def _charge(self, node: SPMDNode, category: str, per_rank: np.ndarray | float) -> None:
        """Advance clocks and attribute the mean time to the node's source line.

        The means are summed in call order with plain float additions, so
        the totals equal those of a per-charge ``Metrics`` ``+=`` chain bit
        for bit.  A scalar charge's mean is that of ``np.full(p, value)``,
        worked out once per value.
        """
        if isinstance(per_rank, np.ndarray):
            per_rank = np.asarray(per_rank, dtype=np.float64)
            self.clocks += per_rank
            mean = self._mean(per_rank)
        else:
            value = float(per_rank)
            self.clocks += value
            mean = self._scalar_means.get(value)
            if mean is None:
                mean = self._scalar_means[value] = \
                    self._mean(np.full(self.nprocs, value))
        index = _CATEGORIES[category]
        self._totals[index] += mean
        sums = self._lines.get(node.line)
        if sums is None:
            sums = self._lines[node.line] = [0.0, 0.0, 0.0]
        sums[index] += mean

    @staticmethod
    def _mean(per_rank: np.ndarray) -> float:
        """``np.mean``'s pairwise sum and division, without its overhead."""
        return float(per_rank.sum()) / per_rank.size if per_rank.size else 0.0

    def _set_clocks(self, node: SPMDNode, category: str, new_clocks: dict[int, float]) -> None:
        """Move clocks to the given completion times, attributing the delta."""
        delta = np.zeros(self.nprocs, dtype=np.float64)
        for rank in range(self.nprocs):
            target = new_clocks.get(rank, self.clocks[rank])
            delta[rank] = max(target - self.clocks[rank], 0.0)
        self._charge(node, category, delta)

    def _static_cost(self, node: SPMDNode, compute):
        """The node's static cost, from ``compute()`` on its first execution.

        Operation counts and scalar-statement times depend only on the
        node's AST, which compile, price and simulate never change, so one
        evaluation per executor serves every DO-loop trip.
        """
        cost = self._static_costs.get(id(node))
        if cost is None:
            cost = self._static_costs[id(node)] = compute()
        return cost

    def _apply_comm_noise(self, done: dict[int, float],
                          clocks: dict[int, float]) -> dict[int, float]:
        """Perturb one communication phase's clock advances, rank by rank.

        Claims exactly one noise phase (the vector engine's
        ``communication_batch`` claims the same phase at the same point in
        its control flow) and draws each participating rank's deviate keyed
        on that phase — so the loop engine stays the scalar oracle while
        remaining bit-identical to the batched draws.
        """
        with obs.span("noise"):
            phase = self.noise.begin_phase()
            return {r: self.noise.communication_keyed(phase, r, t - clocks[r])
                    + clocks[r] for r, t in done.items()}

    # ------------------------------------------------------------------
    # sequence / control flow
    # ------------------------------------------------------------------

    def _execute_sequence(self, nodes: list[SPMDNode]) -> None:
        for node in nodes:
            self._execute_node(node)

    def _execute_node(self, node: SPMDNode) -> None:
        self.statements_executed += 1
        if isinstance(node, SeqOverhead):
            self._exec_seq_overhead(node)
        elif isinstance(node, CommPhase):
            self._exec_comm_phase(node)
        elif isinstance(node, LocalLoopNest):
            self._exec_loop_nest(node)
        elif isinstance(node, ReductionNode):
            self._exec_reduction(node)
        elif isinstance(node, ShiftNode):
            self._exec_shift(node)
        elif isinstance(node, OwnerStmt):
            self._exec_owner_stmt(node)
        elif isinstance(node, SerialStmt):
            self._exec_serial(node)
        elif isinstance(node, NodeDo):
            self._exec_do(node)
        elif isinstance(node, NodeDoWhile):
            self._exec_do_while(node)
        elif isinstance(node, NodeIf):
            self._exec_if(node)
        else:
            raise SimulationError(f"cannot simulate SPMD node {type(node).__name__}")

    def _exec_do(self, node: NodeDo) -> None:
        start, end, step = self.plane.do_bounds(node)
        if step == 0:
            raise SimulationError("DO loop step must be non-zero", )
        proc = self.machine.processing
        value = start
        try:
            while (step > 0 and value <= end) or (step < 0 and value >= end):
                self.plane.loop_var(node.var, value)
                self._charge(node, "overhead",
                             proc.loop_iteration_overhead + proc.int_op_time)
                try:
                    self._execute_sequence(node.body)
                except CycleLoop:
                    pass
                value += step
        except ExitLoop:
            pass
        self.plane.loop_var(node.var, value)

    def _exec_do_while(self, node: NodeDoWhile) -> None:
        proc = self.machine.processing
        iterations = 0
        try:
            while self.plane.while_test(node):
                iterations += 1
                if iterations > self.options.max_while_iterations:
                    raise SimulationError("DO WHILE exceeded the simulation iteration limit")
                self._charge(node, "overhead", proc.branch_time + 2 * proc.int_op_time)
                try:
                    self._execute_sequence(node.body)
                except CycleLoop:
                    pass
        except ExitLoop:
            pass
        self._charge(node, "overhead", proc.branch_time)

    def _exec_if(self, node: NodeIf) -> None:
        proc = self.machine.processing
        self._charge(node, "overhead", proc.conditional_overhead)
        taken = self.plane.if_branch(node)
        self._execute_sequence(node.branches[taken][1] if taken >= 0
                               else node.else_body)

    # ------------------------------------------------------------------
    # leaf nodes
    # ------------------------------------------------------------------

    def _exec_seq_overhead(self, node: SeqOverhead) -> None:
        proc = self.machine.processing
        items = max(node.items, 1)
        if node.kind == "pack_parameters":
            time = items * (12 * proc.int_op_time + 2 * proc.assignment_overhead)
        elif node.kind == "adjust_bounds":
            time = items * (8 * proc.int_op_time + proc.divide_time)
        else:
            time = items * 6 * proc.int_op_time
        self._charge(node, "overhead", time)

    def _exec_serial(self, node: SerialStmt) -> None:
        stmt = node.stmt
        if isinstance(stmt, (ast.ExitStmt, ast.CycleStmt, ast.StopStmt, ast.ContinueStmt)):
            self._charge(node, "overhead", self.machine.processing.branch_time)
            jump = _JUMPS.get(type(stmt))
            if jump is not None:
                raise jump()
            return
        if isinstance(stmt, ast.PrintStmt):
            self.plane.print(stmt)
            self._charge(node, "overhead", 180.0 + 55.0 * max(len(stmt.items), 1))
            return
        if isinstance(stmt, ast.Assignment):
            self.plane.assign(stmt)
            self._charge(node, "computation",
                         self.noise.compute(self._statement_time(node)))
            return
        if isinstance(stmt, ast.CallStmt):
            self._charge(node, "computation", self.machine.processing.call_overhead)
            return
        # declarations or other inert statements
        self._charge(node, "overhead", 0.0)

    def _statement_time(self, node: SerialStmt | OwnerStmt) -> float:
        """Node time of a scalar assignment, before noise."""
        return self._static_cost(node, lambda: self.cost.scalar_statement_time(
            count_statement_body([node.stmt])))

    def _exec_owner_stmt(self, node: OwnerStmt) -> None:
        stmt = node.stmt
        dist = self.compiled.mapping.distribution_of(node.array)
        proc = self.machine.processing

        if node.comms:
            self._exec_comm_specs(node, node.comms)

        subscripts = self.plane.assign(stmt)

        # ownership guard evaluated by every rank
        guard = 4 * proc.int_op_time + proc.branch_time
        per_rank = np.full(self.nprocs, guard)

        owner = 0
        if dist is not None and subscripts is not None:
            index = tuple(value - lower for value, lower
                          in zip(subscripts, dist.lower_bounds))
            try:
                owner = dist.owner_rank(index)
            except Exception:
                owner = 0
        per_rank[owner] += self.noise.compute(self._statement_time(node),
                                              rank=owner)
        self._charge(node, "computation", per_rank)

    # -- local loop nests ---------------------------------------------------------

    def _exec_loop_nest(self, node: LocalLoopNest) -> None:
        mapping = self.compiled.mapping
        home_dist = mapping.distribution_of(node.home_array) if node.home_array else None
        distributed = home_dist is not None and not home_dist.is_replicated

        # Data plane: execute the forall (vectorised) and capture its shape.
        forall = node.origin
        if not isinstance(forall, ast.ForallStmt):
            raise SimulationError("loop nest without a forall origin", )
        record = self.plane.forall(forall)

        if record.iterations == 0:
            self._charge(node, "overhead",
                         len(node.loops) * self.machine.processing.loop_startup_overhead)
            return

        count = self._static_cost(
            node, lambda: count_statement_body(node.body, node.mask))
        element_size = home_dist.element_size if home_dist is not None else 4
        precision = self._precision(node.home_array)

        per_rank = self._loop_nest_per_rank(node, record, home_dist, distributed,
                                            count, element_size, precision)
        self._charge(node, "computation", per_rank)

    def _loop_nest_per_rank(self, node: LocalLoopNest, record, home_dist,
                            distributed: bool, count: OpCount,
                            element_size: int, precision: str) -> np.ndarray:
        """Timing plane: actual per-rank iteration counts and mask fractions.

        The whole sweep is one ``node_cost`` span; the loop engine draws its
        compute noise scalar-by-scalar inside the sweep, so that time is
        folded into ``node_cost`` here (the vector engine, where the batch
        draw is a separable call, reports it under ``noise``).
        """
        with obs.span("node_cost"):
            per_rank = np.zeros(self.nprocs, dtype=np.float64)
            noise_phase = self.noise.begin_phase()
            for rank in range(self.nprocs):
                selectors: list[np.ndarray] = []
                iterations = 1.0
                innermost_extent = 1.0
                stride1 = False
                for dim in node.loops:
                    values = record.triplet_ranges.get(dim.var.lower())
                    if values is None:
                        continue
                    if distributed and dim.home_axis is not None and \
                            dim.home_axis < len(home_dist.axes) and \
                            home_dist.axes[dim.home_axis].is_distributed:
                        owned = home_dist.local_indices(rank, dim.home_axis) + \
                            home_dist.lower_bounds[dim.home_axis]
                        selector = np.isin(values, owned)
                    else:
                        selector = np.ones(len(values), dtype=bool)
                    selectors.append(selector)
                    dim_count = float(np.count_nonzero(selector))
                    iterations *= dim_count
                    if dim.home_axis == 0:
                        stride1 = True
                        innermost_extent = dim_count
                if not stride1 and selectors:
                    innermost_extent = float(np.count_nonzero(selectors[-1]))

                mask_fraction = None
                if record.mask is not None and iterations > 0 and selectors:
                    sub_mask = record.mask[np.ix_(*selectors)]
                    mask_fraction = float(np.count_nonzero(sub_mask)) / max(sub_mask.size, 1)

                profile = IterationProfile(
                    count=count,
                    precision=precision,
                    element_size=element_size,
                    local_elements=iterations,
                    innermost_extent=max(innermost_extent, 1.0),
                    stride1=stride1 or not distributed,
                    arrays_touched=max(len(count.arrays_touched), 1),
                    mask_fraction=mask_fraction,
                )
                per_rank[rank] = self.noise.compute_keyed(
                    noise_phase, rank,
                    self.cost.loop_nest_time(profile, depth=len(node.loops))
                )
            return per_rank

    # -- reductions -----------------------------------------------------------------

    def _exec_reduction(self, node: ReductionNode) -> None:
        # Data plane: the origin assignment computes the reduced value exactly.
        total_extent = self.plane.reduction(node)

        mapping = self.compiled.mapping
        dist = mapping.distribution_of(node.home_array) if node.home_array else None
        count = self._static_cost(node, lambda: self._reduction_count(node))

        if total_extent is None:
            total_extent = float(dist.size) if dist is not None else 1.0
        element_size = dist.element_size if dist is not None else 4
        per_rank = self._reduction_per_rank(node, dist, count, total_extent,
                                            element_size,
                                            self._precision(node.home_array))
        self._charge(node, "computation", per_rank)

    @staticmethod
    def _reduction_count(node: ReductionNode) -> OpCount:
        count = count_expr(node.source)
        if node.second_source is not None:
            count += count_expr(node.second_source)
            count.flops += 1.0
        if node.mask is not None:
            count += count_expr(node.mask)
        count.flops += 1.0
        return count

    def _reduction_per_rank(self, node: ReductionNode,
                            dist: ArrayDistribution | None, count: OpCount,
                            total_extent: float, element_size: int,
                            precision: str) -> np.ndarray:
        """Per-rank local-partial-reduction times (each rank sweeps its share)."""
        with obs.span("node_cost"):
            per_rank = np.zeros(self.nprocs, dtype=np.float64)
            noise_phase = self.noise.begin_phase()
            for rank in range(self.nprocs):
                if dist is not None and not dist.is_replicated:
                    share = dist.local_size(rank) / max(dist.size, 1)
                    local = total_extent * share
                else:
                    local = total_extent
                profile = IterationProfile(
                    count=count,
                    precision=precision,
                    element_size=element_size,
                    local_elements=local,
                    innermost_extent=max(local, 1.0),
                    stride1=True,
                    arrays_touched=max(len(count.arrays_touched), 1),
                )
                per_rank[rank] = self.noise.compute_keyed(
                    noise_phase, rank, self.cost.loop_nest_time(profile, depth=1))
            return per_rank

    # -- shifts -----------------------------------------------------------------------

    def _exec_shift(self, node: ShiftNode) -> None:
        shift = self.plane.shift(node)

        dist = self.compiled.mapping.distribution_of(node.source)
        proc = self.machine.processing
        if dist is None:
            self._charge(node, "computation", proc.call_overhead)
            return

        offset = abs(shift)
        self._charge(node, "computation", self._shift_copy_per_rank(dist))

        axis = node.axis if node.axis < len(dist.axes) else 0
        axis_map = dist.axes[axis]
        if not axis_map.is_distributed or axis_map.nprocs <= 1 or dist.grid is None:
            return

        direction = 1 if shift >= 0 else -1
        pairs, sizes = self._shift_plan(dist, axis, axis_map, offset,
                                        dist.element_size, direction,
                                        clamp_shift_axis=False)

        clocks = {r: float(self.clocks[r]) for r in range(self.nprocs)}
        with obs.span("network"):
            done = shift_exchange(self.network, pairs, sizes, clocks,
                                  software_overhead=self.collective_overhead)
        done = self._apply_comm_noise(done, clocks)
        self._set_clocks(node, "communication", done)

    def _shift_copy_per_rank(self, dist: ArrayDistribution) -> np.ndarray:
        """Per-rank local copy cost of a shift (each rank copies its block)."""
        with obs.span("node_cost"):
            proc = self.machine.processing
            copy_per_rank = np.zeros(self.nprocs)
            noise_phase = self.noise.begin_phase()
            for rank in range(self.nprocs):
                local = dist.local_size(rank)
                copy_per_rank[rank] = self.noise.compute_keyed(
                    noise_phase, rank,
                    local * (proc.assignment_overhead + self.machine.memory.hit_time * 2)
                )
            return copy_per_rank

    def _shift_plan(self, dist: ArrayDistribution, axis: int, axis_map, offset: int,
                    element_size: int, direction: int,
                    clamp_shift_axis: bool) -> tuple[list[tuple[int, int]],
                                                     dict[tuple[int, int], int]]:
        """(sender, receiver) pairs and per-pair byte counts of one boundary shift.

        ``clamp_shift_axis`` keeps the historical difference between the two
        shift call sites: communication specs clamp the shifted axis's local
        count to at least one element, cshift nodes do not.  Records each
        pair's message in ``comm_stats``.
        """
        pairs: list[tuple[int, int]] = []
        sizes: dict[tuple[int, int], int] = {}
        for rank in range(self.nprocs):
            partner = dist.grid.circular_neighbor(rank, axis_map.grid_axis, direction)
            if partner == rank:
                continue
            boundary = 1.0
            for axis_no in range(dist.rank):
                local = dist.axes[axis_no].local_count(
                    self._axis_coord(dist, rank, axis_no))
                if axis_no == axis:
                    boundary *= min(max(offset, 1),
                                    max(local, 1) if clamp_shift_axis else local)
                else:
                    boundary *= max(local, 1)
            nbytes = int(boundary * element_size)
            pairs.append((rank, partner))
            sizes[(rank, partner)] = nbytes
            self.comm_stats.record(1, nbytes)
        return pairs, sizes

    def _axis_coord(self, dist: ArrayDistribution, rank: int, axis_no: int) -> int:
        axis = dist.axes[axis_no]
        if dist.grid is None or axis.grid_axis is None:
            return 0
        return dist.grid.coords(rank)[axis.grid_axis]

    # -- communication phases --------------------------------------------------------

    def _exec_comm_phase(self, node: CommPhase) -> None:
        self._exec_comm_specs(node, node.comms)

    def _exec_comm_specs(self, node: SPMDNode, specs: list[CommSpec]) -> None:
        for spec in specs:
            self._exec_comm_spec(node, spec)

    def _exec_comm_spec(self, node: SPMDNode, spec: CommSpec) -> None:
        comm = self.machine.communication
        proc = self.machine.processing
        dist = self.compiled.mapping.distribution_of(spec.array) if spec.array else None
        clocks = {r: float(self.clocks[r]) for r in range(self.nprocs)}
        overhead = self.collective_overhead

        if spec.kind == "shift" and dist is not None and dist.grid is not None:
            axis = spec.axis if spec.axis is not None else 0
            axis_map = dist.axes[axis] if axis < len(dist.axes) else None
            if axis_map is None or not axis_map.is_distributed or axis_map.nprocs <= 1:
                # boundary stays on-processor: a local copy only
                elements = self._boundary_elements(dist, axis, abs(spec.offset) or 1, 0)
                self._charge(node, "overhead",
                             elements * (self.machine.memory.hit_time + proc.assignment_overhead))
                return
            direction = 1 if spec.offset >= 0 else -1
            pairs, sizes = self._shift_plan(dist, axis, axis_map,
                                            abs(spec.offset) or 1,
                                            spec.element_size, direction,
                                            clamp_shift_axis=True)
            with obs.span("network"):
                done = shift_exchange(self.network, pairs, sizes, clocks,
                                      software_overhead=overhead)
            done = self._apply_comm_noise(done, clocks)
            self._set_clocks(node, "communication", done)
            return

        if spec.kind == "broadcast":
            nbytes = max(int(self._spec_elements(spec, dist) * spec.element_size),
                         spec.element_size)
            ranks = list(range(self.nprocs))
            with obs.span("network"):
                done = broadcast(self.network, 0, ranks, nbytes, clocks,
                                 software_overhead=overhead)
            done = self._apply_comm_noise(done, clocks)
            self.comm_stats.record(max(self.nprocs - 1, 0), nbytes * max(self.nprocs - 1, 0))
            self._set_clocks(node, "communication", done)
            return

        if spec.kind == "reduce":
            nbytes = spec.element_size
            ranks = list(range(self.nprocs))
            with obs.span("network"):
                done = allreduce(self.network, ranks, nbytes, clocks,
                                 combine_time=proc.flop_time_sp,
                                 software_overhead=overhead)
            done = self._apply_comm_noise(done, clocks)
            self.comm_stats.record(self.nprocs, nbytes * self.nprocs)
            self._set_clocks(node, "communication", done)
            return

        if spec.kind in ("gather", "writeback"):
            elements = self._spec_elements(spec, dist)
            nbytes = int(elements * spec.element_size)
            ranks = list(range(self.nprocs))
            with obs.span("network"):
                done = unstructured_gather(self.network, ranks, nbytes, clocks,
                                           software_overhead=overhead)
            done = self._apply_comm_noise(done, clocks)
            self.comm_stats.record(self.nprocs * max(self.nprocs - 1, 1) // 2,
                                   nbytes * max(self.nprocs - 1, 1))
            self._set_clocks(node, "communication", done)
            return

        # unknown pattern: charge a barrier
        stages = max(int(math.ceil(math.log2(max(self.nprocs, 2)))), 1)
        self._charge(node, "communication", stages * comm.barrier_per_stage)

    def _spec_elements(self, spec: CommSpec, dist: ArrayDistribution | None) -> float:
        if dist is None:
            return 1.0
        if spec.kind == "broadcast":
            if spec.axis is None:
                return 1.0  # single off-processor element fetched by every node
            total = 1.0
            for axis_no, axis in enumerate(dist.axes):
                if axis_no == spec.axis:
                    continue
                total *= max(axis.avg_local_count(), 1.0)
            return total
        return max(dist.avg_local_size(), 1.0)

    def _boundary_elements(self, dist: ArrayDistribution, axis: int, offset: int,
                           rank: int) -> float:
        total = 1.0
        for axis_no in range(dist.rank):
            local = dist.axes[axis_no].local_count(self._axis_coord(dist, rank, axis_no))
            if axis_no == axis:
                total *= min(max(offset, 1), max(local, 1))
            else:
                total *= max(local, 1)
        return total

    # ------------------------------------------------------------------
    # misc helpers
    # ------------------------------------------------------------------

    def _precision(self, array: str | None) -> str:
        if not array:
            return "real"
        sym = self.compiled.symtable.get(array)
        if sym is not None and sym.type_name == "double":
            return "double"
        return "real"
