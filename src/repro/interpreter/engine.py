"""The interpretation algorithm (§3.3, §4.2 — the interpretation parse).

The engine recursively applies the interpretation functions to the SAAG:
leaf AAUs are charged via their interpretation function, serial loops multiply
their body by the (critical-variable-resolved) trip count, conditionals select
or weight their branches, and a global clock plus cumulative computation /
communication / overhead metrics are maintained for the whole SAAG.

Everything in that walk that depends on neither the machine nor the price
is computed once, by :func:`build_plan`, into a :class:`PricePlan`: the
SAAG, each leaf's planned data, each serial loop's trip count and each
conditional's statically resolved branch.  A plan serves every machine —
:mod:`repro.stages` keeps one per compiled program and options — and
pricing only reads it.

The result object supports the queries the output module exposes: cumulative
metrics, per-AAU metrics, sub-AAG metrics and per-source-line metrics.
"""

from __future__ import annotations

import math
import time as _time
from dataclasses import dataclass
from typing import Any

from ..appmodel.aau import AAU, AAUType
from ..appmodel.builder import build_saag
from ..appmodel.saag import SAAG
from ..compiler.pipeline import CompiledProgram
from ..compiler.spmd import LocalLoopNest, NodeDo, NodeDoWhile, NodeIf
from ..system.ipsc860 import PROGRAM_STARTUP_US
from ..system.machine import Machine
from .functions import (
    InterpretationContext,
    InterpreterOptions,
    PlanContext,
    plan_leaf,
)
from .metrics import Metrics, MetricsTable
from .overlap import apply_overlap

BRANCH_PROBABILITY = 0.5    # for conditionals the parse cannot resolve


@dataclass(frozen=True, eq=False)
class PricePlan:
    """The machine-free part of interpreting one compiled program.

    ``steps`` maps an AAU id to what the walk needs there: a leaf's
    ``(pricer, data)``, a serial loop's trip count, a conditional's
    statically chosen branch (``None`` when unresolved).  ``overrides`` and
    ``while_trip_estimate`` are copies of the only option fields a plan
    depends on; :meth:`check` refuses options that differ in them.
    """

    compiled: CompiledProgram
    saag: SAAG
    steps: dict[int, Any]
    overrides: dict[str, float]
    while_trip_estimate: float

    def check(self, compiled: CompiledProgram, options: InterpreterOptions) -> None:
        """Raise ``ValueError`` unless this plan was built for *compiled*
        under options equal to *options* in the fields it depends on."""
        if compiled is not self.compiled:
            raise ValueError("price plan was built for another compiled program")
        if options.overrides != self.overrides \
                or options.while_trip_estimate != self.while_trip_estimate:
            raise ValueError("price plan was built for other interpreter options")


def build_plan(compiled: CompiledProgram,
               options: InterpreterOptions | None = None) -> PricePlan:
    """Run the abstraction parse and plan every AAU of *compiled*."""
    options = options or InterpreterOptions()
    return _plan_saag(compiled, options,
                      build_saag(compiled, overrides=options.overrides))


def _plan_saag(compiled: CompiledProgram, options: InterpreterOptions,
               saag: SAAG) -> PricePlan:
    """Plan every AAU of *saag*, the abstraction parse of *compiled*."""
    env = dict(compiled.mapping.env)
    env.update(saag.critical_variables.resolved_env())
    env.update({k.lower(): float(v) for k, v in options.overrides.items()})
    steps: dict[int, Any] = {}
    _plan_sequence(saag.root.children, PlanContext(compiled, options, env), steps)
    return PricePlan(compiled=compiled, saag=saag, steps=steps,
                     overrides=dict(options.overrides),
                     while_trip_estimate=options.while_trip_estimate)


def _plan_sequence(aaus: list[AAU], pc: PlanContext, steps: dict[int, Any]) -> None:
    """Plan *aaus* in the order, and under the environment, the walk prices them."""
    for aau in aaus:
        node = aau.spmd_node
        if isinstance(node, NodeDo):
            start = pc.eval(node.start, 1.0)
            end = pc.eval(node.end, start)
            step = pc.eval(node.step, 1.0) or 1.0
            steps[aau.id] = max(math.floor((end - start) / step) + 1, 0)
            # Children see a representative (mid-range) value of the loop
            # variable so bounds that depend on it (triangular loops)
            # interpret to their average.
            var = node.var.lower()
            saved = pc.env.get(var)
            pc.env[var] = (start + end) / 2.0
            _plan_sequence(aau.children, pc, steps)
            if saved is None:
                pc.env.pop(var, None)
            else:
                pc.env[var] = saved
        elif isinstance(node, NodeDoWhile):
            steps[aau.id] = node.estimated_trips or pc.options.while_trip_estimate
            _plan_sequence(aau.children, pc, steps)
        elif isinstance(node, NodeIf):
            steps[aau.id] = _static_branch(node, pc)
            _plan_sequence(aau.children, pc, steps)
        elif node is None and aau.children:
            # structural grouping AAU (e.g. an IF branch)
            _plan_sequence(aau.children, pc, steps)
        else:
            steps[aau.id] = plan_leaf(node, pc)
            # LocalLoopNest children (the mask CondtD) are bookkeeping only.
            if not isinstance(node, LocalLoopNest):
                _plan_sequence(aau.children, pc, steps)


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


@dataclass
class InterpretationResult:
    """Everything the interpretation parse produces for one (program, machine) pair."""

    compiled: CompiledProgram
    machine: Machine
    saag: SAAG
    table: MetricsTable
    options: InterpreterOptions
    # how long the interpretation parse took: the pricing walk, plus the
    # planning when the interpreter planned (not the abstraction parse)
    wall_clock_seconds: float = 0.0

    # -- headline numbers ------------------------------------------------------

    @property
    def total(self) -> Metrics:
        return self.table.cumulative

    @property
    def predicted_time_us(self) -> float:
        return self.table.cumulative.total

    @property
    def predicted_time_s(self) -> float:
        return self.predicted_time_us * 1e-6

    @property
    def load_imbalance(self) -> float:
        """Static critical-path/mean-rank computation ratio (1.0 = balanced).

        The interpretation-parse counterpart of the simulator's per-rank
        ``load_imbalance``: block partitions whose extents do not divide by
        the processor count, and owner-computes scalar statements, push it
        above 1.0.  The performance advisor (:mod:`repro.advisor`) turns
        values above its threshold into load-imbalance findings.
        """
        return self.table.cumulative.imbalance

    # -- queries -----------------------------------------------------------------

    def metrics_for(self, aau_id: int) -> Metrics:
        return self.table.total_for(aau_id)

    def subtree_metrics(self, aau: AAU) -> Metrics:
        return self.table.subtree_total(aau)

    def per_line(self, line: int) -> Metrics:
        """Cumulative metrics attributed to one physical source line."""
        total = Metrics()
        for aau in self.saag.at_line(line):
            total += self.table.total_for(aau.id)
        return total

    def line_breakdown(self) -> dict[int, Metrics]:
        """Metrics per source line, for the whole program."""
        lines: dict[int, Metrics] = {}
        for aau in self.saag.walk():
            metrics = self.table.total_for(aau.id)
            if metrics.total <= 0.0:
                continue
            existing = lines.setdefault(aau.line, Metrics())
            existing += metrics
        return lines

    def breakdown_by_type(self) -> dict[str, Metrics]:
        out: dict[str, Metrics] = {}
        for aau in self.saag.walk():
            metrics = self.table.total_for(aau.id)
            if metrics.total <= 0.0:
                continue
            existing = out.setdefault(aau.type_name, Metrics())
            existing += metrics
        return out

    def top_aaus(self, n: int = 10) -> list[tuple[AAU, Metrics]]:
        scored = [
            (aau, self.table.total_for(aau.id))
            for aau in self.saag.walk()
        ]
        scored.sort(key=lambda pair: pair[1].total, reverse=True)
        return scored[:n]


class PerformanceInterpreter:
    """Runs the interpretation algorithm over one compiled program."""

    def __init__(
        self,
        compiled: CompiledProgram,
        machine: Machine,
        options: InterpreterOptions | None = None,
        plan: PricePlan | None = None,
    ):
        self.compiled = compiled
        self.machine = machine
        self.options = options or InterpreterOptions()
        # The interpretation parse is planning plus pricing; the clock
        # counts the planning only when this interpreter does it.
        self._planning_seconds = 0.0
        if plan is None:
            saag = build_saag(compiled, overrides=self.options.overrides)
            started = _time.perf_counter()
            plan = _plan_saag(compiled, self.options, saag)
            self._planning_seconds = _time.perf_counter() - started
        else:
            plan.check(compiled, self.options)
        self.plan = plan
        self.saag = plan.saag
        self.ctx = InterpretationContext(machine, self.options, compiled.nprocs)
        self.table = MetricsTable()

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def interpret(self) -> InterpretationResult:
        started = _time.perf_counter()
        total = self._interpret_sequence(list(self.saag.root.children), multiplier=1.0)
        startup_metrics = Metrics(overhead=PROGRAM_STARTUP_US)
        total = total + startup_metrics
        self.table.record(self.saag.root.id, startup_metrics, 1.0)
        self.table.cumulative = total
        self.table.global_clock = total.total
        elapsed = _time.perf_counter() - started + self._planning_seconds
        return InterpretationResult(
            compiled=self.compiled,
            machine=self.machine,
            saag=self.saag,
            table=self.table,
            options=self.options,
            wall_clock_seconds=elapsed,
        )

    # ------------------------------------------------------------------
    # recursion
    # ------------------------------------------------------------------

    def _interpret_sequence(self, aaus: list[AAU], multiplier: float) -> Metrics:
        total = Metrics()
        previous_computation = 0.0
        for aau in aaus:
            metrics = self._interpret_aau(aau, multiplier)
            if aau.type in (AAUType.COMM, AAUType.SYNC) and self.options.overlap.enabled:
                adjusted = apply_overlap(metrics, previous_computation, self.options.overlap)
                saved = metrics.communication - adjusted.communication
                if saved > 0:
                    entry = self.table.get(aau.id)
                    if entry is not None:
                        entry.per_execution.communication = max(
                            entry.per_execution.communication - saved, 0.0
                        )
                    metrics = adjusted
            total += metrics
            previous_computation = metrics.computation
        return total

    def _interpret_aau(self, aau: AAU, multiplier: float) -> Metrics:
        node = aau.spmd_node
        clock = self.table.global_clock

        if isinstance(node, NodeDo):
            return self._interpret_do(aau, multiplier)
        if isinstance(node, NodeDoWhile):
            return self._interpret_do_while(aau, multiplier)
        if isinstance(node, NodeIf):
            return self._interpret_if(aau, node, multiplier)
        if node is None and aau.children:
            # structural grouping AAU (e.g. an IF branch)
            self.table.record(aau.id, Metrics(), multiplier, clock)
            return self._interpret_sequence(aau.children, multiplier)

        price, data = self.plan.steps[aau.id]
        own = price(data, self.ctx)
        self.table.record(aau.id, own, multiplier, clock)
        # LocalLoopNest children (the mask CondtD) are bookkeeping only.
        if not isinstance(node, LocalLoopNest):
            child_total = self._interpret_sequence(aau.children, multiplier) if aau.children \
                else Metrics()
        else:
            child_total = Metrics()
            for child in aau.children:
                self.table.record(child.id, Metrics(), multiplier, clock)
        return own + child_total

    # -- serial DO loop -----------------------------------------------------------

    def _interpret_do(self, aau: AAU, multiplier: float) -> Metrics:
        proc = self.ctx.processing
        trips = self.plan.steps[aau.id]
        own = Metrics(overhead=proc.loop_startup_overhead
                      + trips * (proc.loop_iteration_overhead + proc.int_op_time))
        self.table.record(aau.id, own, multiplier, self.table.global_clock)
        child_total = self._interpret_sequence(aau.children, multiplier * trips)
        # child_total is the metrics of ONE execution of the loop body sequence;
        # one execution of the loop runs the body `trips` times.
        return own + child_total.scaled(trips)

    # -- DO WHILE -------------------------------------------------------------------

    def _interpret_do_while(self, aau: AAU, multiplier: float) -> Metrics:
        proc = self.ctx.processing
        trips = self.plan.steps[aau.id]
        cond_cost = Metrics(overhead=trips * (proc.branch_time + 2 * proc.int_op_time))
        self.table.record(aau.id, cond_cost, multiplier, self.table.global_clock)
        child_total = self._interpret_sequence(aau.children, multiplier * trips)
        return cond_cost + child_total.scaled(trips)

    # -- IF construct ----------------------------------------------------------------

    def _interpret_if(self, aau: AAU, node: NodeIf, multiplier: float) -> Metrics:
        own = Metrics(overhead=len(node.branches) * self.ctx.processing.conditional_overhead)
        self.table.record(aau.id, own, multiplier, self.table.global_clock)

        chosen = self.plan.steps[aau.id]
        branch_aaus = aau.children
        total = own
        if chosen is not None:
            for index, branch in enumerate(branch_aaus):
                weight = 1.0 if index == chosen else 0.0
                child = self._interpret_sequence([branch], multiplier * max(weight, 1e-12))
                total += child.scaled(weight)
        else:
            weight = BRANCH_PROBABILITY
            weights = [weight] * len(branch_aaus)
            if weights:
                weights[0] = max(weight, 1.0 - weight * (len(branch_aaus) - 1))
            for branch, w in zip(branch_aaus, weights):
                child = self._interpret_sequence([branch], multiplier * w)
                total += child.scaled(w)
        return total


def interpret(
    compiled: CompiledProgram,
    machine: Machine,
    options: InterpreterOptions | None = None,
    plan: PricePlan | None = None,
) -> InterpretationResult:
    """Convenience wrapper: run the full interpretation parse.

    *plan* prices from a :class:`PricePlan` of *compiled* built under equal
    *options* (else ``ValueError``).  Without one, the abstraction parse and
    the planning run first.
    """
    return PerformanceInterpreter(compiled, machine, options=options,
                                  plan=plan).interpret()
