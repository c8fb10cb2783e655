"""The interpretation algorithm (§3.3, §4.2 — the interpretation parse).

The engine recursively applies the interpretation functions to the SAAG:
leaf AAUs are charged via their interpretation function, serial loops multiply
their body by the (critical-variable-resolved) trip count, conditionals select
or weight their branches, and a global clock plus cumulative computation /
communication / overhead metrics are maintained for the whole SAAG.

Everything in that walk that depends on neither the machine nor the price
was computed by the abstraction parse (:func:`~repro.interpreter.build_saag`)
into each AAU's ``params``: a leaf's pricer and planned data, a serial
loop's trip count, a conditional's statically resolved branch.  One SAAG
serves every machine — :mod:`repro.stages` keeps one per compiled program
and options — and pricing only reads it.

The result object supports the queries the output module exposes: cumulative
metrics, per-AAU metrics, sub-AAG metrics and per-source-line metrics.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass

from ..appmodel.aau import AAU
from ..appmodel.saag import SAAG
from ..compiler.pipeline import CompiledProgram
from ..compiler.spmd import LocalLoopNest, NodeDo, NodeDoWhile, NodeIf
from ..system.ipsc860 import PROGRAM_STARTUP_US
from ..system.machine import Machine
from .abstraction import build_saag
from .functions import InterpretationContext, InterpreterOptions
from .metrics import Metrics, MetricsTable

BRANCH_PROBABILITY = 0.5    # for conditionals the parse cannot resolve


@dataclass
class InterpretationResult:
    """Everything the interpretation parse produces for one (program, machine) pair."""

    compiled: CompiledProgram
    machine: Machine
    saag: SAAG
    table: MetricsTable
    options: InterpreterOptions
    # how long the interpretation took: the pricing walk, plus the
    # abstraction parse when the interpreter ran it
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


class PerformanceInterpreter:
    """Runs the interpretation algorithm over one compiled program."""

    def __init__(
        self,
        compiled: CompiledProgram,
        machine: Machine,
        options: InterpreterOptions | None = None,
        saag: SAAG | None = None,
    ):
        self.compiled = compiled
        self.machine = machine
        self.options = options or InterpreterOptions()
        # The clock counts the abstraction parse only when this interpreter
        # runs it.
        self._abstraction_seconds = 0.0
        if saag is None:
            started = _time.perf_counter()
            saag = build_saag(compiled, self.options)
            self._abstraction_seconds = _time.perf_counter() - started
        elif saag.compiled is not compiled:
            raise ValueError("SAAG was built for another compiled program")
        elif saag.overrides != self.options.overrides:
            raise ValueError("SAAG was built for other interpreter options")
        self.saag = saag
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
        elapsed = _time.perf_counter() - started + self._abstraction_seconds
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
        for aau in aaus:
            total += self._interpret_aau(aau, multiplier)
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
        if node is None:
            # structural grouping AAU (an IF branch)
            self.table.record(aau.id, Metrics(), multiplier, clock)
            return self._interpret_sequence(aau.children, multiplier)

        price, data = aau.params
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
        trips = aau.params
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
        trips = self.options.while_trip_estimate
        cond_cost = Metrics(overhead=trips * (proc.branch_time + 2 * proc.int_op_time))
        self.table.record(aau.id, cond_cost, multiplier, self.table.global_clock)
        child_total = self._interpret_sequence(aau.children, multiplier * trips)
        return cond_cost + child_total.scaled(trips)

    # -- IF construct ----------------------------------------------------------------

    def _interpret_if(self, aau: AAU, node: NodeIf, multiplier: float) -> Metrics:
        own = Metrics(overhead=len(node.branches) * self.ctx.processing.conditional_overhead)
        self.table.record(aau.id, own, multiplier, self.table.global_clock)

        chosen = aau.params
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
    saag: SAAG | None = None,
) -> InterpretationResult:
    """Convenience wrapper: run the full interpretation parse.

    *saag* prices a SAAG of *compiled* built under equal ``overrides``
    (else ``ValueError``).  Without one, the abstraction parse runs first.
    """
    return PerformanceInterpreter(compiled, machine, options=options,
                                  saag=saag).interpret()
