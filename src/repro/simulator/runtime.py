"""The simulation driver and its result object.

``simulate`` plays the role of "running the application on the iPSC/860 and
timing it": it executes the compiled SPMD program in the simulator and reports
the measured execution time (max over node clocks), the computation /
communication / overhead breakdown, per-source-line attribution and the final
program state (for functional validation against the sequential evaluator).
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field, replace

import numpy as np

from .. import obs, stages
from ..compiler.pipeline import CompiledProgram
from ..frontend.errors import SimulationError
from ..interpreter.metrics import Metrics
from ..system.machine import Machine
from .dataplane import LivePlane, ReplayPlane, plane_env
from .executor import ENGINES, CommStatistics, SimulatorOptions, SPMDExecutor
from .vector import VectorSPMDExecutor


@dataclass
class SimulationResult:
    """Outcome of one simulated run."""

    compiled: CompiledProgram
    machine: Machine
    options: SimulatorOptions
    measured_time_us: float
    per_rank_us: list[float]
    totals: Metrics
    line_metrics: dict[int, Metrics]
    comm_stats: CommStatistics
    printed: list[str] = field(default_factory=list)
    array_checksum: float = 0.0
    statements_executed: int = 0
    wall_clock_seconds: float = 0.0
    state: object | None = None
    engine: str = "vector"               # execution core that produced the times

    @property
    def measured_time_s(self) -> float:
        return self.measured_time_us * 1e-6

    @property
    def load_imbalance(self) -> float:
        """max/mean of per-rank execution times (1.0 = perfectly balanced)."""
        if not self.per_rank_us:
            return 1.0
        mean = float(np.mean(self.per_rank_us))
        return float(np.max(self.per_rank_us)) / mean if mean > 0 else 1.0

    def per_line(self, line: int) -> Metrics:
        return self.line_metrics.get(line, Metrics())

    def breakdown(self) -> dict[str, float]:
        return {
            "computation": self.totals.computation,
            "communication": self.totals.communication,
            "overhead": self.totals.overhead,
            "total": self.measured_time_us,
        }


def simulate(
    compiled: CompiledProgram,
    machine: Machine,
    options: SimulatorOptions | None = None,
    params: dict[str, float] | None = None,
    keep_state: bool = False,
) -> SimulationResult:
    """Execute *compiled* on the simulated *machine* and return measured times.

    ``options.engine`` selects the execution core: ``"vector"`` (default)
    keeps per-rank state — including the clocks of whole communication
    phases — in arrays and drains network stages as structure-of-arrays
    batches; ``"loop"`` runs the original per-rank python loops.  Both
    engines produce identical measured times (the parity is tier-1-tested);
    the vector engine is what makes large partitions (p ≥ 1024 on a
    contention-free fabric) affordable.  An unknown engine name fails
    eagerly, at ``SimulatorOptions(...)`` construction; the check here is a
    backstop for configs whose ``engine`` was reassigned after construction.

    The program's values come from the ``dataplane`` stage
    (:func:`repro.stages.dataplane_stage_key`): the first run of a program
    and parameter env executes them live and records a tape, and later
    runs — any machine, seed, engine and (unless the source names
    ``number_of_processors``) process count — replay it.  ``keep_state``
    always runs live, because only a live run has a state to return.
    """
    options = options or SimulatorOptions()
    if options.engine not in ENGINES:
        raise SimulationError(
            f"unknown simulator engine {options.engine!r}; known: {ENGINES}")
    executor_class = VectorSPMDExecutor if options.engine == "vector" \
        else SPMDExecutor
    started = _time.perf_counter()
    with obs.span("simulate", engine=options.engine,
                  nprocs=compiled.nprocs, machine=machine.name):
        env = plane_env(compiled, params)
        key = stages.dataplane_stage_key(compiled, env,
                                         options.max_while_iterations)
        tape = stages.dataplane_tape(key) \
            if key is not None and not keep_state else None
        plane = ReplayPlane(compiled, tape) if tape is not None \
            else LivePlane(compiled, env)
        executor = executor_class(compiled, machine, options=options,
                                  plane=plane)
        executor.run()
        printed, checksum = plane.finish()
        if key is not None and tape is None and plane.recorded is not None:
            stages.store_dataplane_tape(key, plane.recorded)
    elapsed = _time.perf_counter() - started
    obs.counter("repro_simulations_total", engine=options.engine).inc()

    measured = executor.noise.quantise(executor.elapsed_us)
    return SimulationResult(
        compiled=compiled,
        machine=machine,
        options=options,
        measured_time_us=measured,
        per_rank_us=np.asarray(executor.clocks, dtype=np.float64).tolist(),
        totals=executor.totals,
        line_metrics=executor.line_metrics,
        comm_stats=executor.comm_stats,
        printed=printed,
        array_checksum=checksum,
        statements_executed=executor.statements_executed,
        wall_clock_seconds=elapsed,
        state=plane.state if keep_state else None,
        engine=executor.engine_name,
    )


def simulate_repeated(
    compiled: CompiledProgram,
    machine: Machine,
    repetitions: int = 3,
    options: SimulatorOptions | None = None,
    params: dict[str, float] | None = None,
) -> tuple[float, list[SimulationResult]]:
    """Average the measured time over several seeded runs (the paper averages 1000).

    Returns (mean measured time in µs, individual results).
    """
    options = options or SimulatorOptions()
    results = []
    for rep in range(max(repetitions, 1)):
        rep_options = replace(options, seed=options.seed + rep * 7919)
        results.append(simulate(compiled, machine, options=rep_options, params=params))
    mean = float(np.mean([r.measured_time_us for r in results]))
    return mean, results
