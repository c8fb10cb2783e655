"""Ablation studies A1 and A2 (design-choice analysis, ours).

A1 — interpreter fidelity knobs: how much of the prediction accuracy comes
from the memory-hierarchy model, the mask model and the critical-variable
hints?  Each knob is disabled in turn and the resulting prediction error is
compared against the full model.

A2 — communication-model sensitivity: the interpreter's machine abstraction is
perturbed (latency / bandwidth scaling) while the simulated machine stays
fixed, quantifying how much a mis-characterised C/S component costs in
prediction accuracy (the reason the paper benchmarks the communication
parameters rather than reading them off a data sheet).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

from ..explore import prediction_error_pct
from ..interpreter import InterpreterOptions, MemoryModelOptions, interpret
from ..output.report import render_table
from ..simulator import simulate
from ..suite import get_entry
from ..system import Machine, resolve_machine


@dataclass
class AblationPoint:
    """Prediction error of one configuration of the interpreter."""

    label: str
    application: str
    size: int
    nprocs: int
    estimated_us: float
    measured_us: float

    @property
    def abs_error_pct(self) -> float:
        return prediction_error_pct(self.estimated_us, self.measured_us)


@dataclass
class AblationReport:
    title: str
    points: list[AblationPoint] = field(default_factory=list)

    def errors_by_label(self) -> dict[str, float]:
        """Mean absolute error (%) per configuration label."""
        sums: dict[str, list[float]] = {}
        for point in self.points:
            sums.setdefault(point.label, []).append(point.abs_error_pct)
        return {label: sum(values) / len(values) for label, values in sums.items()}

    def to_table(self) -> str:
        rows = []
        for point in self.points:
            rows.append([point.label, point.application, point.size, point.nprocs,
                         f"{point.abs_error_pct:.2f}%"])
        return render_table(
            ["configuration", "application", "size", "procs", "abs error"],
            rows, title=self.title,
        )


_DEFAULT_APPS: tuple[tuple[str, int], ...] = (
    ("lfk1", 1024),
    ("lfk22", 1024),
    ("laplace_block_star", 128),
    ("finance", 256),
)


def run_model_ablation(
    applications: Sequence[tuple[str, int]] = _DEFAULT_APPS,
    nprocs: int = 4,
    machine: str | Machine = "ipsc860",
) -> AblationReport:
    """A1: disable interpreter model components one at a time."""
    report = AblationReport(title="A1: interpreter fidelity ablation")
    for key, size in applications:
        entry = get_entry(key)
        compiled = entry.compile(size, nprocs)
        target = resolve_machine(machine, nprocs)
        simulation = simulate(compiled, target)

        base_options = entry.interpreter_options(size)
        configurations: dict[str, InterpreterOptions] = {
            "full model": base_options,
            "no memory model": replace(
                base_options, memory=MemoryModelOptions(enabled=False)),
            "flat hit ratio 0.5": replace(
                base_options,
                memory=MemoryModelOptions(enabled=False, default_hit_ratio=0.5)),
            "mask assumed always true": replace(base_options, mask_true_fraction=1.0),
            "mask assumed half true": replace(base_options, mask_true_fraction=0.5),
        }
        for label, options in configurations.items():
            estimate = interpret(compiled, target, options=options)
            report.points.append(AblationPoint(
                label=label, application=key, size=size, nprocs=nprocs,
                estimated_us=estimate.predicted_time_us,
                measured_us=simulation.measured_time_us,
            ))
    return report


def run_comm_sensitivity(
    application: str = "laplace_block_block",
    size: int = 128,
    nprocs: int = 8,
    latency_scales: Sequence[float] = (0.5, 1.0, 2.0),
    bandwidth_scales: Sequence[float] = (0.5, 1.0, 2.0),
    machine: str | Machine = "ipsc860",
) -> AblationReport:
    """A2: perturb the interpreter's communication abstraction only."""
    report = AblationReport(title="A2: communication-model sensitivity")
    entry = get_entry(application)
    compiled = entry.compile(size, nprocs)
    reference_machine = resolve_machine(machine, nprocs)
    simulation = simulate(compiled, reference_machine)

    for latency_scale in latency_scales:
        for bandwidth_scale in bandwidth_scales:
            perturbed = reference_machine.scaled(
                latency_scale=latency_scale, bandwidth_scale=bandwidth_scale,
                name=f"{reference_machine.name}-l{latency_scale}-b{bandwidth_scale}",
            )
            estimate = interpret(compiled, perturbed,
                                 options=entry.interpreter_options(size))
            report.points.append(AblationPoint(
                label=f"latency x{latency_scale:g}, bandwidth x{bandwidth_scale:g}",
                application=application, size=size, nprocs=nprocs,
                estimated_us=estimate.predicted_time_us,
                measured_us=simulation.measured_time_us,
            ))
    return report
