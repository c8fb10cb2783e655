"""Cross-machine sweep: one application, every registered machine target.

This is the study the machine registry exists for: because the Systems
Module is the only machine-specific part of the framework, the same compiled
program can be predicted *and* "measured" (simulated) on every registered
machine — the paper's design-tuning workflow extended from "which directives"
to "which machine".

Since the design-space exploration subsystem landed, this study is a thin
preset over :mod:`repro.explore`: :func:`machine_comparison_campaign` builds
the declarative space and :func:`run_machine_comparison` runs it (optionally
against a persistent :class:`~repro.explore.store.ResultStore`) before
shaping the results into the study's table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from ..explore import Campaign, ResultStore, ScenarioSpace, prediction_error_pct
from ..output.report import render_table
from ..suite import get_entry
from ..system import machine_names


@dataclass
class MachinePoint:
    """One (machine, application, problem size, system size) comparison."""

    machine: str
    key: str
    size: int
    nprocs: int
    estimated_us: float
    measured_us: float | None = None

    @property
    def abs_error_pct(self) -> float:
        return prediction_error_pct(self.estimated_us, self.measured_us)


@dataclass
class MachineComparison:
    """Predicted (and optionally simulated) times across machine targets."""

    key: str
    size: int
    points: list[MachinePoint] = field(default_factory=list)

    def machines(self) -> list[str]:
        return sorted({p.machine for p in self.points})

    def proc_counts(self) -> list[int]:
        return sorted({p.nprocs for p in self.points})

    def point(self, machine: str, nprocs: int) -> MachinePoint:
        for p in self.points:
            if p.machine == machine and p.nprocs == nprocs:
                return p
        raise KeyError((machine, nprocs))

    def best_machine(self, nprocs: int) -> str:
        candidates = [p for p in self.points if p.nprocs == nprocs]
        return min(candidates, key=lambda p: p.estimated_us).machine

    def max_error_pct(self) -> float:
        errors = [p.abs_error_pct for p in self.points
                  if p.measured_us is not None and p.measured_us > 0]
        return max(errors, default=0.0)

    def to_table(self) -> str:
        simulated = any(p.measured_us is not None for p in self.points)
        header = ["machine"] + [f"p={p}" for p in self.proc_counts()]
        rows = []
        for machine in self.machines():
            row = [machine]
            for nprocs in self.proc_counts():
                point = self.point(machine, nprocs)
                cell = f"{point.estimated_us / 1e3:.1f} ms"
                if simulated and point.measured_us is not None:
                    cell += f" ({point.abs_error_pct:.1f}%)"
                row.append(cell)
            rows.append(row)
        what = "predicted (abs err vs simulated)" if simulated else "predicted"
        return render_table(
            header, rows,
            title=f"{self.key} (size {self.size}): {what} execution time per machine",
        )


def machine_comparison_campaign(
    key: str = "laplace_block_star",
    size: int | None = None,
    proc_counts: Iterable[int] = (2, 4, 8, 16),
    machines: Sequence[str] | None = None,
    simulate_too: bool = False,
) -> Campaign:
    """The cross-machine study as a declarative campaign preset."""
    entry = get_entry(key)
    size = size if size is not None else entry.sizes[0]
    return Campaign(
        name=f"machine-comparison:{key}",
        space=ScenarioSpace(
            apps=(key,),
            sizes=(size,),
            proc_counts=tuple(proc_counts),
            machines=tuple(machines if machines is not None else machine_names()),
        ),
        mode="both" if simulate_too else "predict",
    )


def run_machine_comparison(
    key: str = "laplace_block_star",
    size: int | None = None,
    proc_counts: Iterable[int] = (2, 4, 8, 16),
    machines: Sequence[str] | None = None,
    simulate_too: bool = False,
    store: ResultStore | None = None,
) -> MachineComparison:
    """Sweep one suite application across every registered machine.

    With ``simulate_too`` the simulator runs as well and each point carries
    the predicted-vs-simulated error; prediction alone is orders of magnitude
    faster and is what a design-time sweep would use.  ``store`` persists and
    memoises every evaluated point.
    """
    campaign = machine_comparison_campaign(key, size, proc_counts, machines,
                                           simulate_too)
    run = campaign.run(store=store)
    comparison = MachineComparison(key=key, size=campaign.space.sizes[0])
    for result in run.results:
        point = result.point
        comparison.points.append(MachinePoint(
            machine=point.machine, key=point.app, size=point.size,
            nprocs=point.nprocs,
            estimated_us=result.estimated_us,
            measured_us=result.measured_us,
        ))
    return comparison
