"""Experiment E2 — Table 2: accuracy of the performance prediction framework.

For every application of the validation set, sweep the paper's problem sizes
and system sizes (1–8 processors), obtain the interpreted (estimated) time and
the simulated (measured) time, and report the minimum and maximum absolute
error as a percentage of the measured time — the exact quantity Table 2
tabulates.

The sweep itself is a preset over the design-space exploration subsystem:
each application row is one ``mode="both"`` campaign over (problem size ×
system size), so the study inherits the campaign's dedup and (optionally)
persistent memoisation through a :class:`~repro.explore.store.ResultStore`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from ..explore import (
    ResultStore, ScenarioSpace, prediction_error_pct, resolve_campaign_machine, run_campaign)
from ..output.report import render_table
from ..simulator import SimulatorOptions
from ..suite import all_entries, get_entry
from ..system import Machine


@dataclass
class AccuracyPoint:
    """One (application, problem size, system size) measurement."""

    key: str
    size: int
    nprocs: int
    estimated_us: float
    measured_us: float

    @property
    def abs_error_pct(self) -> float:
        return prediction_error_pct(self.estimated_us, self.measured_us)


@dataclass
class AccuracyRow:
    """One row of Table 2."""

    key: str
    name: str
    problem_sizes: tuple[int, int]
    system_sizes: tuple[int, int]
    min_error_pct: float
    max_error_pct: float
    paper_min_error_pct: float
    paper_max_error_pct: float
    points: list[AccuracyPoint] = field(default_factory=list)


@dataclass
class AccuracyReport:
    """The full Table 2 reproduction."""

    rows: list[AccuracyRow] = field(default_factory=list)

    def worst_case_error(self) -> float:
        return max((row.max_error_pct for row in self.rows), default=0.0)

    def best_case_error(self) -> float:
        return min((row.min_error_pct for row in self.rows), default=0.0)

    def row(self, key: str) -> AccuracyRow:
        for row in self.rows:
            if row.key == key:
                return row
        raise KeyError(key)

    def to_table(self) -> str:
        rows = []
        for row in self.rows:
            rows.append([
                row.name,
                f"{row.problem_sizes[0]} - {row.problem_sizes[1]}",
                f"{row.system_sizes[0]} - {row.system_sizes[1]}",
                f"{row.min_error_pct:.2f}%",
                f"{row.max_error_pct:.1f}%",
                f"{row.paper_min_error_pct:.2f}%",
                f"{row.paper_max_error_pct:.1f}%",
            ])
        return render_table(
            ["Name", "Problem Sizes", "System Size", "Min Abs Error", "Max Abs Error",
             "Paper Min", "Paper Max"],
            rows,
            title="Table 2: Accuracy of the Performance Prediction Framework "
                  "(measured = iPSC/860 simulator)",
        )


def measure_application(
    key: str,
    sizes: Sequence[int] | None = None,
    proc_counts: Iterable[int] = (1, 2, 4, 8),
    simulator_options: SimulatorOptions | None = None,
    machine: str | Machine = "ipsc860",
    store: ResultStore | None = None,
) -> AccuracyRow:
    """Run the accuracy sweep for one application on one target machine.

    The sweep is one ``mode="both"`` campaign; a pre-built :class:`Machine`
    instance is threaded through as a campaign-level machine resolver.
    """
    entry = get_entry(key)
    sizes = list(sizes if sizes is not None else entry.sizes)
    proc_list = list(proc_counts)

    machine_name, machine_resolver = resolve_campaign_machine(machine)
    space = ScenarioSpace(apps=(key,), sizes=tuple(sizes),
                          proc_counts=tuple(proc_list),
                          machines=(machine_name,))
    run = run_campaign(space, name=f"accuracy:{key}", mode="both",
                       simulator_options=simulator_options,
                       machine_resolver=machine_resolver, store=store)
    points = [AccuracyPoint(
        key=key, size=result.point.size, nprocs=result.point.nprocs,
        estimated_us=result.estimated_us, measured_us=result.measured_us,
    ) for result in run.results]

    errors = [p.abs_error_pct for p in points]
    return AccuracyRow(
        key=key,
        name=entry.name,
        problem_sizes=(min(sizes), max(sizes)),
        system_sizes=(min(proc_list), max(proc_list)),
        min_error_pct=min(errors),
        max_error_pct=max(errors),
        paper_min_error_pct=entry.paper_min_error,
        paper_max_error_pct=entry.paper_max_error,
        points=points,
    )


def run_accuracy_study(
    keys: Sequence[str] | None = None,
    sizes_per_key: dict[str, Sequence[int]] | None = None,
    proc_counts: Iterable[int] = (1, 2, 4, 8),
    quick: bool = False,
    simulator_options: SimulatorOptions | None = None,
    machine: str | Machine = "ipsc860",
    store: ResultStore | None = None,
) -> AccuracyReport:
    """Reproduce Table 2 (optionally on a reduced sweep with ``quick=True``).

    Passing ``machine="paragon"`` / ``"cluster"`` re-runs the whole table on
    another registered target, turning it into a cross-machine sweep; a
    ``store`` memoises every (application, size, nprocs) cell persistently.
    """
    entries = all_entries()
    keys = list(keys if keys is not None else entries.keys())
    report = AccuracyReport()
    for key in keys:
        entry = entries[key]
        sizes = None
        if sizes_per_key and key in sizes_per_key:
            sizes = sizes_per_key[key]
        elif quick:
            sizes = entry.sizes[:2]
        report.rows.append(measure_application(
            key, sizes=sizes, proc_counts=proc_counts,
            simulator_options=simulator_options, machine=machine, store=store,
        ))
    return report
