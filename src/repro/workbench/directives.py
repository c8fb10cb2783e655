"""Experiments E4/E5/E8 — Figures 3, 4, 5 and the directive-selection study.

The Laplace solver is compiled with its three candidate DISTRIBUTE/ALIGN
choices — (BLOCK,BLOCK), (BLOCK,*), (*,BLOCK) — on 4 and 8 processors, and for
every problem size both the interpreted (estimated) and simulated (measured)
execution times are produced.  From these the study answers the paper's two
questions: which directives should be selected (the distribution with the
lowest time), and whether the estimated times are accurate enough to make that
selection without ever running on the machine.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, Sequence

from ..distribution import ArrayDistribution
from ..explore import (
    Campaign, ResultStore, ScenarioSpace, prediction_error_pct, resolve_campaign_machine)
from ..output.report import render_series_chart, render_table
from ..suite import get_entry, laplace_grid_shape
from ..system import Machine

LAPLACE_VARIANTS = ("block_block", "block_star", "star_block")
VARIANT_LABELS = {
    "block_block": "(Blk,Blk)",
    "block_star": "(Blk,*)",
    "star_block": "(*,Blk)",
}


@dataclass
class DistributionIllustration:
    """Figure 3: how each distribution carves the template over 4 processors."""

    variant: str
    label: str
    grid_shape: tuple[int, ...]
    owner_map: list[list[int]]       # owner rank of each (coarse) template cell

    def render(self) -> str:
        rows = ["".join(f" P{owner + 1}" for owner in row) for row in self.owner_map]
        return f"{self.label} on {len(set(sum(self.owner_map, [])))} procs:\n" + "\n".join(rows)


def illustrate_distributions(n: int = 8, nprocs: int = 4) -> list[DistributionIllustration]:
    """Reproduce Figure 3: the three Laplace data distributions on 4 processors."""
    out = []
    for variant in LAPLACE_VARIANTS:
        entry = get_entry(f"laplace_{variant}")
        grid_shape = laplace_grid_shape(variant, nprocs)
        compiled = entry.compile(n, nprocs, grid_shape)
        dist: ArrayDistribution = compiled.mapping.distribution_of("u")
        owner_map = [
            [dist.owner_rank((i, j)) for j in range(n)]
            for i in range(n)
        ]
        out.append(DistributionIllustration(
            variant=variant,
            label=VARIANT_LABELS[variant],
            grid_shape=compiled.mapping.grid.shape,
            owner_map=owner_map,
        ))
    return out


@dataclass
class LaplacePoint:
    variant: str
    size: int
    nprocs: int
    grid_shape: tuple[int, ...]
    estimated_s: float
    measured_s: float

    @property
    def abs_error_pct(self) -> float:
        return prediction_error_pct(self.estimated_s, self.measured_s)


@dataclass
class LaplaceStudy:
    """Figures 4 & 5 plus the §5.2.1 directive-selection conclusion."""

    nprocs: int
    points: list[LaplacePoint] = field(default_factory=list)

    def series(self, kind: str = "measured") -> dict[str, dict[float, float]]:
        """Series keyed by variant label → {problem size: time in seconds}."""
        out: dict[str, dict[float, float]] = {}
        for point in self.points:
            label = f"{'Estimated' if kind == 'estimated' else 'Measured'} " \
                    f"{VARIANT_LABELS[point.variant]}"
            out.setdefault(label, {})[float(point.size)] = (
                point.estimated_s if kind == "estimated" else point.measured_s
            )
        return out

    def best_variant(self, size: int, by: str = "estimated") -> str:
        """Which distribution the study selects for a given problem size."""
        candidates = [p for p in self.points if p.size == size]
        key = (lambda p: p.estimated_s) if by == "estimated" else (lambda p: p.measured_s)
        return min(candidates, key=key).variant

    def selection_agreement(self, tolerance_pct: float = 1.0) -> bool:
        """True when selecting directives from the *estimated* times is as good as
        selecting them from the measured times (the paper's §5.2.1 claim).

        For every problem size the variant the interpreter would pick must have a
        measured time within ``tolerance_pct`` percent of the best measured time;
        exact agreement is not required when candidates are tied within noise.
        """
        sizes = sorted({p.size for p in self.points})
        for size in sizes:
            candidates = {p.variant: p for p in self.points if p.size == size}
            estimated_pick = self.best_variant(size, "estimated")
            best_measured = min(p.measured_s for p in candidates.values())
            picked_measured = candidates[estimated_pick].measured_s
            if picked_measured > best_measured * (1.0 + tolerance_pct / 100.0):
                return False
        return True

    def max_error_pct(self) -> float:
        return max((p.abs_error_pct for p in self.points), default=0.0)

    def to_chart(self) -> str:
        series = {}
        series.update(self.series("estimated"))
        series.update(self.series("measured"))
        return render_series_chart(
            series,
            x_label="Problem Size",
            y_label="Execution Time (sec)",
            title=f"Laplace Solver ({self.nprocs} Procs) - Estimated/Measured Times",
        )

    def to_table(self) -> str:
        rows = []
        for point in sorted(self.points, key=lambda p: (p.size, p.variant)):
            rows.append([
                point.size,
                VARIANT_LABELS[point.variant],
                "x".join(str(d) for d in point.grid_shape),
                f"{point.estimated_s:.4f}",
                f"{point.measured_s:.4f}",
                f"{point.abs_error_pct:.2f}%",
            ])
        return render_table(
            ["size", "distribution", "grid", "estimated (s)", "measured (s)", "abs error"],
            rows,
            title=f"Laplace solver on {self.nprocs} processors",
        )


def laplace_study_campaign(
    nprocs: int = 4,
    sizes: Sequence[int] = (16, 64, 128, 192, 256),
    variants: Iterable[str] = LAPLACE_VARIANTS,
    maxiter: int | None = None,
) -> Campaign:
    """The §5.2.1 directive-selection question as a declarative campaign.

    The three DISTRIBUTE/ALIGN alternatives are the ``apps`` axis; a
    ``maxiter`` override rides along as a compile-time parameter set.
    """
    return Campaign(
        name=f"laplace-directives:p{nprocs}",
        space=ScenarioSpace(
            apps=tuple(f"laplace_{v}" for v in variants),
            sizes=tuple(sizes),
            proc_counts=(nprocs,),
            param_sets=((("maxiter", float(maxiter)),),) if maxiter is not None
            else ((),),
        ),
        mode="both",
    )


def run_laplace_study(
    nprocs: int = 4,
    sizes: Sequence[int] = (16, 64, 128, 192, 256),
    variants: Iterable[str] = LAPLACE_VARIANTS,
    maxiter: int | None = None,
    machine: str | Machine = "ipsc860",
    store: ResultStore | None = None,
) -> LaplaceStudy:
    """Reproduce Figure 4 (nprocs=4) or Figure 5 (nprocs=8).

    One ``mode="both"`` campaign over (directive variant × problem size); the
    paper's processor-grid shapes attach per variant during space expansion.
    """
    campaign = laplace_study_campaign(nprocs, sizes, variants, maxiter)
    machine_name, machine_resolver = resolve_campaign_machine(machine)
    campaign = replace(campaign,
                       space=replace(campaign.space, machines=(machine_name,)))
    run = campaign.run(store=store, machine_resolver=machine_resolver)

    study = LaplaceStudy(nprocs=nprocs)
    for result in run.results:
        study.points.append(LaplacePoint(
            variant=result.point.app.replace("laplace_", ""),
            size=result.point.size,
            nprocs=result.point.nprocs,
            grid_shape=tuple(result.grid_shape),
            estimated_s=result.estimated_us * 1e-6,
            measured_s=result.measured_us * 1e-6,
        ))
    return study


def run_directive_selection(
    sizes: Sequence[int] = (64, 128, 256),
    proc_counts: Iterable[int] = (4, 8),
    machine: str | Machine = "ipsc860",
    store: ResultStore | None = None,
) -> dict[int, LaplaceStudy]:
    """The full §5.2.1 experiment: one study per system size."""
    return {p: run_laplace_study(nprocs=p, sizes=sizes, machine=machine, store=store)
            for p in proc_counts}
