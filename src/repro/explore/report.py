"""Reporting over campaign results: best configs, Pareto fronts, error bands.

Renders through the Output Module's plain-text tables
(:mod:`repro.output.report`), so campaign reports look like the rest of the
workbench's paper-style tables.  Three views cover the design-tuning
questions of §5.2:

* :func:`best_config_table` — for each (application, problem size), which
  (machine, nprocs, layout) the campaign ranks best, and by how much,
* :func:`pareto_table` / :func:`pareto_frontier` — the time-vs-processors
  trade-off: configurations not dominated in both cost and parallelism,
* :func:`error_table` — estimated-vs-simulated error bands per application,
  the campaign-level restatement of Table 2,
* :func:`store_diff` / :func:`store_diff_table` — cross-store regression
  diffs: two stores (e.g. the committed CI store and a fresh run, or two
  framework revisions) joined on the content-addressed scenario key, with
  per-scenario drift percentages and added/removed records.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Iterable

from ..output.report import format_us, render_table
from .campaign import CampaignRun
from .store import ScenarioResult

Objective = Callable[[ScenarioResult], float]


def _score(objective: Objective | None) -> Objective:
    return objective if objective is not None else (lambda r: r.objective_us)


def _config_label(result: ScenarioResult) -> str:
    point = result.point
    label = f"{point.machine} p={point.nprocs}"
    if point.topology_shape:
        label += " " + "x".join(str(d) for d in point.topology_shape)
    return label


def best_config_table(
    results: Iterable[ScenarioResult],
    objective: Objective | None = None,
    title: str = "Best configuration per (application, problem size)",
) -> str:
    """One row per (app, size): the winning configuration and its margin."""
    score = _score(objective)
    groups: dict[tuple[str, int], list[ScenarioResult]] = defaultdict(list)
    for result in results:
        groups[(result.point.app, result.point.size)].append(result)

    rows = []
    for (app, size), members in sorted(groups.items()):
        ranked = sorted(members, key=score)
        best = ranked[0]
        margin = ""
        if len(ranked) > 1 and score(best) > 0:
            margin = f"{(score(ranked[1]) / score(best) - 1.0) * 100.0:.0f}%"
        rows.append([
            app, size, _config_label(best),
            format_us(score(best)),
            margin or "-",
            len(members),
        ])
    return render_table(
        ["application", "size", "best config", "time", "runner-up gap", "configs"],
        rows, title=title)


def pareto_frontier(
    results: Iterable[ScenarioResult],
    objective: Objective | None = None,
) -> list[ScenarioResult]:
    """Configurations not dominated in (nprocs, time).

    A point is dominated when another uses no more processors *and* is no
    slower (with at least one strict improvement) — the classic time-vs-
    resources frontier of a scaling study.
    """
    score = _score(objective)
    pool = [r for r in results if score(r) == score(r)]   # drop NaNs
    frontier = []
    for candidate in pool:
        dominated = False
        for other in pool:
            if other is candidate:
                continue
            no_worse = (other.point.nprocs <= candidate.point.nprocs
                        and score(other) <= score(candidate))
            better = (other.point.nprocs < candidate.point.nprocs
                      or score(other) < score(candidate))
            if no_worse and better:
                dominated = True
                break
        if not dominated:
            frontier.append(candidate)
    return sorted(frontier, key=lambda r: (r.point.nprocs, score(r)))


def pareto_table(
    results: Iterable[ScenarioResult],
    objective: Objective | None = None,
    title: str = "Pareto frontier: execution time vs processors",
) -> str:
    score = _score(objective)
    rows = []
    for result in pareto_frontier(results, objective):
        point = result.point
        rows.append([
            point.app, point.size, point.nprocs, _config_label(result),
            format_us(score(result)),
        ])
    if not rows:
        return title + "\n(no undominated points)"
    return render_table(["application", "size", "p", "config", "time"],
                        rows, title=title)


def error_table(
    results: Iterable[ScenarioResult],
    title: str = "Estimated vs simulated: absolute error per application",
) -> str:
    """Min/mean/max |estimate - measurement| bands, Table 2 style."""
    groups: dict[str, list[float]] = defaultdict(list)
    for result in results:
        error = result.abs_error_pct
        if error == error:                # skip NaN (predict-only results)
            groups[result.point.app].append(error)
    rows = []
    for app, errors in sorted(groups.items()):
        rows.append([
            app, len(errors),
            f"{min(errors):.2f}%",
            f"{sum(errors) / len(errors):.2f}%",
            f"{max(errors):.1f}%",
        ])
    if not rows:
        return title + "\n(no simulated points)"
    return render_table(["application", "points", "min err", "mean err", "max err"],
                        rows, title=title)


@dataclass(frozen=True)
class StoreDiff:
    """The join of two result stores on the content-addressed scenario key.

    ``drifted`` holds (old, new, drift %) for scenarios present on both sides
    whose objective moved by more than the tolerance; ``unchanged`` counts
    the matched records inside tolerance.  ``added`` / ``removed`` are
    records only one side holds (a new axis value, a retired scenario).
    """

    drifted: list[tuple[ScenarioResult, ScenarioResult, float]]
    unchanged: int
    added: list[ScenarioResult]
    removed: list[ScenarioResult]

    @property
    def compared(self) -> int:
        return self.unchanged + len(self.drifted)

    def summary(self) -> str:
        return (f"{self.compared} scenarios compared: {len(self.drifted)} "
                f"drifted, {self.unchanged} unchanged, {len(self.added)} "
                f"added, {len(self.removed)} removed")


def _field_pairs(old: ScenarioResult, new: ScenarioResult):
    return (("est", old.estimated_us, new.estimated_us),
            ("sim", old.measured_us, new.measured_us))


def _worst_drift(old: ScenarioResult, new: ScenarioResult
                 ) -> tuple[float, str, str, str] | None:
    """(drift %, field label, previous, current) of the worst-drifting field.

    The single source of the comparison rules for both the drift *gate*
    (:func:`store_diff`) and the drift *table*, so they can never disagree
    about which field triggered.  Both the estimate and the measurement are
    compared, so a simulator change that moves measurements without moving
    estimates (the usual shape of a ``mode="both"`` regression) is still
    drift.  A field whose old side held a value but whose new side lost it
    (None or 0) is an infinite drift — a regression that nulls a number out
    must not pass the gate as "unchanged".  Returns None when no field is
    comparable.
    """
    worst = None
    for label, stored, current in _field_pairs(old, new):
        if stored in (None, 0):
            continue                    # nothing to compare against
        if current in (None, 0):        # the value vanished
            return (float("inf"), label, f"{stored:.1f}", "lost")
        pct = abs(current - stored) / stored * 100.0
        if worst is None or pct > worst[0]:
            worst = (pct, label, f"{stored:.1f}", f"{current:.1f}")
    return worst


def _drift_pct(old: ScenarioResult, new: ScenarioResult) -> float | None:
    worst = _worst_drift(old, new)
    return worst[0] if worst is not None else None


def _drift_row(old: ScenarioResult, new: ScenarioResult
               ) -> tuple[str, str, str]:
    worst = _worst_drift(old, new)
    if worst is None:
        return "-", "-", "-"
    return worst[1], worst[2], worst[3]


def store_diff(
    old: Iterable[ScenarioResult],
    new: Iterable[ScenarioResult],
    tolerance_pct: float = 0.01,
) -> StoreDiff:
    """Regression diff of two stores (or any two result collections).

    Records are joined on :attr:`ScenarioResult.key` — the SHA-256 content
    hash of (scenario, mode, program source) — so the comparison is stable
    across processes, store files and framework revisions; only the
    *numbers* are diffed, never the identity.
    """
    old_by_key = {r.key: r for r in old}
    new_by_key = {r.key: r for r in new}

    drifted: list[tuple[ScenarioResult, ScenarioResult, float]] = []
    unchanged = 0
    for key, new_result in new_by_key.items():
        old_result = old_by_key.get(key)
        if old_result is None:
            continue
        drift_pct = _drift_pct(old_result, new_result)
        if drift_pct is None:
            unchanged += 1              # no comparable fields on both sides
        elif drift_pct > tolerance_pct:
            drifted.append((old_result, new_result, drift_pct))
        else:
            unchanged += 1

    added = [r for k, r in new_by_key.items() if k not in old_by_key]
    removed = [r for k, r in old_by_key.items() if k not in new_by_key]
    drifted.sort(key=lambda item: item[2], reverse=True)
    return StoreDiff(drifted=drifted, unchanged=unchanged,
                     added=added, removed=removed)


def store_diff_table(
    old: Iterable[ScenarioResult] = (),
    new: Iterable[ScenarioResult] = (),
    tolerance_pct: float = 0.01,
    title: str = "Store diff: drift vs previous results",
    max_rows: int = 20,
    *,
    diff: StoreDiff | None = None,
) -> str:
    """Rendered regression table of :func:`store_diff`, worst drift first.

    Pass ``diff=`` to render an already-computed :class:`StoreDiff` instead
    of re-joining ``old`` and ``new``.
    """
    if diff is None:
        diff = store_diff(old, new, tolerance_pct)
    if not diff.drifted:
        return f"{title}\n{diff.summary()}"
    rows = []
    for old_result, new_result, drift_pct in diff.drifted[:max_rows]:
        field, previous, current = _drift_row(old_result, new_result)
        rows.append([
            new_result.point.label(),
            new_result.mode,
            field,
            previous,
            current,
            "value lost" if drift_pct == float("inf") else f"{drift_pct:.3f}%",
        ])
    table = render_table(
        ["scenario", "mode", "field", "previous (us)", "current (us)", "drift"],
        rows, title=title)
    more = len(diff.drifted) - max_rows
    if more > 0:
        table += f"\n… +{more} more drifted scenarios"
    return table + "\n" + diff.summary()


def campaign_report(run: CampaignRun, objective: Objective | None = None) -> str:
    """The composite text report of one campaign run."""
    head = (f"Campaign {run.name!r}: strategy={run.strategy} mode={run.mode} "
            f"results={len(run.results)} evaluated={run.evaluated} "
            f"store-hits={run.store_hits} rejected={len(run.rejected)}")
    sections = [head, best_config_table(run.results, objective),
                pareto_table(run.results, objective)]
    errors = error_table(run.results)
    if "(no simulated points)" not in errors:
        sections.append(errors)
    if run.trajectory:
        steps = " -> ".join(
            f"{r.point.label()} [{format_us(_score(objective)(r))}]"
            for r in run.trajectory)
        sections.append("hill-climb trajectory: " + steps)
    if run.rejected:
        shown = ", ".join(f"{p.label()} ({reason})"
                          for p, reason in run.rejected[:4])
        more = "" if len(run.rejected) <= 4 else f" … +{len(run.rejected) - 4} more"
        sections.append("rejected points: " + shown + more)
    return "\n\n".join(sections)
