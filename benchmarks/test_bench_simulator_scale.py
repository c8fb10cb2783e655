"""E-scale — execution-core scaling: the vector engine vs the loop oracle.

The simulator's ``loop`` engine walks every per-rank quantity in python
loops, which made large partitions (p ≥ 64 — the CM-5-class and
modern-cluster regime) the hot path of every campaign.  The ``vector``
engine keeps per-rank state — including the clocks of whole communication
phases — in arrays and prices link-disjoint network stages with one
vectorised expression each.

This benchmark pins the tentpole claims on the ``modern-cluster`` target:

* both engines produce identical per-rank times (within 1e-9; in practice
  bit-for-bit) at p ∈ {64, 128, 256, 1024}, and
* the vector engine is at least 6× faster in wall-clock at p = 256 (the
  PR-4 batched-drain core measured ~4× there, so this pin certifies the
  array-clock core's ≥2× on top), and
* with the counter-keyed noise engine (one vectorised draw per phase
  instead of per-rank sequential draws) the speedup at p = 1024 is at
  least 20.3× — 1.3× over the PR-5 baseline's 15.6× — and the table now
  extends to p = 4096 and p = 8192 with a ≥25× floor, and
* p = 1024 and p = 4096 contention-free (crossbar fabric) simulations
  complete inside their wall-clock budgets.

Each run also emits ``BENCH_simulator_scale.json`` — machine-readable
per-p wall-clocks and speedups — under pytest's ``tmp_path``, and
regenerates the README "Performance" table from the same rows (run with
``-s`` to see it).  Recording refreshes the committed
``benchmarks/results/BENCH_simulator_scale.json`` so the performance
trajectory is comparable across changes::

    PYTHONPATH=src python -m pytest benchmarks/test_bench_simulator_scale.py -s \
        --record-results
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from repro import obs
from repro.compiler import compile_source
from repro.simulator import SimulatorOptions, simulate
from repro.suite import get_entry
from repro.system import get_machine

MACHINE = "modern-cluster"
APP = "laplace_block_star"
SIZE = 64           # grid edge: keeps the (engine-shared) data plane small
MAXITER = 20.0      # more Jacobi iterations -> more per-rank/network phases

#: Wall-clock budgets for single vector-engine runs on the crossbar
#: (contention-free) fabric.  Measured ~0.11 s at p=1024 and ~0.36 s at
#: p=4096; the budgets leave CI slack.
P1024_BUDGET_SECONDS = 5.0
P4096_BUDGET_SECONDS = 10.0

#: Speedup floors for the table rows: ``p -> (loop repeats, floor)``.  The
#: loop oracle at p >= 4096 takes tens of seconds per run, so those rows are
#: measured once instead of best-of-3.
SPEEDUP_ROWS = {
    64: (3, 1.0),
    256: (3, 6.0),
    1024: (3, 20.3),    # >= 1.3x over the PR-5 baseline's 15.6x
    4096: (1, 25.0),
    8192: (1, 25.0),
}

#: Ceiling on the relative wall-clock cost of *enabled* ``repro.obs``
#: tracing for one p=256 vector run (the disabled no-op path is one
#: attribute load + call per site and is covered by the speedup floors
#: above staying put).
OBS_OVERHEAD_BUDGET = 0.03
OBS_OVERHEAD_NPROCS = 256

RESULTS_NAME = "BENCH_simulator_scale.json"


def _merge_results_json(results_dir: Path, updates: dict) -> None:
    """Read-merge-write ``results_dir / RESULTS_NAME`` so the speedup-table
    and obs-overhead tests can each refresh their own fields without
    clobbering the other's recorded numbers."""
    path = results_dir / RESULTS_NAME
    data = {}
    if path.exists():
        data = json.loads(path.read_text())
    data.update(updates)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(data, indent=2) + "\n")


def _compiled(nprocs: int):
    entry = get_entry(APP)
    params = entry.params_for(SIZE)
    params["maxiter"] = MAXITER
    return compile_source(entry.source, nprocs=nprocs, params=params)


def _run(engine: str, compiled, machine):
    return simulate(compiled, machine, options=SimulatorOptions(engine=engine))


def _best_wall(engine: str, compiled, machine, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        _run(engine, compiled, machine)
        best = min(best, time.perf_counter() - started)
    return best


def render_performance_table(rows) -> list[str]:
    """The README "Performance" table lines for ``(p, loop_s, vector_s, speedup)`` rows."""
    lines = [
        "| p    | loop engine | vector engine | speedup |",
        "|------|-------------|---------------|---------|",
    ]
    for nprocs, loop_wall, vector_wall, speedup in rows:
        lines.append(
            f"| {nprocs:<4} | {loop_wall * 1e3:8.0f} ms | "
            f"{vector_wall * 1e3:10.0f} ms | {speedup:6.1f}x |")
    return lines


@pytest.mark.parametrize("nprocs", [64, 128, 256, 1024],
                         ids=["p64", "p128", "p256", "p1024"])
def test_engine_parity_at_scale(nprocs):
    """Vector and loop engines agree on every per-rank time within 1e-9."""
    compiled = _compiled(nprocs)
    machine = get_machine(MACHINE, nprocs)
    loop = _run("loop", compiled, machine)
    vector = _run("vector", compiled, machine)

    loop_ranks = np.asarray(loop.per_rank_us)
    vector_ranks = np.asarray(vector.per_rank_us)
    worst = float(np.max(np.abs(loop_ranks - vector_ranks)))
    assert worst <= 1e-9, f"per-rank divergence {worst} at p={nprocs}"
    assert vector.measured_time_us == loop.measured_time_us
    assert vector.array_checksum == loop.array_checksum
    assert vector.engine == "vector" and loop.engine == "loop"


def test_p1024_contention_free_within_budget():
    """One p=1024 run on the crossbar fabric stays inside the budget.

    The modern-cluster topology advertises ``link_disjoint_paths``, so every
    collective stage takes the array drain's vectorised fast path — this is
    the "p ≥ 1024 unlocked" claim in wall-clock form.
    """
    compiled = _compiled(1024)
    machine = get_machine(MACHINE, 1024)
    assert machine.topology(1024).link_disjoint_paths
    started = time.perf_counter()
    result = _run("vector", compiled, machine)
    elapsed = time.perf_counter() - started
    assert len(result.per_rank_us) == 1024
    assert elapsed <= P1024_BUDGET_SECONDS, \
        f"p=1024 vector run took {elapsed:.2f}s (budget {P1024_BUDGET_SECONDS}s)"


def test_p4096_vector_smoke_within_budget():
    """One p=4096 vector run finishes inside the CI time budget.

    This is the check.sh smoke for the counter-keyed noise engine: at this
    scale the per-rank sequential draws of the legacy scheme dominated the
    wall; the keyed engine prices each noise phase in one vectorised call.
    """
    compiled = _compiled(4096)
    machine = get_machine(MACHINE, 4096)
    started = time.perf_counter()
    result = _run("vector", compiled, machine)
    elapsed = time.perf_counter() - started
    assert len(result.per_rank_us) == 4096
    assert elapsed <= P4096_BUDGET_SECONDS, \
        f"p=4096 vector run took {elapsed:.2f}s (budget {P4096_BUDGET_SECONDS}s)"


def test_vector_engine_speedup_table(results_dir):
    """The per-p speedup floors, the README table, and the JSON trajectory."""
    rows = []
    for nprocs, (repeats, _floor) in SPEEDUP_ROWS.items():
        compiled = _compiled(nprocs)
        machine = get_machine(MACHINE, nprocs)
        loop_wall = _best_wall("loop", compiled, machine, repeats=repeats)
        vector_wall = _best_wall("vector", compiled, machine)
        rows.append((nprocs, loop_wall, vector_wall, loop_wall / vector_wall))

    print()
    print(f"simulator wall-clock, {APP} n={SIZE} maxiter={int(MAXITER)} "
          f"on {MACHINE} (best of 3; single run at p >= 4096):")
    for line in render_performance_table(rows):
        print(line)

    _merge_results_json(results_dir, {
        "schema": 1,
        "benchmark": "simulator_scale",
        "machine": MACHINE,
        "app": APP,
        "size": SIZE,
        "maxiter": MAXITER,
        "rows": [
            {"p": nprocs,
             "loop_wall_s": round(loop_wall, 4),
             "vector_wall_s": round(vector_wall, 4),
             "speedup": round(speedup, 2)}
            for nprocs, loop_wall, vector_wall, speedup in rows
        ],
    })

    by_p = {row[0]: row for row in rows}
    for nprocs, (_repeats, floor) in SPEEDUP_ROWS.items():
        speedup = by_p[nprocs][3]
        assert speedup >= floor, \
            f"vector engine speedup at p={nprocs} is {speedup:.2f}x " \
            f"(floor {floor}x)"


def _paired_overhead(baseline_setup, candidate_setup):
    """Relative wall-clock cost of *candidate* vs *baseline* at p=256.

    Both modes are timed in *interleaved* pairs whose order flips every
    pair, and the overhead is the best (lowest) **per-pair** ratio: the
    two runs of a pair are adjacent in time, so host drift (CI
    neighbours, thermal throttling after the speedup-table runs, GC
    cadence) cancels within the pair instead of biasing whichever mode a
    fixed ordering always measured last.  One undisturbed pair is enough
    to prove the hooks are free; a *real* regression inflates every
    pair's ratio and survives the min.  Keeps adding pairs until the
    measured overhead is inside the budget (or the round cap says the
    regression is real, not scheduler noise).

    Returns ``(baseline_wall, candidate_wall, overhead)`` — best-of walls
    for reporting, best-pair overhead for the assertion.
    """
    compiled = _compiled(OBS_OVERHEAD_NPROCS)
    machine = get_machine(MACHINE, OBS_OVERHEAD_NPROCS)
    _run("vector", compiled, machine)          # warm caches / imports

    def timed(setup):
        setup()
        started = time.perf_counter()
        _run("vector", compiled, machine)
        return time.perf_counter() - started

    baseline_wall = candidate_wall = overhead = float("inf")
    for _round in range(5):
        for pair in range(8):
            if pair % 2 == 0:
                base = timed(baseline_setup)
                cand = timed(candidate_setup)
            else:
                cand = timed(candidate_setup)
                base = timed(baseline_setup)
            baseline_wall = min(baseline_wall, base)
            candidate_wall = min(candidate_wall, cand)
            overhead = min(overhead, cand / base - 1.0)
        if overhead <= OBS_OVERHEAD_BUDGET:
            break
    return baseline_wall, candidate_wall, overhead


def test_obs_overhead_p256_within_budget(results_dir):
    """Enabled span/metric tracing costs <= 3% of a p=256 vector wall.

    Instrumentation lives permanently in the engines, so its *enabled* cost
    must stay in the noise floor too — otherwise campaigns would have to
    choose between telemetry and throughput.  Measured with
    :func:`_paired_overhead`'s drift-cancelling interleaved pairs; the
    tracer is reset between runs so the span list never grows across
    repeats.
    """
    was_enabled = obs.enabled()

    def enabled_mode():
        obs.enable()
        obs.reset()

    try:
        disabled_wall, enabled_wall, overhead = _paired_overhead(
            obs.disable, enabled_mode)
        obs.enable()
        obs.reset()
        _run("vector", _compiled(OBS_OVERHEAD_NPROCS),
             get_machine(MACHINE, OBS_OVERHEAD_NPROCS))
        saw_spans = bool(obs.get_tracer().spans())
    finally:
        obs.reset()
        if was_enabled:
            obs.enable()
        else:
            obs.disable()
    assert saw_spans, "enabled runs recorded no spans"
    print(f"\nobs overhead at p={OBS_OVERHEAD_NPROCS}: "
          f"{disabled_wall * 1e3:.1f} ms disabled, "
          f"{enabled_wall * 1e3:.1f} ms enabled ({overhead:+.2%})")
    _merge_results_json(results_dir, {
        "obs_overhead": {
            "p": OBS_OVERHEAD_NPROCS,
            "disabled_wall_s": round(disabled_wall, 4),
            "enabled_wall_s": round(enabled_wall, 4),
            "overhead_pct": round(overhead * 100.0, 2),
            "budget_pct": OBS_OVERHEAD_BUDGET * 100.0,
        },
    })
    assert overhead <= OBS_OVERHEAD_BUDGET, \
        f"obs-enabled run is {overhead:.2%} slower than disabled " \
        f"(budget {OBS_OVERHEAD_BUDGET:.0%})"


def test_faults_overhead_p256_within_budget(results_dir):
    """An installed (but never-firing) fault plan costs <= 3% of a p=256
    vector wall.

    ``repro.faults`` instrumentation follows the obs no-op discipline: a
    site is one module-global read when no plan is installed, and the
    execution core has *no* sites at all — so neither clearing nor
    installing a plan may move the engine's wall-clock.  Pinning the
    installed case keeps a future hot-path injection site from landing
    without that discipline.  Measured with :func:`_paired_overhead`'s
    drift-cancelling interleaved pairs, same budget as ``obs_overhead``.
    """
    from repro import faults

    plan = faults.FaultPlan(actions=(
        faults.FaultAction(site="store.append", action="exception",
                           match={"store": "never-matches.jsonl"}),))
    try:
        cleared_wall, installed_wall, overhead = _paired_overhead(
            faults.clear, lambda: faults.install(plan))
    finally:
        faults.clear()
    print(f"\nfaults overhead at p={OBS_OVERHEAD_NPROCS}: "
          f"{cleared_wall * 1e3:.1f} ms cleared, "
          f"{installed_wall * 1e3:.1f} ms with a plan installed "
          f"({overhead:+.2%})")
    _merge_results_json(results_dir, {
        "faults_overhead": {
            "p": OBS_OVERHEAD_NPROCS,
            "cleared_wall_s": round(cleared_wall, 4),
            "installed_wall_s": round(installed_wall, 4),
            "overhead_pct": round(overhead * 100.0, 2),
            "budget_pct": OBS_OVERHEAD_BUDGET * 100.0,
        },
    })
    assert overhead <= OBS_OVERHEAD_BUDGET, \
        f"run with a fault plan installed is {overhead:.2%} slower than " \
        f"cleared (budget {OBS_OVERHEAD_BUDGET:.0%})"
