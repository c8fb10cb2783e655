#!/usr/bin/env python
"""Profile the vector engine's hot path on a p=256 scenario.

Runs one ``modern-cluster`` simulation of the scale benchmark's scenario
under ``cProfile`` and prints the top cumulative hot spots — the first stop
when a perf PR wants to know where the simulator's wall-clock actually goes
(historically: the network drain, then per-rank noise draws).

The default crossbar run never reaches a contended network stage.  To
profile contention, run ``--machine ipsc860 --nprocs 1024``: the same
program on the 1024-node hypercube drains 40 serial stages (links collide;
``Network._drain_levels``) and 200 paired stages per run.  ``--nprocs
8192`` with the defaults is exactly the sim-scale benchmark's config (b);
``scripts/check.sh`` runs it with ``--phase-breakdown``.

``--phase-breakdown`` adds a one-table summary of where the wall-clock goes,
bucketed by simulator subsystem (node cost model, noise draws, network +
collectives, everything else).  The buckets come from the engines' own
``repro.obs`` spans — recorded in a separate, *unprofiled* run so cProfile's
per-call overhead cannot skew the shares — and by construction sum to the
``simulate`` span's total, an invariant the old pstats-filename bucketing
could silently break.  This is the view that motivated the counter-keyed
noise engine (noise was ~40% of the vector wall at p=1024 under the
since-removed sequential draws); cProfile's top-N remains the per-function
drill-down.

Usage::

    PYTHONPATH=src python scripts/profile_sim.py [--nprocs 256]
            [--machine modern-cluster] [--top 25] [--engine vector]
            [--sort cumulative] [--phase-breakdown]
"""

from __future__ import annotations

import argparse
import cProfile
import pstats

from repro import obs
from repro.compiler import compile_source
from repro.simulator import SimulatorOptions, simulate
from repro.suite import get_entry
from repro.system import get_machine

APP = "laplace_block_star"
SIZE = 64
MAXITER = 20.0

#: Engine span names bucketed by ``--phase-breakdown``, in print order.
PHASE_NAMES = ("node_cost", "noise", "network", "dataplane")


def phase_breakdown(compiled, machine, options) -> dict[str, float]:
    """Subsystem shares of one unprofiled, obs-instrumented simulation.

    Returns ``(shares, totals)``: the ``{phase: fraction}`` dict from
    :func:`repro.obs.phase_shares` (which asserts the buckets plus ``other``
    sum to the ``simulate`` span's total) and the per-span-name µs totals
    backing it.
    """
    was_enabled = obs.enabled()
    obs.enable()
    tracer = obs.get_tracer()
    mark = tracer.mark()
    try:
        simulate(compiled, machine, options=options)
        spans = tracer.spans_since(mark)
    finally:
        if not was_enabled:
            obs.disable()
    shares = obs.phase_shares(spans, total_name="simulate",
                              phase_names=PHASE_NAMES)
    totals = tracer.aggregate(spans)
    return shares, totals


def print_phase_breakdown(compiled, machine, options) -> None:
    shares, totals = phase_breakdown(compiled, machine, options)
    if not shares:
        print("\nphase breakdown: no simulate span recorded")
        return
    wall_us = totals.get("simulate", 0.0)
    rows = [(name, shares[name], totals.get(name, 0.0))
            for name in PHASE_NAMES]
    rows.append(("other", shares["other"], shares["other"] * wall_us))
    rows.sort(key=lambda row: -row[1])
    assert abs(sum(t for _, _, t in rows) - wall_us) <= 1e-3 * wall_us + 1.0, \
        "bucket times do not reconcile with the simulate span"
    print("\nphase breakdown (engine spans, separate unprofiled run):")
    for name, share, total_us in rows:
        print(f"  {name:<10} {total_us / 1e3:8.1f} ms  {100.0 * share:5.1f}%")
    print(f"  {'total':<10} {wall_us / 1e3:8.1f} ms  100.0%")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--nprocs", type=int, default=256)
    parser.add_argument("--machine", default="modern-cluster")
    parser.add_argument("--engine", default="vector", choices=("vector", "loop"))
    parser.add_argument("--top", type=int, default=25,
                        help="number of hot spots to print")
    parser.add_argument("--sort", default="cumulative",
                        choices=("cumulative", "tottime"),
                        help="pstats sort key")
    parser.add_argument("--phase-breakdown", action="store_true",
                        help="also print node-cost / noise / network shares "
                             "of the wall-clock, from repro.obs spans")
    args = parser.parse_args()

    entry = get_entry(APP)
    params = entry.params_for(SIZE)
    params["maxiter"] = MAXITER
    compiled = compile_source(entry.source, nprocs=args.nprocs, params=params)
    machine = get_machine(args.machine, args.nprocs)
    options = SimulatorOptions(engine=args.engine)

    simulate(compiled, machine, options=options)   # warm caches / imports

    profiler = cProfile.Profile()
    profiler.enable()
    result = simulate(compiled, machine, options=options)
    profiler.disable()

    print(f"{APP} n={SIZE} maxiter={int(MAXITER)} on {args.machine} "
          f"p={args.nprocs}, engine={args.engine}: "
          f"{result.wall_clock_seconds * 1e3:.0f} ms wall, "
          f"{result.measured_time_us / 1e3:.1f} ms simulated")
    stats = pstats.Stats(profiler)
    stats.sort_stats(args.sort).print_stats(args.top)
    if args.phase_breakdown:
        print_phase_breakdown(compiled, machine, options)


if __name__ == "__main__":
    main()
