"""table2-accuracy: the quick Table 2 sweep of the paper, in mode="both".

16 suite applications x their first two paper problem sizes x p in
{1, 2, 4, 8} on ipsc860: 128 points, each interpreted (the estimate) and
simulated (the "measured" time).  Each pass starts with cold stage caches
and no store; passes repeat until the run's time is up.  The prediction
error of every point is deterministic, so every pass must reproduce it.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from pathlib import Path

from repro import stages
from repro.explore import ScenarioPoint, ScenarioSpace, campaign
from repro.functional import evaluate_program
from repro.simulator import simulate
from repro.suite import all_entries, get_entry
from repro.system import get_machine

from catalogue import SUITE_APPS
from common import (SPEED_LOCAL, HostSpeed, Measured, Outcome, median,
                    sweep_metrics, tracing_overhead)
from tracing import Recorder, instrumented

#: set-up time is measured by spawning fresh interpreters (run.py)
SETUP_BY_PROBE = True
PROC_COUNTS = (1, 2, 4, 8)
MACHINE = "ipsc860"
#: seeded sample of points whose simulated data plane is checked against
#: the functional evaluator
SAMPLE = 16
#: the accuracy band the paper's Table 2 supports (see
#: benchmarks/test_bench_table2_accuracy.py): worst point, best point, and
#: worst point of a full application
WORST_PCT, BEST_PCT, APPLICATION_PCT = 35.0, 1.0, 15.0
APPLICATIONS = ("pi", "nbody", "finance", "laplace_block_block",
                "laplace_block_star", "laplace_star_block")


@dataclass
class Inputs:
    points: list[ScenarioPoint]
    sample: list[int]


@dataclass
class Pass:
    results: list
    latencies_s: list[float]
    marks: list[int]                    # HostSpeed.mark() of each point
    wall_s: float
    failed: int


def prepare(seed: int, seconds: int) -> Inputs:
    points: list[ScenarioPoint] = []
    for key, entry in all_entries().items():
        points += ScenarioSpace(apps=(key,), sizes=entry.sizes[:2],
                                proc_counts=PROC_COUNTS,
                                machines=(MACHINE,)).expand()
    sample = random.Random(seed).sample(range(len(points)), SAMPLE)
    return Inputs(points, sample)


def one_pass(points: list[ScenarioPoint], speed: HostSpeed,
             recorder: Recorder | None = None) -> Pass:
    """One cold pass.  Untraced passes sample the host's speed between
    points; a traced pass is scaled by the samples taken before and after
    it."""
    stages.clear_stage_caches()
    results, latencies, marks, failed = [], [], [], 0
    started = time.perf_counter()
    for index, point in enumerate(points):
        if recorder is None:
            speed.tick()
        else:
            recorder.op = f"point-{index}"
        t0 = time.perf_counter()
        try:
            (result,), _hits, _fresh = campaign.evaluate_points(
                [point], mode="both", executor="serial")
        except Exception:               # a failed point is counted, not fatal
            result = None
            failed += 1
        latencies.append(time.perf_counter() - t0)
        marks.append(speed.mark())
        results.append(result)
    return Pass(results, latencies, marks, time.perf_counter() - started,
                failed)


def run(inputs: Inputs, seconds: int, trace: bool, workdir: Path,
        speed: HostSpeed) -> tuple[Outcome, Recorder | None, float]:
    points = inputs.points
    out = Outcome()
    passes: list[Pass] = []
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        passes.append(one_pass(points, speed))
    speed.sample(SPEED_LOCAL)
    out.attempted = len(points) * len(passes)
    out.failed = sum(p.failed for p in passes)

    out.metrics = sweep_metrics(
        [speed.scale(p.latencies_s, p.marks) for p in passes], 90)
    out.raw = sweep_metrics([p.latencies_s for p in passes], 90)
    rate = out.metrics["ops_per_s"]
    out.named["points_per_s"] = Measured(rate.value, "points/s", rate.samples)
    errors = _errors(passes[0].results)
    if errors:
        out.named["error_pct_median"] = Measured(
            median(list(errors.values())), "%", len(errors))
        out.named["error_pct_max"] = Measured(
            max(errors.values()), "%", len(errors))

    recorder = wall = None
    if trace:
        recorder = Recorder()
        speed.sample(SPEED_LOCAL)
        with instrumented(recorder):
            traced = one_pass(points, speed, recorder)
        speed.sample(SPEED_LOCAL)
        wall = traced.wall_s
        out.attempted += len(points)
        out.failed += traced.failed
        out.layers["obs.tracing_overhead_pct"] = tracing_overhead(
            out, speed.scale(traced.latencies_s, traced.marks))
        for app in SUITE_APPS:
            app_errors = [e for (key, _i), e in errors.items() if key == app]
            out.layers[f"accuracy.{app}.error_pct_max"] = Measured(
                max(app_errors, default=0.0), "%", len(app_errors))
        passes.append(traced)

    _check(out, inputs, passes, errors)
    return out, recorder, wall


def _errors(results: list) -> dict[tuple[str, int], float]:
    """|estimated - measured| / measured, in %, per (app, point index)."""
    return {(r.point.app, i): r.abs_error_pct
            for i, r in enumerate(results)
            if r is not None and r.measured_us}


def _check(out: Outcome, inputs: Inputs, passes: list[Pass],
           errors: dict) -> None:
    points = inputs.points
    out.check(f"all {len(points)} points estimated and measured", all(
        r is not None and math.isfinite(r.estimated_us) and r.estimated_us > 0
        and math.isfinite(r.measured_us) and r.measured_us > 0
        for p in passes for r in p.results))
    records = [r.to_record() for r in passes[0].results if r is not None]
    out.check("passes agree", all(
        [r.to_record() for r in p.results if r is not None] == records
        for p in passes))
    values = list(errors.values())
    worst_app = {app: max((e for (key, _i), e in errors.items()
                           if key == app), default=0.0)
                 for app in APPLICATIONS}
    out.check("error inside the Table 2 band",
              bool(values) and max(values) < WORST_PCT
              and min(values) < BEST_PCT
              and all(e < APPLICATION_PCT for e in worst_app.values()),
              f"worst {max(values, default=0):.2f}%")
    mismatched = []
    for index in inputs.sample:
        point = points[index]
        entry = get_entry(point.app)
        compiled, _options = campaign.compile_scenario(point)
        machine = get_machine(point.machine, point.nprocs)
        simulated = simulate(compiled, machine)
        reference = evaluate_program(compiled.program,
                                     params=entry.params_for(point.size))
        if simulated.array_checksum != reference.state.checksum():
            mismatched.append(point.label())
    out.check(f"seeded sample of {len(inputs.sample)}: simulator data plane "
              f"equals the functional evaluator", not mismatched,
              ", ".join(mismatched))
