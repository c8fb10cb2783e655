"""predict-sweep: the paper's design-tuning sweep, in predict mode.

All 16 suite applications x their 4 paper problem sizes x p in
{1, 2, 4, 8, 16, 32} x {ipsc860, paragon}: 768 points, in ScenarioSpace
expansion order (machine varies fastest).  Each pass starts with cold stage
caches and a fresh ResultStore and evaluates the points one call at a time,
so every point has its own latency.  The same points are then re-run
against a freshly loaded copy of that store, where every point is a store
hit.  Passes repeat until the run's time is up.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from pathlib import Path

import repro
from repro import stages
from repro.explore import ResultStore, ScenarioPoint, ScenarioSpace, campaign
from repro.suite import all_entries, get_entry

from common import (SPEED_LOCAL, HostSpeed, Measured, Outcome, median,
                    sweep_metrics, tracing_overhead)
from tracing import Recorder, instrumented

#: set-up time is measured by spawning fresh interpreters (run.py)
SETUP_BY_PROBE = True
PROC_COUNTS = (1, 2, 4, 8, 16, 32)
MACHINES = ("ipsc860", "paragon")
#: store re-runs per pass (the re-run is a few ms, so it is repeated)
RERUNS = 5
#: seeded sample of points re-predicted through ``repro.predict``
SAMPLE = 16


@dataclass
class Inputs:
    points: list[ScenarioPoint]
    sample: list[int]


@dataclass
class Pass:
    results: list
    latencies_s: list[float]
    marks: list[int]                    # HostSpeed.mark() of each point
    cold_s: float
    rerun_s: list[float]
    rerun_marks: list[int]
    rerun_records: list
    hits: int
    failed: int


def prepare(seed: int, seconds: int) -> Inputs:
    points: list[ScenarioPoint] = []
    for key, entry in all_entries().items():
        points += ScenarioSpace(apps=(key,), sizes=entry.sizes,
                                proc_counts=PROC_COUNTS,
                                machines=MACHINES).expand()
    sample = random.Random(seed).sample(range(len(points)), SAMPLE)
    return Inputs(points, sample)


def one_pass(points: list[ScenarioPoint], store_path: Path, speed: HostSpeed,
             recorder: Recorder | None = None) -> Pass:
    """One cold pass and its store re-runs.  Untraced passes sample the
    host's speed between points; a traced pass is scaled by the samples
    taken before and after it."""
    stages.clear_stage_caches()
    store_path.unlink(missing_ok=True)
    results, latencies, marks, failed = [], [], [], 0
    started = time.perf_counter()
    store = ResultStore(store_path)
    for index, point in enumerate(points):
        if recorder is None:
            speed.tick()
        else:
            recorder.op = f"point-{index}"
        t0 = time.perf_counter()
        try:
            (result,), _hits, _fresh = campaign.evaluate_points(
                [point], mode="predict", store=store, executor="serial")
        except Exception:               # a failed point is counted, not fatal
            result = None
            failed += 1
        latencies.append(time.perf_counter() - t0)
        marks.append(speed.mark())
        results.append(result)
    cold = time.perf_counter() - started
    reruns, rerun_marks, hits = [], [], 0
    for rep in range(RERUNS):
        if recorder is None:
            speed.tick()
        else:
            recorder.op = f"rerun-{rep}"
        t0 = time.perf_counter()
        reloaded = ResultStore(store_path)
        records, hits, _fresh = campaign.evaluate_points(
            points, mode="predict", store=reloaded, executor="serial")
        reruns.append(time.perf_counter() - t0)
        rerun_marks.append(speed.mark())
    return Pass(results, latencies, marks, cold, reruns, rerun_marks,
                records, hits, failed)


def run(inputs: Inputs, seconds: int, trace: bool, workdir: Path,
        speed: HostSpeed) -> tuple[Outcome, Recorder | None, float]:
    points = inputs.points
    out = Outcome()
    passes: list[Pass] = []
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        passes.append(one_pass(points, workdir / "sweep.jsonl", speed))
    speed.sample(SPEED_LOCAL)
    out.attempted = len(points) * len(passes)
    out.failed = sum(p.failed for p in passes)

    out.metrics = sweep_metrics(
        [speed.scale(p.latencies_s, p.marks) for p in passes], 99)
    out.raw = sweep_metrics([p.latencies_s for p in passes], 99)
    rate = out.metrics["ops_per_s"]
    out.named["points_per_s"] = Measured(rate.value, "points/s", rate.samples)
    reruns = [len(points) / t for p in passes
              for t in speed.scale(p.rerun_s, p.rerun_marks)]
    out.named["rerun_points_per_s"] = Measured(
        median(reruns), "points/s", len(reruns))

    recorder = wall = None
    if trace:
        recorder = Recorder()
        speed.sample(SPEED_LOCAL)
        with instrumented(recorder):
            traced = one_pass(points, workdir / "sweep-traced.jsonl", speed,
                              recorder)
        speed.sample(SPEED_LOCAL)
        wall = traced.cold_s + sum(traced.rerun_s)
        out.attempted += len(points)
        out.failed += traced.failed
        out.layers["obs.tracing_overhead_pct"] = tracing_overhead(
            out, speed.scale(traced.latencies_s, traced.marks))
        passes.append(traced)

    _check(out, inputs, passes)
    return out, recorder, wall


def _check(out: Outcome, inputs: Inputs, passes: list[Pass]) -> None:
    first = passes[0].results
    estimates_ok = all(r is not None and math.isfinite(r.estimated_us)
                       and r.estimated_us > 0
                       for p in passes for r in p.results)
    out.check("estimates finite and > 0", estimates_ok)
    records = [r.to_record() for r in first if r is not None]
    out.check("re-run returns the cold records, all store hits",
              all(p.hits == len(inputs.points)
                  and [r.to_record() for r in p.rerun_records] == records
                  for p in passes))
    out.check("passes agree", all(
        [r.to_record() for r in p.results if r is not None] == records
        for p in passes))
    # an independent recomputation through the one-call API, caches cold
    stages.clear_stage_caches()
    mismatched = []
    for index in inputs.sample:
        point, result = inputs.points[index], first[index]
        entry = get_entry(point.app)
        again = repro.predict(entry.source, nprocs=point.nprocs,
                              grid_shape=point.grid_shape,
                              params=entry.params_for(point.size),
                              machine=point.machine,
                              options=entry.interpreter_options(point.size))
        if result is None or again.predicted_time_us != result.estimated_us:
            mismatched.append(point.label())
    out.check(f"seeded sample of {len(inputs.sample)} equals repro.predict",
              not mismatched, ", ".join(mismatched))
