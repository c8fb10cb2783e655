"""sim-scale: the vector simulator engine at large partitions.

Two programs are compiled at set-up and simulated in rounds, (a) then (b),
until the run's time is up:

(a) laplace_block_block n=256, maxiter=20 on ipsc860 at p=1024 -- a
    hypercube with link contention, where the network is a large share;
(b) laplace_block_star n=64, maxiter=20 on modern-cluster at p=8192 -- a
    contention-free switch, where per-rank node costing dominates.

The frontend, compiler and interpreter do no timed work here.  The
simulated outputs are deterministic, so every call must reproduce them.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro import simulator
from repro.compiler import compile_source
from repro.suite import get_entry
from repro.system import get_machine

from common import SPEED_LOCAL, HostSpeed, Measured, Outcome, median
from tracing import Recorder, instrumented, simulator_metrics

#: set-up time is measured by spawning fresh interpreters (run.py)
SETUP_BY_PROBE = True
#: label -> (app, n, machine, p); labels name the per-layer metrics
CONFIGS = {
    "hypercube_p1024": ("laplace_block_block", 256, "ipsc860", 1024),
    "switched_p8192": ("laplace_block_star", 64, "modern-cluster", 8192),
}
MAXITER = 20.0


@dataclass
class Inputs:
    programs: dict[str, tuple]          # label -> (compiled, machine)


@dataclass
class Call:
    wall_s: float
    mark: int                           # HostSpeed.mark() of the call
    fingerprint: tuple


def prepare(seed: int, seconds: int) -> Inputs:
    programs = {}
    for label, (app, n, machine, p) in CONFIGS.items():
        entry = get_entry(app)
        params = entry.params_for(n)
        params["maxiter"] = MAXITER
        compiled = compile_source(entry.source, name=entry.key, nprocs=p,
                                  params=params)
        programs[label] = (compiled, get_machine(machine, p))
    return Inputs(programs)


def fingerprint(result) -> tuple:
    """What must repeat exactly: simulated time, messages, statements and
    every rank's clock."""
    clocks = np.asarray(result.per_rank_us, dtype=np.float64)
    return (result.measured_time_us, int(result.comm_stats.messages),
            int(result.statements_executed),
            hashlib.sha256(clocks.tobytes()).hexdigest())


def one_round(inputs: Inputs, speed: HostSpeed,
              recorder: Recorder | None = None) -> dict[str, Call]:
    """Simulate (a) then (b).  Untraced rounds sample the host's speed
    before each call; a traced round is scaled by the samples taken before
    and after it."""
    calls = {}
    for label, (compiled, machine) in inputs.programs.items():
        if recorder is None:
            speed.tick(SPEED_LOCAL)
        else:
            recorder.op = label
        t0 = time.perf_counter()
        result = simulator.simulate(compiled, machine)
        wall = time.perf_counter() - t0
        calls[label] = Call(wall, speed.mark(), fingerprint(result))
    return calls


def round_metrics(rounds_s: list[float]) -> dict[str, Measured]:
    n = len(rounds_s)
    return {
        "ops_per_s": Measured(median([1.0 / s for s in rounds_s]), "ops/s", n),
        "op_p50_us": Measured(median(rounds_s) * 1e6, "us", n),
        "op_tail_us": Measured(max(rounds_s) * 1e6, "us", n),
    }


def run(inputs: Inputs, seconds: int, trace: bool, workdir: Path,
        speed: HostSpeed) -> tuple[Outcome, Recorder | None, float]:
    out = Outcome()
    rounds = []
    deadline = time.perf_counter() + seconds
    while not rounds or time.perf_counter() < deadline:
        rounds.append(one_round(inputs, speed))
    speed.sample(SPEED_LOCAL)
    out.attempted = len(rounds) * len(CONFIGS)

    def scaled(call: Call) -> float:
        return call.wall_s / speed.around(call.mark)

    out.metrics = round_metrics(
        [sum(scaled(c) for c in r.values()) for r in rounds])
    out.raw = round_metrics(
        [sum(c.wall_s for c in r.values()) for r in rounds])
    for label, name in (("hypercube_p1024", "sim_hypercube_p1024_s"),
                        ("switched_p8192", "sim_switched_p8192_s")):
        walls = [scaled(r[label]) for r in rounds]
        out.named[name] = Measured(median(walls), "s", len(walls))

    recorder = wall = None
    if trace:
        recorder = Recorder()
        speed.sample(SPEED_LOCAL)
        with instrumented(recorder):
            traced = one_round(inputs, speed, recorder)
        speed.sample(SPEED_LOCAL)
        wall = sum(c.wall_s for c in traced.values())
        traced_s = sum(scaled(c) for c in traced.values())
        out.layers["obs.tracing_overhead_pct"] = Measured(
            (traced_s / out.metrics["op_p50_us"].value * 1e6 - 1) * 100, "%")
        for label in CONFIGS:
            out.layers.update(simulator_metrics(
                recorder.spans, f"simulator.{label}", op=label))
        out.attempted += len(CONFIGS)
        rounds.append(traced)

    for label in CONFIGS:
        prints = {r[label].fingerprint for r in rounds}
        out.check(f"{label}: simulated time, messages, statements and "
                  f"per-rank clocks identical in all {len(rounds)} calls"
                  + (", traced and untraced" if trace else ""),
                  len(prints) == 1, f"{len(prints)} distinct")
    return out, recorder, wall
