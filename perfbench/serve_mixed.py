"""serve-mixed: ``python -m repro.serve`` under a mixed closed-loop load.

The server runs in its own process, over a store pre-seeded through a
server.  One client (this process) drives 2 keep-alive connections in a
closed loop: each connection sends its next request when the reply to the
last one has arrived, as campaign scripts and notebooks do.  The request
sequence is seeded and shuffled:

* ~90% hot keys, warmed before timing (memory tier);
* ~5% pre-seeded keys, each sent once (store tier);
* ~5% fresh keys, each sent once (compute tier).

The mix, the number of hot keys, the key universe and the request rate are
assumptions chosen when the benchmark was defined: no measured traffic
exists to derive them from.  They decide what the gated metrics see:
``op_p50_us`` is a memory-tier latency, while ``op_tail_us`` (p99) and most
of the time behind ``ops_per_s`` come from the compute tier.  The
store tier is a few percent of the run's time and shows only in its own
ungated numbers.

Every response must be 200 and come from its planned tier.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import re
import shutil
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.explore.campaign import evaluate_point
from repro.serve.protocol import PredictRequest
from repro.suite import all_entries

from common import (SETUP_PROBES, HostSpeed, Measured, Outcome, median,
                    percentile, spawn_until_line, stop_process)
from tracing import Recorder

#: set-up time is the server's spawn-to-listening time, measured here
SETUP_BY_PROBE = False
LANES = 2
# The traffic below is assumed, not measured (see the module docstring).
HOT_KEYS = 64
#: share of the requests that go to the store tier, and to the compute tier
COLD_SHARE = 0.05
#: requests planned per second of run time
RATE = 1500
PROCS = (1, 2, 3, 4, 6, 8, 12, 16, 24, 32)
MACHINES = ("ipsc860", "paragon", "cluster", "torus-cluster", "cm5",
            "modern-cluster")
#: payloads per tier re-computed in this process and compared
SAMPLE_PER_TIER = 8
TIERS = ("memory", "store", "computed")
#: the timed phase is driven and scored in this many windows
WINDOWS = 10
#: reference work timed on each CPU before and after each window
SPEED_PER_CPU = 3
#: the samples taken at one window boundary
BOUNDARY = 2 * SPEED_PER_CPU


@dataclass
class Inputs:
    seed_bodies: list[bytes]            # hot + store-tier keys
    hot_bodies: list[bytes]
    plan: list[bytes]
    plan_tiers: list[str]
    sample: list[int]                   # plan indices re-computed locally


@dataclass
class Replies:
    """Per-request results of one closed-loop drive."""

    start: list[float]
    end: list[float]
    status: list[int]
    tier: list[str]
    payload: dict[int, bytes] = field(default_factory=dict)
    wall_s: float = 0.0

    def latencies(self, tier: str | None = None) -> list[float]:
        return [e - s for s, e, t in zip(self.start, self.end, self.tier)
                if tier is None or t == tier]


def _body(key: dict) -> bytes:
    return json.dumps(key, sort_keys=True, separators=(",", ":")).encode()


def prepare(seed: int, seconds: int) -> Inputs:
    rng = random.Random(seed)
    universe = [{"app": app, "size": size, "nprocs": p, "machine": m}
                for app, entry in all_entries().items()
                for size in entry.sizes for p in PROCS for m in MACHINES]
    rng.shuffle(universe)
    total = RATE * seconds
    cold = min(round(total * COLD_SHARE), (len(universe) - HOT_KEYS) // 2)
    hot = universe[:HOT_KEYS]
    stored = universe[HOT_KEYS:HOT_KEYS + cold]
    fresh = universe[HOT_KEYS + cold:HOT_KEYS + 2 * cold]
    plan = [("memory", rng.choice(hot)) for _ in range(total - 2 * cold)]
    plan += [("store", key) for key in stored]
    plan += [("computed", key) for key in fresh]
    rng.shuffle(plan)
    tiers = [tier for tier, _ in plan]
    sample = []
    for tier in TIERS:
        indices = [i for i, t in enumerate(tiers) if t == tier]
        sample += rng.sample(indices, min(SAMPLE_PER_TIER, len(indices)))
    return Inputs(seed_bodies=[_body(k) for k in hot + stored],
                  hot_bodies=[_body(k) for k in hot],
                  plan=[_body(k) for _, k in plan], plan_tiers=tiers,
                  sample=sorted(sample))


# ---------------------------------------------------------------------------
# the server process
# ---------------------------------------------------------------------------


class Server:
    """One ``python -m repro.serve`` child on an ephemeral port."""

    def __init__(self, store: Path, log: Path, telemetry: bool, cpu: int):
        self.cpu = cpu
        self.argv = [sys.executable, "-m", "repro.serve", "--port", "0",
                     "--store", str(store), "--workers", str(LANES)]
        if not telemetry:
            self.argv.append("--no-telemetry")
        self.log = log
        self.proc = None

    def start(self) -> float:
        """Spawn and wait until it listens; returns the seconds taken."""
        elapsed, self.proc, line = spawn_until_line(
            self.argv, "repro.serve listening on", self.log, cpu=self.cpu)
        match = re.search(r"http://([^:/]+):(\d+)", line)
        self.host, self.port = match.group(1), int(match.group(2))
        return elapsed

    def stop(self) -> None:
        if self.proc is not None:
            stop_process(self.proc)
            self.proc = None

    def get(self, route: str) -> bytes:
        return asyncio.run(_get(self.host, self.port, route))

    def drive(self, bodies: list[bytes], keep: frozenset = frozenset(),
              recorder: Recorder | None = None,
              tiers: list[str] | None = None) -> Replies:
        """Send *bodies* over the closed-loop lanes; keeps the payloads of
        the indices in *keep*."""
        return asyncio.run(_drive(self.host, self.port, bodies, keep,
                                  recorder, tiers))


_HEAD = (b"POST /predict HTTP/1.1\r\nHost: bench\r\n"
         b"Content-Type: application/json\r\nContent-Length: %d\r\n\r\n")


async def _exchange(reader, writer, head: bytes, body: bytes
                    ) -> tuple[int, bytes, bool]:
    writer.write(head + body)
    await writer.drain()
    header = await reader.readuntil(b"\r\n\r\n")
    status = int(header[9:12])
    at = header.index(b"Content-Length: ") + 16
    length = int(header[at:header.index(b"\r\n", at)])
    payload = await reader.readexactly(length)
    return status, payload, b"Connection: keep-alive" in header


async def _get(host: str, port: int, route: str) -> bytes:
    reader, writer = await asyncio.open_connection(host, port)
    try:
        head = f"GET {route} HTTP/1.1\r\nHost: bench\r\n\r\n".encode()
        _status, payload, _alive = await _exchange(reader, writer, head, b"")
        return payload
    finally:
        writer.close()
        await writer.wait_closed()


async def _drive(host: str, port: int, bodies: list[bytes], keep: frozenset,
                 recorder: Recorder | None, tiers: list[str] | None
                 ) -> Replies:
    n = len(bodies)
    replies = Replies([0.0] * n, [0.0] * n, [0] * n, [""] * n)
    pending = iter(range(n))            # shared by the lanes

    async def lane(lane_id: int) -> None:
        reader, writer = await asyncio.open_connection(host, port)
        try:
            for i in pending:
                body = bodies[i]
                t0 = time.perf_counter()
                try:
                    status, payload, alive = await _exchange(
                        reader, writer, _HEAD % len(body), body)
                except (ConnectionError, asyncio.IncompleteReadError):
                    status, payload, alive = 0, b"", False
                t1 = time.perf_counter()
                replies.start[i], replies.end[i] = t0, t1
                replies.status[i] = status
                if status == 200:
                    # the server puts served_from first: {"served_from":"..."
                    replies.tier[i] = payload[16:payload.index(b'"', 16)] \
                        .decode()
                if i in keep:
                    replies.payload[i] = payload
                if recorder is not None:
                    recorder.add("serve.request", t0, t1, lane=lane_id,
                                 op=f"req-{i}",
                                 attrs={"planned": tiers[i] if tiers else "",
                                        "served_from": replies.tier[i],
                                        "status": status})
                if not alive:
                    writer.close()
                    reader, writer = await asyncio.open_connection(host, port)
        finally:
            writer.close()
            await writer.wait_closed()

    started = time.perf_counter()
    await asyncio.gather(*(lane(k) for k in range(LANES)))
    replies.wall_s = time.perf_counter() - started
    return replies


# ---------------------------------------------------------------------------
# the workload
# ---------------------------------------------------------------------------


def run(inputs: Inputs, seconds: int, trace: bool, workdir: Path,
        speed: HostSpeed) -> tuple[Outcome, Recorder | None, float]:
    # The server's event loop and worker threads share one GIL: pinned to
    # one CPU they pass it without waking another CPU, and the client,
    # pinned to another, does not compete with them.
    allowed = os.sched_getaffinity(0)
    cpus = (min(allowed), max(allowed))           # client, server
    os.sched_setaffinity(0, {cpus[0]})
    try:
        return _run(inputs, trace, workdir, speed, cpus)
    finally:
        os.sched_setaffinity(0, allowed)


def _run(inputs: Inputs, trace: bool, workdir: Path, speed: HostSpeed,
         cpus: tuple[int, int]) -> tuple[Outcome, Recorder | None, float]:
    out = Outcome()
    log = workdir / "server.err"
    seeded = workdir / "seeded.jsonl"

    seeder = Server(seeded, log, telemetry=False, cpu=cpus[1])
    try:
        seeder.start()
        seeding = seeder.drive(inputs.seed_bodies)
    finally:
        seeder.stop()
    out.check("store pre-seeded through the server",
              all(s == 200 for s in seeding.status))

    setup, marks, windows = [], [], []
    server = None
    try:
        for _ in range(SETUP_PROBES):
            if server is not None:
                server.stop()
            store = workdir / "store.jsonl"
            shutil.copyfile(seeded, store)
            server = Server(store, log, telemetry=False, cpu=cpus[1])
            speed.sample_on(cpus, SPEED_PER_CPU)
            marks.append(speed.mark())
            setup.append(server.start())
        speed.sample_on(cpus, SPEED_PER_CPU)
        _warm(out, server, inputs)
        windows = _drive_windows(server, inputs, speed, cpus)
    finally:
        if server is not None:
            server.stop()
    setup_scaled = [t / speed.around(m, BOUNDARY)
                    for t, m in zip(setup, marks)]
    out.metrics["setup_s"] = Measured(median(setup_scaled), "s", len(setup))
    out.raw["setup_s"] = Measured(median(setup), "s", len(setup))
    _score(out, inputs, windows)

    recorder = wall = None
    if trace:
        recorder, wall = _traced(out, inputs, workdir, seeded, log, windows,
                                 speed, cpus)
    _check_payloads(out, inputs, windows)
    return out, recorder, wall


def _warm(out: Outcome, server: Server, inputs: Inputs) -> None:
    warm = server.drive(inputs.hot_bodies)
    out.check("hot keys warmed from the store tier",
              all(s == 200 for s in warm.status)
              and set(warm.tier) == {"store"})


@dataclass
class Window:
    """One stretch of the plan, driven on its own."""

    replies: Replies
    offset: int                         # plan index of its first request
    slowdown: float                     # the host's, around the window


def _drive_windows(server: Server, inputs: Inputs, speed: HostSpeed,
                   cpus: tuple[int, int]) -> list[Window]:
    """The plan in :data:`WINDOWS` consecutive stretches.  Between them, with
    no request in flight, the host's speed is sampled on both CPUs; each
    window is scaled by the samples just before and just after it."""
    n = len(inputs.plan)
    bounds = [n * k // WINDOWS for k in range(WINDOWS + 1)]
    windows = []
    speed.sample_on(cpus, SPEED_PER_CPU)
    for lo, hi in zip(bounds, bounds[1:]):
        keep = frozenset(i - lo for i in inputs.sample if lo <= i < hi)
        mark = speed.mark()
        replies = server.drive(inputs.plan[lo:hi], keep)
        speed.sample_on(cpus, SPEED_PER_CPU)
        windows.append(Window(replies, lo, speed.around(mark, BOUNDARY)))
    return windows


def _score(out: Outcome, inputs: Inputs, windows: list[Window]) -> None:
    n = len(inputs.plan)
    out.attempted += n
    status = [s for w in windows for s in w.replies.status]
    tiers = [t for w in windows for t in w.replies.tier]
    bad_status = sum(1 for s in status if s != 200)
    wrong_tier = sum(1 for s, got, planned in zip(
        status, tiers, inputs.plan_tiers) if s == 200 and got != planned)
    out.failed += bad_status + wrong_tier
    out.check("every response 200", not bad_status, f"{bad_status} not 200")
    out.check("every response from its planned tier", not wrong_tier,
              f"{wrong_tier} wrong")

    out.metrics.update(_window_metrics(windows, scaled=True))
    out.raw.update(_window_metrics(windows, scaled=False))
    rate = out.metrics["ops_per_s"]
    out.named["requests_per_s"] = Measured(rate.value, "req/s", rate.samples)
    out.named["p99_us"] = out.metrics["op_tail_us"]
    for tier, name in zip(TIERS, ("memory_p50_us", "store_p50_us",
                                  "compute_p50_us")):
        lat = [t / w.slowdown for w in windows
               for t in w.replies.latencies(tier)]
        if lat:
            out.named[name] = Measured(median(lat) * 1e6, "us", len(lat))
        raw = [t for w in windows for t in w.replies.latencies(tier)]
        if raw:
            out.layers[f"serve.tier_p99_us.{tier}"] = Measured(
                percentile(raw, 99) * 1e6, "us", len(raw))


def _window_metrics(windows: list[Window], scaled: bool
                    ) -> dict[str, Measured]:
    """The median over the windows of each window's request rate, p50 and
    p99, so a burst of host noise inside one window does not move them."""
    rates, p50s, p99s = [], [], []
    for w in windows:
        factor = w.slowdown if scaled else 1.0
        latencies = w.replies.latencies()
        rates.append(len(latencies) / w.replies.wall_s * factor)
        p50s.append(median(latencies) / factor)
        p99s.append(percentile(latencies, 99) / factor)
    n = sum(len(w.replies.start) for w in windows)
    return {
        "ops_per_s": Measured(median(rates), "ops/s", n),
        "op_p50_us": Measured(median(p50s) * 1e6, "us", n),
        "op_tail_us": Measured(median(p99s) * 1e6, "us", n),
    }


def _traced(out: Outcome, inputs: Inputs, workdir: Path, seeded: Path,
            log: Path, windows: list[Window], speed: HostSpeed,
            cpus: tuple[int, int]) -> tuple[Recorder, float]:
    """The same plan against a telemetry-on server over a fresh copy of the
    seeded store, with one client span per request and a /metrics scrape."""
    store = workdir / "store-traced.jsonl"
    shutil.copyfile(seeded, store)
    recorder = Recorder()
    server = Server(store, log, telemetry=True, cpu=cpus[1])
    try:
        server.start()
        _warm(out, server, inputs)
        speed.sample_on(cpus, SPEED_PER_CPU)
        mark = speed.mark()
        traced = server.drive(inputs.plan, recorder=recorder,
                              tiers=inputs.plan_tiers)
        speed.sample_on(cpus, SPEED_PER_CPU)
        slowdown = speed.around(mark, BOUNDARY)
        metrics = _prometheus(server.get("/metrics").decode())
    finally:
        server.stop()
    out.attempted += len(inputs.plan)
    wrong = sum(1 for s, got, planned in zip(
        traced.status, traced.tier, inputs.plan_tiers)
        if s != 200 or got != planned)
    out.failed += wrong
    out.check("traced run: every response 200 from its planned tier",
              not wrong, f"{wrong} wrong")

    layers = out.layers
    for tier in TIERS:
        layers[f"serve.tier_requests.{tier}"] = Measured(
            traced.tier.count(tier), "count")
    layers["serve.failed"] = Measured(wrong, "count")
    layers["serve.batches"] = Measured(
        metrics.get("repro_serve_batches_total", 0), "count")
    layers["serve.batch_size_mean"] = Measured(_mean(
        metrics, "repro_serve_batch_size", ""), "count")
    layers["serve.singleflight_followers"] = Measured(
        metrics.get("repro_serve_singleflight_followers_total", 0), "count")
    layers["serve.point_eval_mean_us"] = Measured(_mean(
        metrics, "repro_point_latency_us", '{mode="predict"}'), "us")
    layers["serve.server_p50_us"] = Measured(_histogram_quantile(
        metrics, "repro_serve_request_latency_us", 'route="/predict"', 0.5),
        "us")
    for stage in ("compile", "price"):
        hits = metrics.get(
            f'repro_stage_cache_hits_total{{stage="{stage}"}}', 0)
        misses = metrics.get(
            f'repro_stage_cache_misses_total{{stage="{stage}"}}', 0)
        layers[f"stages.{stage}_hit_ratio"] = Measured(
            hits / (hits + misses) if hits + misses else 0.0, "ratio",
            int(hits + misses))
    untraced = sum(w.replies.wall_s / w.slowdown for w in windows)
    layers["obs.tracing_overhead_pct"] = Measured(
        (traced.wall_s / slowdown / untraced - 1) * 100, "%")
    return recorder, traced.wall_s * LANES


def _prometheus(text: str) -> dict[str, float]:
    samples = {}
    for line in text.splitlines():
        if line and not line.startswith("#"):
            name, _, value = line.rpartition(" ")
            samples[name] = float(value)
    return samples


def _mean(metrics: dict, family: str, labels: str) -> float:
    count = metrics.get(f"{family}_count{labels}", 0)
    return metrics.get(f"{family}_sum{labels}", 0.0) / count if count else 0.0


def _histogram_quantile(metrics: dict, family: str, labels: str,
                        q: float) -> float:
    """Quantile of a cumulative-bucket histogram, interpolated
    geometrically inside the bucket (the buckets are log-spaced)."""
    pattern = re.compile(re.escape(f"{family}_bucket{{{labels},le=\"")
                         + r"([^\"]+)\"\}")
    buckets = sorted((float(m.group(1)), count)
                     for name, count in metrics.items()
                     if (m := pattern.fullmatch(name)))
    if not buckets or buckets[-1][1] == 0:
        return 0.0
    rank = q * buckets[-1][1]
    lower, below = 1.0, 0.0
    for bound, cumulative in buckets:
        if cumulative >= rank:
            if bound == float("inf"):
                return lower
            share = (rank - below) / (cumulative - below)
            return lower * (bound / lower) ** share
        lower, below = bound, cumulative
    return lower


def _check_payloads(out: Outcome, inputs: Inputs,
                    windows: list[Window]) -> None:
    """A seeded sample of payloads, per tier, equals ``evaluate_point``
    computed in this process."""
    payloads = {w.offset + i: payload for w in windows
                for i, payload in w.replies.payload.items()}
    mismatched = []
    for i in inputs.sample:
        request = PredictRequest.from_payload(json.loads(inputs.plan[i]))
        result = evaluate_point(request.point, mode="predict",
                                program=request.program)
        expected = {
            "served_from": inputs.plan_tiers[i],
            "key": result.key,
            "scenario": request.point.scenario_dict(),
            "predicted_time_us": result.estimated_us,
            "comp_us": result.comp_us,
            "comm_us": result.comm_us,
            "ovhd_us": result.ovhd_us,
            "grid_shape": list(result.grid_shape),
        }
        got = json.loads(payloads.get(i, b"{}"))
        if got != expected:
            mismatched.append(f"req-{i}")
    out.check(f"seeded sample of {len(inputs.sample)} payloads equals "
              f"evaluate_point", not mismatched, ", ".join(mismatched))
