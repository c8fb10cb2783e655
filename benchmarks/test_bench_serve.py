"""B-serve — the serving layer's latency and cached-throughput pins.

``repro.serve`` exists so a fleet of clients can share one warm model
process; its contract is that a *cached* prediction costs a dict lookup
plus HTTP framing, not a compile.  This benchmark drives a live server
over localhost sockets and pins:

* **latency** — sequential cached ``POST /predict`` round-trips on one
  keep-alive connection, reported as p50/p99 microseconds,
* **throughput** — pipelined keep-alive connections replaying one cached
  request, with a hard floor of ``THROUGHPUT_FLOOR`` (≥ 10k) cached
  predictions per second,
* **resilience overhead** — the per-request deadline/retry/shedding hooks
  (see ``docs/resilience.md``) with no fault plan installed must cost
  ≤ ``RESILIENCE_OVERHEAD_BUDGET`` on the cached p50, same budget
  discipline as the simulator's ``obs_overhead`` pin.

Each run emits ``BENCH_serve.json`` under pytest's ``tmp_path``; recording
refreshes the committed ``benchmarks/results/BENCH_serve.json`` so the
serving trajectory is comparable across changes::

    PYTHONPATH=src python -m pytest benchmarks/test_bench_serve.py -s \
        --record-results
"""

import json
import socket
import statistics
import time
from pathlib import Path

from repro.serve import ServeOptions, ServerThread

BODY = json.dumps({"app": "laplace_block_star", "size": 16, "nprocs": 4,
                   "machine": "ipsc860"}).encode()

#: The tentpole pin: cached predictions served per second, end to end
#: through real sockets and HTTP framing.  Measured ~40-60k/s on the dev
#: host; the floor leaves CI slack while staying an order of magnitude
#: above what per-request recomputation could reach.
THROUGHPUT_FLOOR = 10_000.0

#: Sequential cached round-trips must stay comfortably sub-millisecond.
LATENCY_P99_BUDGET_US = 5_000.0

LATENCY_SAMPLES = 2_000
PIPELINE_DEPTH = 64
THROUGHPUT_REQUESTS = 30_000

#: Ceiling on the relative cached-p50 cost of the resilience hooks
#: (deadline stamping, queue-depth checks, retry plumbing) when no fault
#: plan is installed — the disabled path must stay in the noise floor.
RESILIENCE_OVERHEAD_BUDGET = 0.03
RESILIENCE_OVERHEAD_SAMPLES = 400

RESULTS_NAME = "BENCH_serve.json"


def _merge_results_json(results_dir: Path, updates: dict) -> None:
    """Read-merge-write ``results_dir / RESULTS_NAME`` so the
    latency/throughput and resilience-overhead tests can each refresh their
    own fields without clobbering the other's recorded numbers."""
    path = results_dir / RESULTS_NAME
    data = {}
    if path.exists():
        data = json.loads(path.read_text())
    data.update(updates)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(data, indent=2) + "\n")


def _request_bytes(host: str, port: int) -> bytes:
    return (
        f"POST /predict HTTP/1.1\r\n"
        f"Host: {host}:{port}\r\n"
        f"Content-Length: {len(BODY)}\r\n"
        f"\r\n"
    ).encode() + BODY


def _read_response(sock_file) -> bytes:
    """One HTTP response off a buffered socket file; returns the body."""
    line = sock_file.readline()
    if not line:
        raise ConnectionError("server closed the connection")
    length = 0
    while True:
        header = sock_file.readline()
        if header in (b"\r\n", b""):
            break
        name, _, value = header.partition(b":")
        if name.lower() == b"content-length":
            length = int(value)
    return sock_file.read(length)


def _connect(host: str, port: int) -> socket.socket:
    sock = socket.create_connection((host, port), timeout=30)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def _warm(host: str, port: int) -> None:
    """Prime every tier: the first request computes, the rest must hit."""
    request = _request_bytes(host, port)
    with _connect(host, port) as sock:
        fh = sock.makefile("rb")
        for _ in range(3):
            sock.sendall(request)
            body = _read_response(fh)
        assert json.loads(body)["served_from"] == "memory"


def _measure_latency(host: str, port: int) -> dict:
    request = _request_bytes(host, port)
    samples = []
    with _connect(host, port) as sock:
        fh = sock.makefile("rb")
        for _ in range(LATENCY_SAMPLES):
            started = time.perf_counter()
            sock.sendall(request)
            _read_response(fh)
            samples.append((time.perf_counter() - started) * 1e6)
    samples.sort()
    return {
        "samples": LATENCY_SAMPLES,
        "p50_us": round(statistics.median(samples), 1),
        "p99_us": round(samples[int(len(samples) * 0.99) - 1], 1),
        "mean_us": round(statistics.fmean(samples), 1),
    }


def _measure_throughput(host: str, port: int) -> dict:
    """Pipelined replay: keep ``PIPELINE_DEPTH`` requests in flight on one
    keep-alive connection so framing, not round-trip stalls, is measured."""
    request = _request_bytes(host, port)
    block = request * PIPELINE_DEPTH
    blocks = THROUGHPUT_REQUESTS // PIPELINE_DEPTH
    total = blocks * PIPELINE_DEPTH
    with _connect(host, port) as sock:
        fh = sock.makefile("rb")
        started = time.perf_counter()
        for _ in range(blocks):
            sock.sendall(block)
            for _ in range(PIPELINE_DEPTH):
                body = _read_response(fh)
        elapsed = time.perf_counter() - started
    assert json.loads(body)["served_from"] == "memory"
    return {
        "requests": total,
        "pipeline_depth": PIPELINE_DEPTH,
        "wall_s": round(elapsed, 4),
        "predictions_per_s": round(total / elapsed, 1),
    }


def test_serve_cached_latency_and_throughput(results_dir):
    """The committed serving numbers: p50/p99 latency + the ≥10k/s floor."""
    with ServerThread(ServeOptions(port=0, cache_size=64)) as (host, port):
        _warm(host, port)
        latency = _measure_latency(host, port)
        throughput = _measure_throughput(host, port)

    print()
    print(f"serve cached /predict: p50 {latency['p50_us']:.0f} us, "
          f"p99 {latency['p99_us']:.0f} us over {latency['samples']} "
          f"sequential round-trips")
    print(f"serve cached throughput: {throughput['predictions_per_s']:,.0f} "
          f"predictions/s ({throughput['requests']} requests, pipeline "
          f"depth {throughput['pipeline_depth']})")

    _merge_results_json(results_dir, {
        "schema": 1,
        "benchmark": "serve",
        "scenario": json.loads(BODY),
        "latency": latency,
        "throughput": throughput,
        "floor_predictions_per_s": THROUGHPUT_FLOOR,
    })

    assert latency["p99_us"] <= LATENCY_P99_BUDGET_US, \
        f"cached p99 latency {latency['p99_us']:.0f} us over budget " \
        f"({LATENCY_P99_BUDGET_US:.0f} us)"
    assert throughput["predictions_per_s"] >= THROUGHPUT_FLOOR, \
        f"cached throughput {throughput['predictions_per_s']:,.0f}/s " \
        f"under the {THROUGHPUT_FLOOR:,.0f}/s floor"


def _cached_p50_us(host: str, port: int) -> float:
    request = _request_bytes(host, port)
    samples = []
    with _connect(host, port) as sock:
        fh = sock.makefile("rb")
        for _ in range(RESILIENCE_OVERHEAD_SAMPLES):
            started = time.perf_counter()
            sock.sendall(request)
            _read_response(fh)
            samples.append((time.perf_counter() - started) * 1e6)
    return statistics.median(samples)


def test_resilience_hooks_disabled_overhead_cached_p50(results_dir):
    """Deadline/retry/shedding hooks with no fault plan cost <= 3% on
    cached p50.

    Two live servers — one with every resilience knob engaged (a generous
    but real per-request deadline, retry budget, bounded queue), one with
    the knobs at their do-nothing defaults — answer the same cached
    request in interleaved order-flipping pairs, the ``obs_overhead``
    discipline: the overhead is the best **per-pair** p50 ratio, so host
    drift cancels within the (time-adjacent) pair instead of biasing
    whichever server a fixed ordering always measured last.
    """
    plain = ServerThread(ServeOptions(port=0, cache_size=64))
    hooked = ServerThread(ServeOptions(
        port=0, cache_size=64, request_deadline_ms=60_000.0,
        compute_retries=2, queue_max=256, retry_after_s=1.0))
    with plain as (plain_host, plain_port), hooked as (hook_host, hook_port):
        _warm(plain_host, plain_port)
        _warm(hook_host, hook_port)
        plain_p50 = hooked_p50 = overhead = float("inf")
        for _round in range(5):
            for pair in range(4):
                if pair % 2 == 0:
                    plain_med = _cached_p50_us(plain_host, plain_port)
                    hooked_med = _cached_p50_us(hook_host, hook_port)
                else:
                    hooked_med = _cached_p50_us(hook_host, hook_port)
                    plain_med = _cached_p50_us(plain_host, plain_port)
                plain_p50 = min(plain_p50, plain_med)
                hooked_p50 = min(hooked_p50, hooked_med)
                overhead = min(overhead, hooked_med / plain_med - 1.0)
            if overhead <= RESILIENCE_OVERHEAD_BUDGET:
                break

    print(f"\nserve resilience overhead (cached p50): "
          f"{plain_p50:.1f} us plain, {hooked_p50:.1f} us with hooks "
          f"({overhead:+.2%})")
    _merge_results_json(results_dir, {
        "resilience_overhead": {
            "plain_p50_us": round(plain_p50, 1),
            "hooked_p50_us": round(hooked_p50, 1),
            "overhead_pct": round(overhead * 100.0, 2),
            "budget_pct": RESILIENCE_OVERHEAD_BUDGET * 100.0,
        },
    })
    assert overhead <= RESILIENCE_OVERHEAD_BUDGET, \
        f"resilience hooks cost {overhead:.2%} on cached p50 " \
        f"(budget {RESILIENCE_OVERHEAD_BUDGET:.0%})"
