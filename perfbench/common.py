"""Plumbing shared by the workloads: paths, statistics, the host
fingerprint and speed, fresh-interpreter set-up probes and the outcome
record.

Nothing here imports :mod:`repro`; the workload modules do, so the cost of
importing the package is part of each workload's set-up time.
"""

from __future__ import annotations

import gc
import hashlib
import math
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import Sequence

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: scratch files of one run (stores, server logs); removed when it ends
WORK_ROOT = BENCH_DIR / ".work"
#: written results: per-run reports and traced-run span logs
OUT_DIR = BENCH_DIR / "out"

#: fresh interpreters timed per run; ``setup_s`` is their median
SETUP_PROBES = 3
#: how long any child process may take to come up or to exit
CHILD_TIMEOUT_S = 60.0

#: the reference host's time for the reference work: close to its median
#: on the host the benchmark was defined on (a 2-vCPU Intel Xeon VM,
#: python 3.11, numpy 2.4)
REFERENCE_WORK_S = 0.006
#: a run times the reference work at most this often between its ops
SPEED_EVERY_S = 0.2
#: reference work timed when a run starts, before anything else
SPEED_WARMUP = 10
#: samples on each side of an op that its time is scaled by
SPEED_LOCAL = 3


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """The *q*-th percentile (0-100), linearly interpolated between ranks."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


@dataclass
class Measured:
    """One reported number with its unit and the samples behind it."""

    value: float
    unit: str
    samples: int = 1

    def as_json(self) -> dict:
        return {"value": self.value, "unit": self.unit}


@dataclass
class Outcome:
    """Everything one workload run produced.

    ``metrics`` holds the gated end-to-end numbers and ``named`` the
    workload's own end-to-end numbers under their catalogue names, both at
    the reference host's speed (:class:`HostSpeed`); ``raw`` holds the
    gated numbers as timed on this host, and ``layers`` the per-layer
    numbers of a traced run.  Every failed operation or failed output check
    adds one to ``failed``.
    """

    metrics: dict[str, Measured] = field(default_factory=dict)
    raw: dict[str, Measured] = field(default_factory=dict)
    named: dict[str, Measured] = field(default_factory=dict)
    layers: dict[str, Measured] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    checks: dict[str, str] = field(default_factory=dict)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        """Record one output check; a failed check counts as a failure."""
        self.checks[name] = "ok" if ok else f"FAILED {detail}".rstrip()
        if not ok:
            self.failed += 1

    @property
    def correct(self) -> bool:
        return all(v == "ok" for v in self.checks.values()) \
            and self.failed == 0


def sweep_metrics(latencies_s: Sequence[Sequence[float]],
                  tail_q: float) -> dict[str, Measured]:
    """The throughput and latency metrics of repeated passes over the same
    ops: ``latencies_s[pass][op]``.

    Each op's typical latency is its median over the passes, so a burst of
    host noise that hits one pass does not move the result.  Throughput is
    ops per second of the typical pass (the sum of those medians).
    """
    typical = [median(column) for column in zip(*latencies_s)]
    samples = len(latencies_s) * len(typical)
    return {
        "ops_per_s": Measured(len(typical) / sum(typical), "ops/s", samples),
        "op_p50_us": Measured(median(typical) * 1e6, "us", samples),
        "op_tail_us": Measured(percentile(typical, tail_q) * 1e6, "us",
                               samples),
    }


def tracing_overhead(outcome: Outcome, traced_s: Sequence[float]) -> Measured:
    """A traced pass's time over the untraced typical pass time, in %; both
    at the reference host's speed."""
    typical = len(traced_s) / outcome.metrics["ops_per_s"].value
    return Measured((sum(traced_s) / typical - 1) * 100, "%")


# ---------------------------------------------------------------------------
# host speed
# ---------------------------------------------------------------------------


def _reference_work(keys) -> None:
    """Fixed work of the two kinds the program spends its time on: a
    pure-python loop (float arithmetic, dict lookups) and a numpy argsort
    of *keys* (argsort is the vector simulator's largest single cost)."""
    table = {"a": 1.0, "b": 2.0, "c": 3.0, "d": 4.0}
    acc = 0.0
    for i in range(8_000):
        for key in ("a", "b", "c", "d"):
            acc += table[key] * (i % 7)
        acc = abs(acc - i) % 1e6
    keys.argsort()


class HostSpeed:
    """How fast the host runs, from fixed reference work timed between ops.

    The shared host runs the same code up to 1.7x faster or slower for
    seconds to minutes at a time, and the program's ops slow down with it.
    So a run times :func:`_reference_work` between its ops (never inside
    one), and divides each op's time by the host's *slowdown* around it:
    the median time of the few reference samples just before and just
    after the op, over :data:`REFERENCE_WORK_S`.  The quotient is the op's
    time on the reference host, the program's own speed without the host's
    mode.  The work runs with the cyclic garbage collector off, so the
    program's heap does not change its time.
    """

    def __init__(self) -> None:
        import numpy
        self.samples: list[float] = []
        self._keys = numpy.random.default_rng(0).random(100_000)
        self._due = 0.0

    def sample(self, count: int = 1) -> None:
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(count):
                t0 = time.perf_counter()
                _reference_work(self._keys)
                self.samples.append(time.perf_counter() - t0)
        finally:
            if enabled:
                gc.enable()
        self._due = time.perf_counter() + SPEED_EVERY_S

    def tick(self, count: int = 1) -> None:
        """Time the work *count* times if :data:`SPEED_EVERY_S` has passed
        since the last time; call it between ops."""
        if time.perf_counter() >= self._due:
            self.sample(count)

    def sample_on(self, cpus: Sequence[int], count: int) -> None:
        """Time the work *count* times on each of *cpus* in turn."""
        allowed = os.sched_getaffinity(0)
        try:
            for cpu in cpus:
                os.sched_setaffinity(0, {cpu})
                self.sample(count)
        finally:
            os.sched_setaffinity(0, allowed)

    def mark(self) -> int:
        """Where the next op falls among the samples; pass it to
        :meth:`around` once the samples after the op are taken."""
        return len(self.samples)

    def around(self, mark: int, count: int = SPEED_LOCAL) -> float:
        """The slowdown from the *count* samples before *mark* and the
        *count* after it."""
        return median(self.samples[max(0, mark - count):mark + count]) \
            / REFERENCE_WORK_S

    def scale(self, times_s: Sequence[float], marks: Sequence[int]
              ) -> list[float]:
        """*times_s* at the reference host's speed, each divided by the
        slowdown around its mark."""
        return [t / self.around(m) for t, m in zip(times_s, marks)]

    @property
    def slowdown(self) -> float:
        """The slowdown over the whole run, for the report."""
        return median(self.samples) / REFERENCE_WORK_S


# ---------------------------------------------------------------------------
# host fingerprint
# ---------------------------------------------------------------------------


def git_sha(root: Path = ROOT) -> str | None:
    """HEAD of the checkout; None when it is not a git work tree (git does
    not look above it for one) or git is missing."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        done = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True, env=env,
                              timeout=CHILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_digest(src: Path = SRC) -> str:
    """sha256 over every python file of the program (names and bytes)."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def host_fingerprint() -> dict:
    import numpy
    return {
        "cpus": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
    }


def host_steal_s() -> float | None:
    """CPU seconds the hypervisor has taken from this machine's CPUs so far
    (the ``steal`` column of ``/proc/stat``); None where it is not known."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------


def child_env() -> dict:
    """Environment for child interpreters: the program on the path,
    unbuffered stdout (the parent waits for one line), no bytecode written
    into the checkout, and no telemetry or fault plan inherited from the
    caller."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("REPRO_OBS", "REPRO_FAULTS")}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONUNBUFFERED"] = "1"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def spawn_until_line(argv: Sequence[str], prefix: str, stderr_path: Path,
                     cpu: int | None = None
                     ) -> tuple[float, subprocess.Popen, str]:
    """Start *argv* (pinned to *cpu*, if given) and wait for a stdout line
    starting with *prefix*.

    Returns (seconds from spawn to that line, the process, the line).  The
    process keeps running; the caller stops it.
    """
    started = time.perf_counter()
    with open(stderr_path, "ab") as err:
        proc = subprocess.Popen(list(argv), stdout=subprocess.PIPE,
                                stderr=err, stdin=subprocess.DEVNULL,
                                env=child_env(), cwd=ROOT)
    try:
        if cpu is not None:
            # before the interpreter is up, so every thread it starts
            # inherits the mask
            os.sched_setaffinity(proc.pid, {cpu})
        line = _read_line(proc, CHILD_TIMEOUT_S)
        elapsed = time.perf_counter() - started
        if not line.startswith(prefix):
            tail = stderr_path.read_text(errors="replace")[-2000:]
            raise RuntimeError(f"{' '.join(argv[1:3])} printed {line!r}, "
                               f"expected {prefix!r}; its stderr ends:\n"
                               f"{tail}")
    except BaseException:
        stop_process(proc)
        raise
    return elapsed, proc, line


def _read_line(proc: subprocess.Popen, timeout_s: float) -> str:
    import selectors
    with selectors.DefaultSelector() as sel:
        sel.register(proc.stdout, selectors.EVENT_READ)
        if not sel.select(timeout_s):
            raise TimeoutError(f"child printed nothing in {timeout_s:g} s")
    return proc.stdout.readline().decode("utf-8", "replace").strip()


def stop_process(proc: subprocess.Popen) -> None:
    """Interrupt, then kill if needed; always waits for the exit."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGINT)
        try:
            proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    if proc.stdout is not None:
        proc.stdout.close()


def probe_setup(workload: str, seed: int, seconds: int, workdir: Path,
                speed: HostSpeed, count: int = SETUP_PROBES
                ) -> tuple[list[float], list[float]]:
    """Seconds from spawning a fresh interpreter to the workload's inputs
    being ready (imports, input building), *count* times in a row.

    Returns the times as taken and at the reference host's speed, each
    scaled by the host's speed sampled right before and right after it.
    """
    argv = [sys.executable, str(BENCH_DIR / "setup_probe.py"),
            workload, str(seed), str(seconds)]
    taken, marks = [], []
    for _ in range(count):
        speed.sample(SPEED_LOCAL)
        marks.append(speed.mark())
        elapsed, proc, _line = spawn_until_line(argv, "ready",
                                                workdir / "probe.err")
        taken.append(elapsed)
        proc.wait(timeout=CHILD_TIMEOUT_S)
        proc.stdout.close()
    speed.sample(SPEED_LOCAL)
    scaled = speed.scale(taken, marks)
    return taken, scaled


class WorkDir:
    """A per-run scratch directory inside the benchmark's own directory."""

    def __init__(self, workload: str):
        self.path = WORK_ROOT / f"{workload}-{os.getpid()}"

    def __enter__(self) -> Path:
        shutil.rmtree(self.path, ignore_errors=True)
        self.path.mkdir(parents=True)
        return self.path

    def __exit__(self, *exc_info) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass
