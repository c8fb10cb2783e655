"""Spans for traced runs, recorded from the benchmark's own files.

A traced run wraps public functions of the program where their callers look
them up (``parse_source`` inside the compiler pipeline, ``interpret`` inside
the stage caches, and so on) and records one span per call: its name, start,
end, enclosing span, client lane and the id of the point or request being
served.  Inside each ``simulate`` call it also copies the ``node_cost`` /
``noise`` / ``network`` spans that the simulator engines already open into
``repro.obs``.  Spans stay in memory and are written out when the run ends.

A span's *self time* is its duration minus the time its child spans cover.
The layer self times below plus a named ``other`` add up to the traced
phase's wall time (times the number of client lanes, for the server
workload, whose lanes overlap in time).
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator

from common import Measured

#: the engine phase spans the simulator opens in ``repro.obs``
ENGINE_PHASES = ("node_cost", "noise", "network")

#: span name -> how it counts towards the wall-time decomposition: "self"
#: adds its self time; "total" adds its whole duration (its children are
#: that layer's own phases)
LAYER_SPANS = {
    "frontend.parse": "self",
    "compiler.compile": "self",
    "interpreter.interpret": "self",
    "simulator.simulate": "total",
    "explore.store.load": "self",
    "explore.store.append": "self",
    "explore.store.lookup": "self",
    "explore.campaign": "self",
    "serve.request": "self",
}


@dataclass(slots=True)
class Span:
    name: str
    start: float                  # time.perf_counter() seconds
    end: float
    parent: int                   # index of the enclosing span; -1 at root
    lane: int                     # client connection; 0 outside the server
    op: str | None                # point id or request id
    attrs: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """In-memory span log of one traced phase (single-threaded callers;
    the server client records its concurrent lanes with :meth:`add`)."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        #: id of the point or request being served, stamped on every span
        self.op: str | None = None

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        index = len(self.spans)
        record = Span(name, 0.0, 0.0,
                      self._stack[-1] if self._stack else -1, 0, self.op)
        self.spans.append(record)
        self._stack.append(index)
        record.start = time.perf_counter()
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def add(self, name: str, start: float, end: float, *, parent: int = -1,
            lane: int = 0, op: str | None = None,
            attrs: dict | None = None) -> None:
        self.spans.append(Span(name, start, end, parent, lane, op, attrs))

    def wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return wrapper

    def wrap_simulate(self, fn: Callable) -> Callable:
        """``simulate`` wrapper that also files the engine phase spans
        (``repro.obs`` must be enabled) and the result's counts."""
        from repro import obs
        tracer = obs.get_tracer()

        @functools.wraps(fn)
        def simulate(*args, **kwargs):
            mark = tracer.mark()
            index = len(self.spans)
            with self.span("simulator.simulate") as record:
                result = fn(*args, **kwargs)
            recorded = tracer.spans_since(mark)
            outer = [s for s in recorded if s.name == "simulate"][-1]
            for s in recorded:
                if s.name in ENGINE_PHASES and s.depth == outer.depth + 1:
                    start = record.start + (s.start_us - outer.start_us) / 1e6
                    self.add("simulator." + s.name, start,
                             start + s.dur_us / 1e6, parent=index,
                             op=record.op)
            record.attrs = {
                "machine": result.machine.name,
                "nprocs": result.compiled.nprocs,
                "messages": int(result.comm_stats.messages),
                "statements": int(result.statements_executed),
                "simulated_us": float(result.measured_time_us),
            }
            return result
        return simulate


@contextmanager
def instrumented(recorder: Recorder) -> Iterator[Recorder]:
    """Install the span wrappers and enable ``repro.obs`` for one phase."""
    from repro import obs, simulator, stages
    from repro.compiler import pipeline
    from repro.explore import campaign
    from repro.explore.store import ResultStore

    simulate = recorder.wrap_simulate(simulator.simulate)
    patches = [
        (pipeline, "parse_source", "frontend.parse"),
        (pipeline, "compile_program", "compiler.compile"),
        (stages, "interpret", "interpreter.interpret"),
        (campaign, "evaluate_points", "explore.campaign"),
        (ResultStore, "__init__", "explore.store.load"),
        (ResultStore, "add", "explore.store.append"),
        (ResultStore, "get_point", "explore.store.lookup"),
    ]
    saved = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in patches]
    saved += [(simulator, "simulate", simulator.simulate),
              (campaign, "simulate", campaign.simulate)]
    for owner, attr, name in patches:
        setattr(owner, attr, recorder.wrap(name, vars(owner)[attr]))
    simulator.simulate = campaign.simulate = simulate
    obs.reset()
    obs.enable()
    try:
        yield recorder
    finally:
        obs.disable()
        for owner, attr, original in saved:
            setattr(owner, attr, original)


def span_table(spans: list[Span], op: str | None = None
               ) -> dict[str, dict[str, float]]:
    """Per span name: call count, total duration and total self time (of
    the spans stamped with *op* only, when given)."""
    covered = defaultdict(float)
    for s in spans:
        if s.parent >= 0:
            covered[s.parent] += s.duration
    table: dict[str, dict[str, float]] = {}
    for index, s in enumerate(spans):
        if op is not None and s.op != op:
            continue
        row = table.setdefault(s.name, {"calls": 0, "total_s": 0.0,
                                        "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += s.duration
        row["self_s"] += s.duration - covered[index]
    return table


def decompose(spans: list[Span], wall_s: float) -> dict[str, float]:
    """Layer self times plus ``other``, which together equal *wall_s*.

    Raises when the root spans do not add up to the layer times, i.e. when
    a wrapped call nests somewhere the decomposition does not expect.
    """
    table = span_table(spans)
    parts = {name: table.get(name, {}).get(
        "self_s" if how == "self" else "total_s", 0.0)
        for name, how in LAYER_SPANS.items()}
    roots = sum(s.duration for s in spans if s.parent < 0)
    if abs(sum(parts.values()) - roots) > 1e-6 * max(roots, 1.0):
        raise RuntimeError(f"layer self times ({sum(parts.values()):.6f} s) "
                           f"do not add up to the root spans ({roots:.6f} s)")
    parts["other"] = wall_s - roots
    return parts


def simulator_metrics(spans: list[Span], prefix: str = "simulator",
                      op: str | None = None) -> dict[str, Measured]:
    """Simulator per-layer metrics over *spans* (stamped *op*, if given):
    wall time by engine phase, the rest as ``other_s``, and the summed
    result counts."""
    table = span_table(spans, op)
    sims = [s for s in spans if s.name == "simulator.simulate"
            and (op is None or s.op == op)]
    row = table.get("simulator.simulate", {"total_s": 0.0, "self_s": 0.0})
    metrics = {
        f"{prefix}.simulate_s": Measured(row["total_s"], "s", len(sims)),
        f"{prefix}.other_s": Measured(row["self_s"], "s", len(sims)),
    }
    for phase in ENGINE_PHASES:
        metrics[f"{prefix}.{phase}_s"] = Measured(
            table.get(f"simulator.{phase}", {}).get("total_s", 0.0), "s",
            len(sims))
    for field, unit in (("messages", "count"), ("statements", "count"),
                        ("simulated_us", "us")):
        metrics[f"{prefix}.{field}"] = Measured(
            sum((s.attrs or {}).get(field, 0) for s in sims), unit, len(sims))
    return metrics


def layer_metrics(spans: list[Span], wall_s: float) -> dict[str, Measured]:
    """The span-derived per-layer metrics of one traced phase."""
    table = span_table(spans)

    def calls(name: str) -> Measured:
        return Measured(table.get(name, {}).get("calls", 0), "count")

    parts = decompose(spans, wall_s)
    metrics = {
        "frontend.parse_calls": calls("frontend.parse"),
        "compiler.compile_calls": calls("compiler.compile"),
        "interpreter.interpret_calls": calls("interpreter.interpret"),
        "simulator.simulate_calls": calls("simulator.simulate"),
        "trace.wall_s": Measured(wall_s, "s"),
        "trace.other_s": Measured(parts["other"], "s"),
    }
    for name, metric in (
            ("frontend.parse", "frontend.parse_s"),
            ("compiler.compile", "compiler.compile_s"),
            ("interpreter.interpret", "interpreter.interpret_s"),
            ("explore.store.load", "explore.store.load_s"),
            ("explore.store.append", "explore.store.append_s"),
            ("explore.store.lookup", "explore.store.lookup_s"),
            ("explore.campaign", "explore.campaign.self_s"),
            ("serve.request", "serve.request_s")):
        metrics[metric] = Measured(parts[name], "s",
                                   table.get(name, {}).get("calls", 0))
    metrics.update(simulator_metrics(spans))
    metrics.update(stage_hit_ratios())
    return metrics


def stage_hit_ratios() -> dict[str, Measured]:
    """Hit ratios of the compile and price stage caches, from the
    ``repro_stage_cache_{hits,misses}_total`` counters of the traced phase
    (the registry is reset when :func:`instrumented` starts)."""
    from repro import obs
    flat = obs.get_registry().flatten()
    ratios = {}
    for stage in ("compile", "price"):
        hits = flat.get(f'repro_stage_cache_hits_total{{stage="{stage}"}}', 0)
        misses = flat.get(
            f'repro_stage_cache_misses_total{{stage="{stage}"}}', 0)
        total = hits + misses
        ratios[f"stages.{stage}_hit_ratio"] = Measured(
            hits / total if total else 0.0, "ratio", int(total))
    return ratios


def write_spans(path: Path, spans: list[Span]) -> None:
    """One JSON object per span; times in seconds from the first span."""
    origin = min((s.start for s in spans), default=0.0)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        for index, s in enumerate(spans):
            record: dict[str, Any] = {
                "id": index, "name": s.name, "parent": s.parent,
                "start_s": round(s.start - origin, 9),
                "end_s": round(s.end - origin, 9),
                "lane": s.lane, "op": s.op}
            if s.attrs:
                record["attrs"] = s.attrs
            fh.write(json.dumps(record) + "\n")
