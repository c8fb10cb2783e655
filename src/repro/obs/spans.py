"""Thread-safe span tracer with a disabled-mode no-op fast path.

A *span* is one timed region of the runtime — ``span("simulate",
nprocs=256)`` — recorded against the monotonic clock
(:func:`time.perf_counter`) so wall-clock attribution survives NTP steps.
Spans nest: each carries the per-thread depth at which it ran, which is
enough to rebuild the call tree (and to emit Chrome-trace ``ph: "X"``
events, which nest purely by timestamp containment).

The hot-path contract is the whole point of this module: when tracing is
disabled (the default), ``span(...)`` returns a shared no-op singleton and
costs one attribute load plus one call — no allocation, no clock read, no
lock.  Instrumentation sites therefore stay in production code permanently
instead of living in throwaway profiling scripts.

Recording itself is also cheap by design: a finished span is one tuple
appended to a list (``list.append`` is atomic under the GIL, so the common
path takes no lock; the lock guards only snapshot/clear/mark bookkeeping).
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, List, NamedTuple, Optional, Tuple


class SpanRecord(NamedTuple):
    """One finished span, times in microseconds relative to the tracer epoch."""

    name: str
    start_us: float
    dur_us: float
    tid: int
    depth: int
    attrs: Optional[Dict[str, Any]]  # None when the site passed no attributes


class _NoopSpan:
    """Shared do-nothing context manager returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False

    def set(self, **attrs):
        return self


NOOP_SPAN = _NoopSpan()


class _LiveSpan:
    """An open span; records itself into the tracer on exit (always, even
    when the body raises — the exception is noted and re-raised)."""

    __slots__ = ("_tracer", "_name", "_attrs", "_start", "_depth")

    def __init__(self, tracer: "Tracer", name: str,
                 attrs: Optional[Dict[str, Any]]):
        self._tracer = tracer
        self._name = name
        self._attrs = attrs

    def set(self, **attrs):
        """Attach attributes after entry (e.g. a result computed in-body)."""
        if self._attrs is None:
            self._attrs = {}
        self._attrs.update(attrs)
        return self

    def __enter__(self):
        local = self._tracer._local
        self._depth = getattr(local, "depth", 0)
        local.depth = self._depth + 1
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        end = time.perf_counter()
        tracer = self._tracer
        tracer._local.depth = self._depth
        attrs = self._attrs
        if exc_type is not None:
            attrs = dict(attrs or ())
            attrs["error"] = exc_type.__name__
        tracer._records.append(SpanRecord(
            name=self._name,
            start_us=(self._start - tracer._epoch) * 1e6,
            dur_us=(end - self._start) * 1e6,
            tid=threading.get_ident(),
            depth=self._depth,
            attrs=attrs,
        ))
        return False


class Tracer:
    """Collects finished spans; safe to record into from many threads."""

    def __init__(self) -> None:
        self._epoch = time.perf_counter()
        self._records: List[SpanRecord] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    # -- recording ---------------------------------------------------------

    def span(self, name: str,
             attrs: Optional[Dict[str, Any]] = None) -> _LiveSpan:
        return _LiveSpan(self, name, attrs)

    # -- reading -----------------------------------------------------------

    def mark(self) -> int:
        """An opaque position; pass to :meth:`spans_since` to window a run."""
        with self._lock:
            return len(self._records)

    def spans(self) -> List[SpanRecord]:
        with self._lock:
            return list(self._records)

    def spans_since(self, mark: int) -> List[SpanRecord]:
        with self._lock:
            return list(self._records[mark:])

    def aggregate(self, spans: Optional[List[SpanRecord]] = None
                  ) -> Dict[str, float]:
        """Total duration (µs) per span name over ``spans`` (default: all)."""
        totals: Dict[str, float] = {}
        for record in self.spans() if spans is None else spans:
            totals[record.name] = totals.get(record.name, 0.0) + record.dur_us
        return totals

    def clear(self) -> None:
        with self._lock:
            self._records.clear()
            self._epoch = time.perf_counter()


def phase_shares(spans: List[SpanRecord],
                 total_name: str = "simulate",
                 phase_names: Tuple[str, ...] = ("node_cost", "noise",
                                                 "network", "dataplane"),
                 ) -> Dict[str, float]:
    """Subsystem wall-clock shares from a span window.

    Sums every ``total_name`` span as the denominator and each name in
    ``phase_names`` as a bucket; whatever the buckets don't cover is
    ``other`` (clock charging, node dispatch, set-up).  By construction the
    buckets plus ``other`` sum to the total — the invariant the old
    pstats-filename bucketing could silently break — and this function
    asserts it.  Returns fractions in ``[0, 1]``; empty when no
    ``total_name`` span was recorded.
    """
    totals: Dict[str, float] = {}
    for record in spans:
        totals[record.name] = totals.get(record.name, 0.0) + record.dur_us
    denom = totals.get(total_name, 0.0)
    if denom <= 0.0:
        return {}
    shares = {name: totals.get(name, 0.0) / denom for name in phase_names}
    covered = sum(shares.values())
    # Phases are disjoint sub-regions of the total, so coverage can only
    # exceed 1 through clock jitter on very short spans.
    assert covered <= 1.0 + 1e-6, \
        f"phase spans cover {covered:.4f} of {total_name!r} (> 1)"
    shares["other"] = max(0.0, 1.0 - covered)
    reconciled = sum(shares.values())
    assert abs(reconciled - 1.0) <= 1e-6, \
        f"phase shares sum to {reconciled:.6f}, not 1"
    return shares
