"""Exporters: Chrome-trace JSON, Prometheus text exposition, JSONL span log.

Three read-only views over a :class:`~repro.obs.spans.Tracer` and a
:class:`~repro.obs.metrics.MetricRegistry`:

* :func:`chrome_trace` — the Trace Event Format dict that
  ``chrome://tracing`` (and Perfetto's legacy loader) opens directly:
  complete events (``ph: "X"``) with µs timestamps, one track per thread.
* :func:`prometheus_text` — the text exposition format (``# TYPE`` lines,
  ``name{label="v"} value`` samples, cumulative ``_bucket{le=...}`` series
  for histograms) so a future serve layer can expose ``/metrics`` verbatim.
* :func:`spans_jsonl` — one JSON object per finished span, for ad-hoc
  ``jq``/pandas analysis without a trace viewer.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List

from .metrics import MetricRegistry
from .spans import SpanRecord


# -- Chrome trace ----------------------------------------------------------

def chrome_trace(spans: List[SpanRecord],
                 process_name: str = "repro") -> Dict[str, Any]:
    """Trace Event Format dict for ``chrome://tracing`` / Perfetto."""
    pid = os.getpid()
    events: List[Dict[str, Any]] = [{
        "name": "process_name",
        "ph": "M",
        "pid": pid,
        "tid": 0,
        "args": {"name": process_name},
    }]
    for span in spans:
        event: Dict[str, Any] = {
            "name": span.name,
            "cat": "repro",
            "ph": "X",
            "ts": span.start_us,
            "dur": span.dur_us,
            "pid": pid,
            "tid": span.tid,
        }
        if span.attrs:
            event["args"] = {key: _jsonable(value)
                             for key, value in span.attrs.items()}
        events.append(event)
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(path: str, spans: List[SpanRecord],
                       process_name: str = "repro") -> str:
    with open(path, "w") as fh:
        json.dump(chrome_trace(spans, process_name=process_name), fh)
        fh.write("\n")
    return path


def _jsonable(value: Any) -> Any:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


# -- Prometheus text exposition --------------------------------------------

def prometheus_text(registry: MetricRegistry) -> str:
    """Prometheus text format (one ``# TYPE`` per metric family)."""
    by_family: Dict[str, List[Any]] = {}
    for instrument in registry.instruments():
        by_family.setdefault(instrument.name, []).append(instrument)

    lines: List[str] = []
    for name in sorted(by_family):
        family = by_family[name]
        lines.append(f"# TYPE {name} {family[0].kind}")
        for instrument in sorted(family, key=lambda i: i.labels):
            if instrument.kind == "histogram":
                lines.extend(_histogram_lines(instrument))
            else:
                lines.append(
                    f"{name}{_label_text(instrument.labels)} "
                    f"{_format_value(instrument.value)}")
    return "\n".join(lines) + ("\n" if lines else "")


def _histogram_lines(histogram: Any) -> List[str]:
    lines: List[str] = []
    cumulative = 0
    for bound, bucket_count in zip(histogram.bounds, histogram.counts):
        cumulative += bucket_count
        labels = _label_text(histogram.labels, extra=("le",
                                                      _format_value(bound)))
        lines.append(f"{histogram.name}_bucket{labels} {cumulative}")
    labels = _label_text(histogram.labels, extra=("le", "+Inf"))
    lines.append(f"{histogram.name}_bucket{labels} {histogram.count}")
    base = _label_text(histogram.labels)
    lines.append(f"{histogram.name}_sum{base} "
                 f"{_format_value(histogram.sum)}")
    lines.append(f"{histogram.name}_count{base} {histogram.count}")
    return lines


def _label_text(labels, extra=None) -> str:
    pairs = list(labels)
    if extra is not None:
        pairs.append(extra)
    if not pairs:
        return ""
    body = ",".join(f'{key}="{value}"' for key, value in pairs)
    return "{%s}" % body


def _format_value(value: float) -> str:
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


# -- JSONL span log --------------------------------------------------------

def spans_jsonl(spans: List[SpanRecord]) -> str:
    """One JSON object per span (µs timestamps relative to tracer epoch)."""
    lines = []
    for span in spans:
        record: Dict[str, Any] = {
            "name": span.name,
            "start_us": round(span.start_us, 3),
            "dur_us": round(span.dur_us, 3),
            "tid": span.tid,
            "depth": span.depth,
        }
        if span.attrs:
            record["attrs"] = {key: _jsonable(value)
                               for key, value in span.attrs.items()}
        lines.append(json.dumps(record, sort_keys=True))
    return "\n".join(lines) + ("\n" if lines else "")


def write_span_log(path: str, spans: List[SpanRecord]) -> str:
    with open(path, "w") as fh:
        fh.write(spans_jsonl(spans))
    return path


__all__ = [
    "chrome_trace",
    "write_chrome_trace",
    "prometheus_text",
    "spans_jsonl",
    "write_span_log",
]
