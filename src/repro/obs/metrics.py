"""Named counters, gauges, and histograms with label support.

Instruments live in a :class:`MetricRegistry`, keyed by ``(kind, name,
labels)`` so ``counter("repro_simulations_total", engine="vector")`` and
``engine="loop"`` are independent series, Prometheus-style.  Histograms
use fixed log-spaced latency buckets (µs) by default so point latencies
from microsecond predicts to multi-second simulates land in useful bins.

Registries snapshot to plain picklable dicts (:meth:`MetricRegistry.collect`)
and merge snapshots back (:meth:`MetricRegistry.merge`) — the mechanism
sharded campaigns use to carry worker-process metrics home instead of
losing them when the worker exits: each shard worker ships
``delta_since(before)`` in its checkpoint and the parent merges it.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Any, Dict, List, Optional, Tuple

#: Default histogram upper bounds: log-spaced (half-decade steps) from
#: 100 µs to 100 s, expressed in µs.  ``+Inf`` is implicit.
DEFAULT_LATENCY_BUCKETS_US: Tuple[float, ...] = tuple(
    round(10.0 ** (exp / 2.0), 1) for exp in range(4, 17)
)

LabelsKey = Tuple[Tuple[str, str], ...]
InstrumentKey = Tuple[str, str, LabelsKey]


def _labels_key(labels: Dict[str, Any]) -> LabelsKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """Monotonically increasing value."""

    kind = "counter"
    __slots__ = ("name", "labels", "value", "_lock")

    def __init__(self, name: str, labels: LabelsKey):
        self.name = name
        self.labels = labels
        self.value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        with self._lock:
            self.value += amount


class Gauge:
    """Last-written value (set/inc/dec)."""

    kind = "gauge"
    __slots__ = ("name", "labels", "value", "_lock")

    def __init__(self, name: str, labels: LabelsKey):
        self.name = name
        self.labels = labels
        self.value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value -= amount


class Histogram:
    """Fixed-bucket histogram; bucket ``i`` counts values ``<= bounds[i]``
    (Prometheus ``le`` semantics), with a final implicit ``+Inf`` bucket."""

    kind = "histogram"
    __slots__ = ("name", "labels", "bounds", "counts", "sum", "count",
                 "_lock")

    def __init__(self, name: str, labels: LabelsKey,
                 buckets: Optional[Tuple[float, ...]] = None):
        self.name = name
        self.labels = labels
        bounds = tuple(sorted(buckets or DEFAULT_LATENCY_BUCKETS_US))
        if not bounds:
            raise ValueError(f"histogram {self.name!r} needs >= 1 bucket")
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)  # last slot is +Inf
        self.sum = 0.0
        self.count = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        index = bisect_left(self.bounds, value)
        with self._lock:
            self.counts[index] += 1
            self.sum += value
            self.count += 1

    def quantile(self, q: float) -> float:
        """Approximate quantile: the upper bound of the bucket holding the
        q-th observation (``+Inf`` bucket reports the largest finite bound)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        with self._lock:
            total = self.count
            counts = list(self.counts)
        if total == 0:
            return 0.0
        rank = max(1, int(q * total + 0.5))
        seen = 0
        for index, bucket_count in enumerate(counts):
            seen += bucket_count
            if seen >= rank:
                return self.bounds[min(index, len(self.bounds) - 1)]
        return self.bounds[-1]


class _NoopMetric:
    """Shared do-nothing instrument returned while obs is disabled."""

    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


NOOP_METRIC = _NoopMetric()


class MetricRegistry:
    """Thread-safe home for every instrument; snapshot/merge for pools."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: Dict[InstrumentKey, Any] = {}

    def _get(self, cls, name: str, labels: Dict[str, Any], **kwargs):
        key = (cls.kind, name, _labels_key(labels))
        with self._lock:
            found = self._instruments.get(key)
            if found is None:
                for other_kind, other_name, _ in self._instruments:
                    if other_name == name and other_kind != cls.kind:
                        raise ValueError(
                            f"metric {name!r} already registered as "
                            f"{other_kind}, cannot re-register as {cls.kind}")
                found = self._instruments[key] = cls(name, key[2], **kwargs)
            return found

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(self, name: str,
                  buckets: Optional[Tuple[float, ...]] = None,
                  **labels: Any) -> Histogram:
        return self._get(Histogram, name, labels, buckets=buckets)

    def instruments(self) -> List[Any]:
        with self._lock:
            return list(self._instruments.values())

    def reset(self) -> None:
        with self._lock:
            self._instruments.clear()

    # -- snapshot / merge (worker-process transport) -----------------------

    def collect(self) -> Dict[InstrumentKey, Dict[str, Any]]:
        """A plain picklable snapshot of every instrument's state."""
        snapshot: Dict[InstrumentKey, Dict[str, Any]] = {}
        for instrument in self.instruments():
            key = (instrument.kind, instrument.name, instrument.labels)
            if instrument.kind == "histogram":
                with instrument._lock:
                    snapshot[key] = {
                        "bounds": instrument.bounds,
                        "counts": list(instrument.counts),
                        "sum": instrument.sum,
                        "count": instrument.count,
                    }
            else:
                snapshot[key] = {"value": instrument.value}
        return snapshot

    def delta_since(self, before: Dict[InstrumentKey, Dict[str, Any]]
                    ) -> Dict[InstrumentKey, Dict[str, Any]]:
        """What changed since ``before`` (a prior :meth:`collect`).

        Counters and histograms subtract; gauges carry their latest value.
        Unchanged entries are dropped, keeping the pickled payload small.
        """
        delta: Dict[InstrumentKey, Dict[str, Any]] = {}
        for key, state in self.collect().items():
            kind = key[0]
            prior = before.get(key)
            if kind == "counter":
                value = state["value"] - (prior["value"] if prior else 0.0)
                if value != 0.0:
                    delta[key] = {"value": value}
            elif kind == "gauge":
                if prior is None or state["value"] != prior["value"]:
                    delta[key] = {"value": state["value"]}
            else:
                prior_counts = prior["counts"] if prior else [0] * len(
                    state["counts"])
                counts = [now - then for now, then
                          in zip(state["counts"], prior_counts)]
                count = state["count"] - (prior["count"] if prior else 0)
                if count:
                    delta[key] = {
                        "bounds": state["bounds"],
                        "counts": counts,
                        "sum": state["sum"] - (prior["sum"] if prior
                                               else 0.0),
                        "count": count,
                    }
        return delta

    def merge(self, snapshot: Dict[InstrumentKey, Dict[str, Any]]) -> None:
        """Fold a snapshot/delta into this registry (counters and histograms
        add; gauges take the snapshot's value)."""
        for (kind, name, labels), state in snapshot.items():
            labels_dict = dict(labels)
            if kind == "counter":
                self.counter(name, **labels_dict).inc(state["value"])
            elif kind == "gauge":
                self.gauge(name, **labels_dict).set(state["value"])
            else:
                histogram = self.histogram(
                    name, buckets=tuple(state["bounds"]), **labels_dict)
                if histogram.bounds != tuple(state["bounds"]):
                    raise ValueError(
                        f"histogram {name!r} bucket bounds differ between "
                        "registries; cannot merge")
                with histogram._lock:
                    for index, bucket_count in enumerate(state["counts"]):
                        histogram.counts[index] += bucket_count
                    histogram.sum += state["sum"]
                    histogram.count += state["count"]

    def flatten(self) -> Dict[str, float]:
        """Scalar view for manifests: ``name{k="v"}`` -> value (histograms
        contribute ``_count`` and ``_sum`` series)."""
        flat: Dict[str, float] = {}
        for instrument in self.instruments():
            label_text = ",".join(f'{k}="{v}"' for k, v in instrument.labels)
            suffix = "{%s}" % label_text if label_text else ""
            if instrument.kind == "histogram":
                flat[f"{instrument.name}_count{suffix}"] = instrument.count
                flat[f"{instrument.name}_sum{suffix}"] = instrument.sum
            else:
                flat[f"{instrument.name}{suffix}"] = instrument.value
        return flat
