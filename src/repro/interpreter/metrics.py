"""Performance metrics maintained by the interpretation parse.

§4.2: *"Performance metrics maintained at each AAU are its computation,
communication and overheads times, and the value of the global clock.  In
addition, cumulative metrics are also maintained for the entire SAAG."*

All times are in microseconds.  ``Metrics`` supports addition and scaling so
the interpretation algorithm can combine children and multiply by loop trip
counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class Metrics:
    """Computation / communication / overhead breakdown (µs).

    ``computation`` is the *critical-path* (slowest-rank) computation time the
    loosely-synchronous model charges; ``balanced_computation`` is the
    mean-rank computation time the same work would cost if it were spread
    perfectly evenly.  The ratio of the two (:attr:`imbalance`) is the static
    load-imbalance estimate the performance advisor diagnoses from — the
    interpretation-parse analogue of the simulator's
    ``SimulationResult.load_imbalance``.  A value of ``0.0`` means "not
    tracked" and is read as perfectly balanced; the field is excluded from
    equality so existing golden comparisons are unaffected.
    """

    computation: float = 0.0
    communication: float = 0.0
    overhead: float = 0.0
    balanced_computation: float = field(default=0.0, compare=False)

    @property
    def total(self) -> float:
        return self.computation + self.communication + self.overhead

    @property
    def balanced(self) -> float:
        """Mean-rank computation time (falls back to the critical path)."""
        return self.balanced_computation if self.balanced_computation > 0.0 \
            else self.computation

    @property
    def imbalance(self) -> float:
        """Critical-path / mean-rank computation (1.0 = perfectly balanced)."""
        balanced = self.balanced
        return self.computation / balanced if balanced > 0.0 else 1.0

    def __add__(self, other: "Metrics") -> "Metrics":
        return Metrics(
            computation=self.computation + other.computation,
            communication=self.communication + other.communication,
            overhead=self.overhead + other.overhead,
            balanced_computation=self.balanced + other.balanced,
        )

    def __iadd__(self, other: "Metrics") -> "Metrics":
        self.balanced_computation = self.balanced + other.balanced
        self.computation += other.computation
        self.communication += other.communication
        self.overhead += other.overhead
        return self

    def scaled(self, factor: float) -> "Metrics":
        return Metrics(
            computation=self.computation * factor,
            communication=self.communication * factor,
            overhead=self.overhead * factor,
            balanced_computation=self.balanced_computation * factor,
        )

    def copy(self) -> "Metrics":
        return Metrics(self.computation, self.communication, self.overhead,
                       balanced_computation=self.balanced_computation)

    def describe(self, unit: str = "us") -> str:
        scale = {"us": 1.0, "ms": 1e-3, "s": 1e-6}[unit]
        return (
            f"comp {self.computation * scale:.3f}{unit}, "
            f"comm {self.communication * scale:.3f}{unit}, "
            f"ovhd {self.overhead * scale:.3f}{unit}, "
            f"total {self.total * scale:.3f}{unit}"
        )


@dataclass
class AAUMetrics:
    """Metrics associated with one AAU during interpretation."""

    aau_id: int
    per_execution: Metrics = field(default_factory=Metrics)
    executions: float = 0.0
    clock_at_entry: float = 0.0   # value of the global clock when first interpreted

    @property
    def total(self) -> Metrics:
        return self.per_execution.scaled(self.executions)


@dataclass
class MetricsTable:
    """Per-AAU metrics plus SAAG-level cumulative metrics."""

    per_aau: dict[int, AAUMetrics] = field(default_factory=dict)
    cumulative: Metrics = field(default_factory=Metrics)
    global_clock: float = 0.0

    def record(self, aau_id: int, per_execution: Metrics, executions: float,
               clock_at_entry: float = 0.0) -> AAUMetrics:
        entry = self.per_aau.get(aau_id)
        if entry is None:
            entry = AAUMetrics(aau_id=aau_id, per_execution=per_execution.copy(),
                               executions=executions, clock_at_entry=clock_at_entry)
            self.per_aau[aau_id] = entry
        else:
            # The same AAU interpreted again (e.g. on another loop level): merge.
            total_prev = entry.per_execution.scaled(entry.executions)
            total_new = per_execution.scaled(executions)
            entry.executions += executions
            if entry.executions > 0:
                merged = total_prev + total_new
                entry.per_execution = merged.scaled(1.0 / entry.executions)
        return entry

    def get(self, aau_id: int) -> AAUMetrics | None:
        return self.per_aau.get(aau_id)

    def total_for(self, aau_id: int) -> Metrics:
        entry = self.per_aau.get(aau_id)
        return entry.total if entry is not None else Metrics()

    def subtree_total(self, aau) -> Metrics:
        """Cumulative metrics for a branch of the AAG (sub-AAG query of §3.4)."""
        result = Metrics()
        for node in aau.walk():
            result += self.total_for(node.id)
        return result
