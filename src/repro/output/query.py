"""Interactive-style queries against an interpretation result.

The second output form of §4.2: *"the user [can] query the system for the
metrics associated with a particular line (or a set of lines) of the
application description"*.  The same queries work against a simulation result
so estimated and measured attributions can be compared side by side.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..appmodel.aau import AAU
from ..interpreter.engine import InterpretationResult
from ..interpreter.metrics import Metrics
from ..simulator.runtime import SimulationResult


@dataclass
class LineQueryResult:
    """Metrics attributed to one source line (plus the AAUs behind them)."""

    line: int
    source_text: str
    metrics: Metrics
    aaus: list[AAU]

    def describe(self) -> str:
        names = ", ".join(f"{a.type_name}#{a.id}" for a in self.aaus) or "none"
        return (f"line {self.line}: {self.source_text.strip() or '<empty>'}\n"
                f"  {self.metrics.describe('ms')}\n  AAUs: {names}")


class QueryInterface:
    """Wraps an interpretation result with the paper's query operations."""

    def __init__(self, result: InterpretationResult,
                 simulation: SimulationResult | None = None):
        self.result = result
        self.simulation = simulation

    # -- per line -----------------------------------------------------------------

    def line(self, line: int) -> LineQueryResult:
        return LineQueryResult(
            line=line,
            source_text=self.result.compiled.source.line_text(line),
            metrics=self.result.per_line(line),
            aaus=self.result.saag.at_line(line),
        )

    def lines(self, first: int, last: int) -> list[LineQueryResult]:
        return [self.line(n) for n in range(first, last + 1)
                if self.result.per_line(n).total > 0]

    def hottest_lines(self, n: int = 5) -> list[LineQueryResult]:
        breakdown = self.result.line_breakdown()
        ranked = sorted(breakdown.items(), key=lambda kv: kv[1].total, reverse=True)
        return [self.line(line) for line, _ in ranked[:n]]

    # -- per AAU / sub-graph --------------------------------------------------------

    def aau(self, aau_id: int) -> tuple[AAU | None, Metrics]:
        node = self.result.saag.find(aau_id)
        return node, self.result.metrics_for(aau_id)

    def subgraph(self, aau_id: int) -> Metrics:
        node = self.result.saag.find(aau_id)
        if node is None:
            return Metrics()
        return self.result.subtree_metrics(node)

    def communication_operations(self) -> list[str]:
        return [entry.describe() for entry in self.result.saag.comm_table]

    def critical_variables(self) -> str:
        return self.result.saag.critical_variables.describe()

    # -- estimated vs measured comparison ----------------------------------------------

    def compare_line(self, line: int) -> dict[str, float]:
        """Estimated vs simulated totals for one line (µs)."""
        estimated = self.result.per_line(line).total
        measured = self.simulation.per_line(line).total if self.simulation else float("nan")
        return {"line": float(line), "estimated_us": estimated, "measured_us": measured}

    def bottleneck_type(self) -> str:
        """Which component dominates: computation, communication, or overhead."""
        totals = self.result.total
        best = max(
            ("computation", totals.computation),
            ("communication", totals.communication),
            ("overhead", totals.overhead),
            key=lambda kv: kv[1],
        )
        return best[0]
