"""The Synchronized Application Abstraction Graph (SAAG).

§3.2: *"The communication/synchronization structure of the application is
superimposed onto the AAG by augmenting the graph with a set of edges
corresponding to the communications or synchronization between AAU's.  The
resulting structure is the Synchronized Application Abstraction Graph."*

An edge connects the AAU that produces/holds data with the communication AAU
that moves it (or connects two communication AAUs that must be ordered).  The
SAAG also owns the communication table and the critical-variable report that
the abstraction parse produces alongside it, and records what it was built
from: the compiled program and the user-specified critical variables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from .aag import AAG
from .aau import AAU
from .comm_table import CommunicationTable
from .critical_vars import CriticalVariableReport


@dataclass(frozen=True)
class SyncEdge:
    """A communication/synchronisation dependence between two AAUs."""

    source_id: int
    target_id: int
    kind: str = "comm"            # 'comm' | 'sync' | 'reduce'
    array: str = ""
    comm_entry: Optional[int] = None   # index into the communication table

    def describe(self) -> str:
        what = f" [{self.array}]" if self.array else ""
        return f"AAU {self.source_id} --{self.kind}{what}--> AAU {self.target_id}"


@dataclass
class SAAG:
    """AAG plus communication edges, communication table and critical variables."""

    aag: AAG
    edges: list[SyncEdge] = field(default_factory=list)
    comm_table: CommunicationTable = field(default_factory=CommunicationTable)
    critical_variables: CriticalVariableReport = field(default_factory=CriticalVariableReport)
    compiled: Any = None                  # the CompiledProgram it abstracts
    overrides: dict[str, float] = field(default_factory=dict)

    # -- delegation to the AAG -------------------------------------------------

    @property
    def root(self) -> AAU:
        return self.aag.root

    def walk(self):
        return self.aag.walk()

    def find(self, aau_id: int) -> Optional[AAU]:
        return self.aag.find(aau_id)

    def at_line(self, line: int) -> list[AAU]:
        return self.aag.at_line(line)

    def by_type(self, aau_type) -> list[AAU]:
        return self.aag.by_type(aau_type)

    def describe(self) -> str:
        lines = [self.aag.describe()]
        lines.append(f"synchronisation edges ({len(self.edges)}):")
        lines.extend("  " + e.describe() for e in self.edges)
        lines.append(self.comm_table.describe())
        lines.append(self.critical_variables.describe())
        return "\n".join(lines)
