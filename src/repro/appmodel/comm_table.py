"""The communication table (§4.2, abstraction parse).

*"A communication table is generated to store the specifications and status of
each communication/synchronization."*  Every communication operation detected
by Phase 1 gets an entry recording what is communicated, in which pattern and
at which AAU.  The table is machine-free and pricing never writes to it: one
SAAG serves every machine, so an operation's estimated cost lives with its
AAU's metrics in the :class:`~repro.interpreter.InterpretationResult` of each
price.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional


@dataclass
class CommTableEntry:
    """One communication/synchronisation operation known to the framework."""

    entry_id: int
    aau_id: int
    kind: str                      # shift | gather | broadcast | reduce | writeback | barrier
    array: str = ""
    axis: Optional[int] = None
    offset: int = 0
    reduce_op: Optional[str] = None
    element_size: int = 4
    elements_per_proc: float = 0.0
    bytes_per_proc: float = 0.0
    line: int = 0

    def describe(self) -> str:
        size = f"{self.bytes_per_proc:.0f} B/proc" if self.bytes_per_proc else "size tbd"
        extra = f" op={self.reduce_op}" if self.reduce_op else ""
        axis = f" axis={self.axis}" if self.axis is not None else ""
        return (f"#{self.entry_id} AAU {self.aau_id} {self.kind}({self.array}){axis}"
                f" offset={self.offset:g}{extra} [{size}]")


@dataclass
class CommunicationTable:
    """All communication operations of one program, in AAU order."""

    entries: list[CommTableEntry] = field(default_factory=list)

    def add(self, entry: CommTableEntry) -> CommTableEntry:
        self.entries.append(entry)
        return entry

    def new_entry(self, **kwargs) -> CommTableEntry:
        entry = CommTableEntry(entry_id=len(self.entries), **kwargs)
        return self.add(entry)

    def for_aau(self, aau_id: int) -> list[CommTableEntry]:
        return [e for e in self.entries if e.aau_id == aau_id]

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def describe(self) -> str:
        if not self.entries:
            return "communication table: empty"
        lines = [f"communication table: {len(self.entries)} entries"]
        lines.extend("  " + entry.describe() for entry in self.entries)
        return "\n".join(lines)
