"""Application Abstraction Units (AAUs).

§3.2: *"Machine independent application abstraction is performed by
recursively characterizing the application description into Application
Abstraction Units (AAU's).  Each AAU represents a standard programming
construct (such as iterative, conditional, sequential) or a communication/
synchronization operation, and parameterizes its behavior."*

Each AAU carries:

* its type (sequential, iterative, conditional, communication, reduction, ...),
* the source line it abstracts (for the per-line output queries),
* a reference to the SPMD node it was built from,
* its machine-free parameters (``params``), filled by the abstraction parse
  (:func:`repro.interpreter.build_saag`): a leaf's interpretation function
  and the data it prices, a serial DO loop's trip count, a conditional's
  statically resolved branch; and
* its children (the AAG is a rooted tree).

Nothing in an AAU depends on the target machine.  Each interpretation
function charges its AAU type against the SAU it needs: node code against
the ``node`` SAU, communication against the ``cube`` SAU.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum, auto
from typing import Any, Iterator, Optional


class AAUType(Enum):
    SEQ = auto()        # sequential construct / replicated scalar code
    ITER = auto()       # iterative construct (IterD / IterND)
    COND = auto()       # conditional construct (CondtD)
    COMM = auto()       # communication operation
    SYNC = auto()       # synchronisation operation (barrier)
    REDUCE = auto()     # global reduction (local part; the combine is a COMM child)
    CALL = auto()       # procedure call
    IO = auto()         # input/output operation

    def short(self) -> str:
        return {
            AAUType.SEQ: "Seq",
            AAUType.ITER: "IterD",
            AAUType.COND: "CondtD",
            AAUType.COMM: "Comm",
            AAUType.SYNC: "Sync",
            AAUType.REDUCE: "Reduce",
            AAUType.CALL: "Call",
            AAUType.IO: "IO",
        }[self]


@dataclass
class AAU:
    """One Application Abstraction Unit."""

    id: int
    type: AAUType
    name: str
    line: int = 0
    children: list["AAU"] = field(default_factory=list)
    spmd_node: Any = None                 # the SPMD node this AAU abstracts (if any)
    params: Any = None                    # its machine-free parameters (if any)
    deterministic: bool = True            # IterD/CondtD vs IterND/CondtND

    def add(self, child: "AAU") -> "AAU":
        self.children.append(child)
        return child

    def walk(self) -> Iterator["AAU"]:
        """Pre-order traversal of this AAU and all descendants."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, aau_id: int) -> Optional["AAU"]:
        for aau in self.walk():
            if aau.id == aau_id:
                return aau
        return None

    def count(self) -> int:
        return sum(1 for _ in self.walk())

    def by_type(self, aau_type: AAUType) -> list["AAU"]:
        return [aau for aau in self.walk() if aau.type is aau_type]

    @property
    def type_name(self) -> str:
        return self.type.short()

    def describe(self, indent: int = 0) -> str:
        pad = "  " * indent
        det = "" if self.deterministic else " (non-deterministic)"
        lines = [f"{pad}[{self.id}] {self.type_name}{det} {self.name} (line {self.line})"]
        for child in self.children:
            lines.append(child.describe(indent + 1))
        return "\n".join(lines)
