"""The Application Abstraction Graph (AAG).

AAUs are combined to abstract the control structure of the application,
forming a rooted tree.  The AAG supports the queries the output module needs:
lookup by id, lookup by source line (for per-line metrics), and sub-graph
selection (cumulative metrics for a branch of the AAG).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

from .aau import AAU, AAUType


@dataclass
class AAG:
    """A rooted tree of AAUs abstracting one program's control structure."""

    root: AAU
    program_name: str = "main"
    _line_index: dict[int, list[AAU]] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        self.rebuild_line_index()

    # -- indices -----------------------------------------------------------

    def rebuild_line_index(self) -> None:
        self._line_index = {}
        for aau in self.root.walk():
            self._line_index.setdefault(aau.line, []).append(aau)

    def at_line(self, line: int) -> list[AAU]:
        """All AAUs abstracting the given physical source line."""
        return list(self._line_index.get(line, []))

    # -- traversal -----------------------------------------------------------

    def walk(self) -> Iterator[AAU]:
        return self.root.walk()

    def find(self, aau_id: int) -> Optional[AAU]:
        return self.root.find(aau_id)

    def by_type(self, aau_type: AAUType) -> list[AAU]:
        return self.root.by_type(aau_type)

    def count(self) -> int:
        return self.root.count()

    def describe(self) -> str:
        return f"AAG for program '{self.program_name}' ({self.count()} AAUs)\n" + \
            self.root.describe(indent=1)
