"""The System Abstraction Graph (SAG): a rooted tree of SAUs.

The SAG is built off-line, once per machine (§3.1, §4.4): the root abstracts
the complete HPC system; its children abstract the host (SRM), the compute
cube, and the host↔cube channel; leaves abstract individual nodes.  The
interpretation engine resolves, for every Application Abstraction Unit, which
SAU exports the parameters it should be charged against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .sau import SAU


@dataclass
class SAG:
    """A rooted tree of :class:`~repro.system.sau.SAU` objects."""

    root: SAU
    machine_name: str = "generic"

    def find(self, name: str) -> Optional[SAU]:
        return self.root.find(name)

    def node_sau(self) -> SAU:
        """The SAU describing one compute node (the unit AAUs are charged against)."""
        node = self.root.find("node")
        if node is not None:
            return node
        # fall back to the first leaf
        for sau in self.root.walk():
            if not sau.children:
                return sau
        return self.root

    def cube_sau(self) -> SAU:
        """The SAU describing the compute partition (interconnect parameters).

        Named ``cube`` on the iPSC/860; other machines name it after their
        fabric (``mesh``, ``switch``), so fall back to the first SAU at the
        ``cluster`` level.
        """
        cube = self.root.find("cube")
        if cube is not None:
            return cube
        for sau in self.root.walk():
            if sau.level == "cluster":
                return sau
        return self.root

    def host_sau(self) -> Optional[SAU]:
        return self.root.find("host")

    def num_nodes(self) -> int:
        cube = self.cube_sau()
        if cube is not None and "num_nodes" in cube.attributes:
            return int(cube.attributes["num_nodes"])
        return self.root.leaf_count()

    def walk(self):
        yield from self.root.walk()

    def describe(self) -> str:
        return f"SAG for {self.machine_name}\n" + self.root.describe(indent=1)

