"""Named registry of target-machine abstractions.

The paper's framework treats the Systems Module as the only machine-specific
part; everything downstream retargets by swapping the SAG/SAU parameter set
and the interconnect topology.  This registry makes that swap a one-word
change: ``get_machine("paragon", 8)`` anywhere a :class:`Machine` is
expected, and ``repro.predict(..., machine="paragon")`` /
``repro.measure(..., machine="cluster")`` for whole-study sweeps.

Built-in machines:

* ``ipsc860`` — 8-node-class Intel iPSC/860 binary hypercube (the paper's
  evaluation target); aliases ``ipsc``, ``hypercube``.
* ``paragon`` — Paragon-class i860 XP nodes on a 2-D wormhole mesh;
  alias ``mesh``.
* ``cluster`` — switched workstation cluster behind a central crossbar;
  aliases ``delta``, ``switch``.
* ``torus-cluster`` — T3D-class nodes on a 2-D wraparound torus;
  aliases ``torus``, ``t3d``.
* ``cm5`` — CM-5-class SPARC nodes on a 4-ary data-network fat tree;
  aliases ``cm-5``, ``fattree``, ``fat-tree``.
* ``modern-cluster`` — GHz-class commodity nodes behind a non-blocking
  switched fabric (the post-CM5 target for p ≥ 64 studies); aliases
  ``modern``, ``commodity``, ``beowulf``.

User code can add its own with :func:`register_machine`.  Machines on shaped
interconnects (mesh, torus) additionally accept a ``topology_shape=(rows,
cols)`` override, the registry-level face of ``make_topology(..., shape=)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .cluster import cluster
from .cm5 import cm5
from .ipsc860 import ipsc860
from .machine import Machine
from .modern_cluster import modern_cluster
from .paragon import paragon
from .topology import SHAPED_KINDS, TopologyError
from .torus_cluster import torus_cluster

MachineFactory = Callable[..., Machine]


@dataclass(frozen=True)
class MachineSpec:
    """One registered machine target."""

    name: str
    factory: MachineFactory
    description: str = ""
    aliases: tuple[str, ...] = ()


#: canonical name -> spec
_MACHINES: dict[str, MachineSpec] = {}
#: lookup key (see :func:`_lookup_key`) of every name and alias -> canonical name
_ALIASES: dict[str, str] = {}

_PUNCTUATION = str.maketrans("", "", "-/_ ")


def _lookup_key(name: str) -> str:
    """*name* lower-cased, without ``-``, ``/``, ``_`` or spaces."""
    return name.lower().translate(_PUNCTUATION)


def register_machine(
    name: str,
    factory: MachineFactory,
    *,
    description: str = "",
    aliases: tuple[str, ...] = (),
) -> None:
    """Register *factory* (``(num_nodes, noise_seed) -> Machine``) under *name*."""
    key = name.lower()
    spec = MachineSpec(name=key, factory=factory,
                       description=description, aliases=tuple(a.lower() for a in aliases))
    _MACHINES[key] = spec
    for alias in (key, *spec.aliases):
        _ALIASES[_lookup_key(alias)] = key


def machine_names() -> list[str]:
    """Canonical names of every registered machine, sorted."""
    return sorted(_MACHINES)


def machine_specs() -> list[MachineSpec]:
    return [_MACHINES[name] for name in machine_names()]


def canonical_machine_name(name: str) -> str:
    """The canonical registry key for *name* (case/punctuation-insensitive,
    aliases resolved); raises :class:`KeyError` for unknown machines."""
    key = _ALIASES.get(_lookup_key(name))
    if key is None:
        raise KeyError(
            f"unknown machine {name!r}; registered: {machine_names()}")
    return key


def get_machine(name: str, nprocs: int = 8, noise_seed: int = 0,
                topology_shape: tuple[int, int] | None = None) -> Machine:
    """Build the registered machine *name* with an *nprocs*-node partition.

    ``topology_shape`` pins the (rows, cols) layout of a shaped interconnect
    (mesh, torus) instead of the near-square default; a shape that does not
    tile *nprocs* nodes, or a shape on an unshaped interconnect, raises
    :class:`~repro.system.topology.TopologyError`.
    """
    key = canonical_machine_name(name)
    machine = _MACHINES[key].factory(nprocs, noise_seed)
    if topology_shape is not None:
        rows, cols = topology_shape
        if machine.topology_kind not in SHAPED_KINDS:
            raise TopologyError(
                f"machine {key!r} has a {machine.topology_kind} interconnect, "
                f"which does not take a (rows, cols) shape")
        if rows * cols != nprocs:
            raise TopologyError(
                f"{machine.topology_kind} shape {rows}x{cols} does not hold "
                f"{nprocs} nodes ({rows}*{cols} = {rows * cols})")
        machine.topology_shape = (rows, cols)
    return machine


def resolve_machine(machine: "Machine | str | None", nprocs: int,
                    noise_seed: int = 0) -> Machine:
    """Accept a Machine instance, a registered name, or None (iPSC/860 default)."""
    if machine is None:
        return get_machine("ipsc860", nprocs, noise_seed)
    if isinstance(machine, str):
        return get_machine(machine, nprocs, noise_seed)
    return machine


# -- built-in machines --------------------------------------------------------

register_machine(
    "ipsc860", ipsc860,
    description="Intel iPSC/860 binary hypercube (Direct-Connect, e-cube routing)",
    aliases=("ipsc", "ipsc/860", "hypercube"),
)
register_machine(
    "paragon", paragon,
    description="Paragon-class i860 XP nodes on a 2-D wormhole mesh (XY routing)",
    aliases=("mesh",),
)
register_machine(
    "cluster", cluster,
    description="switched workstation cluster behind a central crossbar",
    aliases=("delta", "switch"),
)
register_machine(
    "torus-cluster", torus_cluster,
    description="T3D-class nodes on a 2-D wraparound torus (shortest-way XY routing)",
    aliases=("torus", "t3d"),
)
register_machine(
    "cm5", cm5,
    description="CM-5-class SPARC nodes on a 4-ary data-network fat tree "
                "(doubling link capacity, control-network barriers)",
    aliases=("cm-5", "fattree", "fat-tree"),
)
register_machine(
    "modern-cluster", modern_cluster,
    description="GHz-class commodity nodes behind a non-blocking switched "
                "fabric (kernel-bypass messaging, offloaded collectives)",
    aliases=("modern", "commodity", "beowulf"),
)
