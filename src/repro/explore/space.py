"""Declarative scenario spaces for design-space exploration.

The paper's central claim (§1, §5.2) is that application design — which
DISTRIBUTE/ALIGN directives, how many processors, which machine — can be
*tuned at the source level without ever running the program*, because the
interpretive estimates are accurate enough to rank the alternatives.  A
:class:`ScenarioSpace` is the declarative statement of one such tuning
question: the cross product of

* **applications** — suite keys or ad-hoc :class:`ProgramSpec` sources; the
  three ``laplace_*`` keys are the paper's directive alternatives,
* **problem sizes** and **system sizes** (``nprocs``),
* **machines** — names from the Systems-Module registry,
* **topology shapes** — optional (rows, cols) layouts for shaped
  interconnects (mesh, torus), the ``make_topology(..., shape=)`` axis,
* **parameter overrides** — extra compile-time parameter sets (e.g. a
  ``maxiter`` sweep).

``expand()`` materialises the product as concrete, hashable
:class:`ScenarioPoint` s and applies *validity filtering*: shapes that do not
tile the partition, shapes on unshaped interconnects, and user-supplied
``where`` predicates drop points with a recorded reason instead of failing
mid-campaign.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from ..frontend.errors import ReproError
from ..suite import get_entry
from ..suite.registry import default_grid_shape
from ..system import SHAPED_KINDS, get_machine

#: One extra compile-time parameter assignment, e.g. ``("maxiter", 40.0)``.
ParamItem = tuple[str, float]


class ScenarioError(ReproError, ValueError):
    """Raised for malformed scenario spaces or points."""


@dataclass(frozen=True)
class ProgramSpec:
    """An ad-hoc HPF program swept by a campaign without a suite entry.

    Suite applications carry their sources, paper problem sizes and
    interpretation hints in :mod:`repro.suite.registry`; a ProgramSpec is the
    minimal equivalent for workbench-local sources (e.g. the Figure 2 forall
    kernel).  The campaign content-hash covers the *source text*, so edits to
    an ad-hoc program never collide with stale store entries.
    """

    key: str
    source: str
    size_param: str = "n"
    description: str = ""

    def params_for(self, size: int) -> dict[str, float]:
        return {self.size_param: float(size)}


@dataclass(frozen=True)
class ScenarioPoint:
    """One concrete (application, size, nprocs, machine, layout) scenario."""

    app: str
    size: int
    nprocs: int
    machine: str = "ipsc860"
    topology_shape: tuple[int, int] | None = None
    grid_shape: tuple[int, ...] | None = None
    params: tuple[ParamItem, ...] = ()

    def scenario_dict(self) -> dict:
        """Canonical JSON-able form (the content-hash input and store record)."""
        return {
            "app": self.app,
            "size": int(self.size),
            "nprocs": int(self.nprocs),
            "machine": self.machine,
            "topology_shape": list(self.topology_shape) if self.topology_shape else None,
            "grid_shape": list(self.grid_shape) if self.grid_shape else None,
            "params": [[k, float(v)] for k, v in self.params],
        }

    @classmethod
    def from_scenario_dict(cls, data: dict) -> "ScenarioPoint":
        return cls(
            app=str(data["app"]),
            size=int(data["size"]),
            nprocs=int(data["nprocs"]),
            machine=str(data.get("machine", "ipsc860")),
            topology_shape=tuple(data["topology_shape"]) if data.get("topology_shape") else None,
            grid_shape=tuple(data["grid_shape"]) if data.get("grid_shape") else None,
            params=tuple((str(k), float(v)) for k, v in data.get("params", [])),
        )

    def label(self) -> str:
        bits = [self.app, f"n={self.size}", f"p={self.nprocs}", self.machine]
        if self.topology_shape:
            bits.append("x".join(str(d) for d in self.topology_shape))
        if self.params:
            bits.append(",".join(f"{k}={v:g}" for k, v in self.params))
        return " ".join(bits)


def _as_tuple(values: Iterable) -> tuple:
    if values is None:
        return ()
    if isinstance(values, (str, bytes)):
        return (values,)
    return tuple(values)


@dataclass(frozen=True)
class ScenarioSpace:
    """The cross product of the design axes, with validity filtering.

    Every axis accepts any iterable; scalars may be given for convenience
    (``sizes=64``).  ``topology_shapes`` mixes ``None`` (the machine's default
    layout) with explicit (rows, cols) pairs; explicit pairs only attach to
    machines with shaped interconnects and only at matching ``nprocs``.
    """

    apps: tuple[str, ...]
    sizes: tuple[int, ...]
    proc_counts: tuple[int, ...]
    machines: tuple[str, ...] = ("ipsc860",)
    topology_shapes: tuple[tuple[int, int] | None, ...] = (None,)
    param_sets: tuple[tuple[ParamItem, ...], ...] = ((),)
    programs: tuple[ProgramSpec, ...] = ()

    def __post_init__(self):
        shapes = _as_tuple(self.topology_shapes)
        if shapes and all(isinstance(d, int) for d in shapes):
            shapes = (shapes,)          # a single (rows, cols) pair, unwrapped
        try:
            param_sets = tuple(
                tuple((str(k), float(v)) for k, v in params)
                for params in _as_tuple(self.param_sets))
        except (TypeError, ValueError):
            raise ScenarioError(
                "param_sets must be a tuple of parameter sets, each a tuple "
                "of (name, value) pairs — e.g. (((\"maxiter\", 3.0),),) for "
                "one set with one override") from None
        coerce = {
            "apps": tuple(str(a) for a in _as_tuple(self.apps)),
            "sizes": tuple(int(s) for s in _as_tuple(
                (self.sizes,) if isinstance(self.sizes, int) else self.sizes)),
            "proc_counts": tuple(int(p) for p in _as_tuple(
                (self.proc_counts,) if isinstance(self.proc_counts, int) else self.proc_counts)),
            "machines": tuple(str(m) for m in _as_tuple(self.machines)),
            "topology_shapes": tuple(
                tuple(int(d) for d in shape) if shape is not None else None
                for shape in shapes),
            "param_sets": param_sets,
            "programs": tuple(_as_tuple(self.programs)),
        }
        for name, value in coerce.items():
            object.__setattr__(self, name, value)
        for axis in ("apps", "sizes", "proc_counts", "machines",
                     "topology_shapes", "param_sets"):
            if not getattr(self, axis):
                raise ScenarioError(f"scenario space axis {axis!r} is empty")

    # ------------------------------------------------------------------

    def axes(self) -> dict[str, tuple]:
        return {
            "apps": self.apps,
            "sizes": self.sizes,
            "proc_counts": self.proc_counts,
            "machines": self.machines,
            "topology_shapes": self.topology_shapes,
            "param_sets": self.param_sets,
        }

    def cardinality(self) -> int:
        """Number of raw grid points before validity filtering."""
        total = 1
        for values in self.axes().values():
            total *= len(values)
        return total

    def program_for(self, app: str) -> "ProgramSpec | None":
        for program in self.programs:
            if program.key == app:
                return program
        return None

    # ------------------------------------------------------------------

    def expand_with_rejects(
        self, where: Callable[[ScenarioPoint], bool] | None = None,
    ) -> tuple[list[ScenarioPoint], list[tuple[ScenarioPoint, str]]]:
        """All valid points plus the rejected ones with their reasons."""
        for app in self.apps:
            if self.program_for(app) is None:
                get_entry(app)          # unknown apps fail loudly, up front
        kinds: dict[str, str] = {}

        def kind_of(name: str) -> str:
            # lazy: only shape filtering needs it, and campaigns run through a
            # machine_resolver may use names the registry does not know
            if name not in kinds:
                kinds[name] = get_machine(name, 2).topology_kind
            return kinds[name]

        valid: list[ScenarioPoint] = []
        rejects: list[tuple[ScenarioPoint, str]] = []
        for app, size, nprocs, machine, shape, params in itertools.product(
                self.apps, self.sizes, self.proc_counts, self.machines,
                self.topology_shapes, self.param_sets):
            point = ScenarioPoint(app=app, size=size, nprocs=nprocs,
                                  machine=machine, topology_shape=shape,
                                  grid_shape=default_grid_shape(app, nprocs),
                                  params=params)
            if shape is not None:
                kind = kind_of(machine)
                if kind not in SHAPED_KINDS:
                    rejects.append((point,
                                    f"{kind} interconnect takes no (rows, cols) shape"))
                    continue
                if shape[0] * shape[1] != nprocs:
                    rejects.append((point,
                                    f"{kind} shape {shape[0]}x{shape[1]} does not "
                                    f"hold {nprocs} nodes"))
                    continue
            if where is not None and not where(point):
                rejects.append((point, "excluded by where-predicate"))
                continue
            valid.append(point)
        return valid, rejects

    def expand(self, where: Callable[[ScenarioPoint], bool] | None = None,
               ) -> list[ScenarioPoint]:
        """All valid scenario points of the space, in axis order."""
        valid, _ = self.expand_with_rejects(where)
        return valid

    # ------------------------------------------------------------------

    def neighbors(self, point: ScenarioPoint,
                  points: Sequence[ScenarioPoint] | None = None,
                  ) -> list[ScenarioPoint]:
        """Valid points differing from *point* in exactly one design axis.

        This is the move set of the greedy hill-climb strategy: one directive
        change, one machine swap, one size/nprocs step at a time.
        """
        pool = list(points) if points is not None else self.expand()
        out = []
        for other in pool:
            if other == point:
                continue
            differs = sum((
                other.app != point.app,
                other.size != point.size,
                other.nprocs != point.nprocs,
                other.machine != point.machine,
                other.topology_shape != point.topology_shape,
                other.params != point.params,
            ))
            if differs == 1:
                out.append(other)
        return out

    def rebuild_point(self, *, app: str, size: int, nprocs: int,
                      machine: str, topology_shape: tuple[int, int] | None,
                      params: tuple[ParamItem, ...]) -> ScenarioPoint:
        """A ScenarioPoint from per-axis values, with the derived fields redone.

        Axis recombination (the genetic strategy's crossover, the advisor's
        mutations) cannot splice stored points directly because ``grid_shape``
        is a *derived* field tied to (app, nprocs); this rebuilds it the same
        way :meth:`expand_with_rejects` does.  The result is **not** validity
        filtered — check membership against an expanded pool.
        """
        return ScenarioPoint(app=app, size=size, nprocs=nprocs,
                             machine=machine, topology_shape=topology_shape,
                             grid_shape=default_grid_shape(app, nprocs),
                             params=params)


def laplace_design_space(
    sizes: Sequence[int] = (64, 128, 256),
    proc_counts: Sequence[int] = (2, 4, 8),
    machines: Sequence[str] = ("ipsc860", "paragon", "cluster", "torus-cluster"),
    topology_shapes: Sequence[tuple[int, int] | None] = (None,),
) -> ScenarioSpace:
    """The paper's §5.2.1 design question as a space: which directives, which
    machine, how many processors — for the Laplace solver family."""
    return ScenarioSpace(
        apps=("laplace_block_block", "laplace_block_star", "laplace_star_block"),
        sizes=tuple(sizes),
        proc_counts=tuple(proc_counts),
        machines=tuple(machines),
        topology_shapes=tuple(topology_shapes),
    )
