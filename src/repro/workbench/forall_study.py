"""Experiment E3 — Figure 2: abstraction of the forall statement.

The paper's Figure 2 shows how

    forall (K = 2:N-1, V(K) .GT. 0)  X(K+1) = X(K) + X(K-1)

is translated by Phase 1 into the three-level structure (collective
communication level, local computation level, final communication level) and
then abstracted by Phase 2 into ``Seq → Comm → IterD ( CondtD )``.  This module
compiles exactly that statement and reports both structures so the example,
test and benchmark can verify the shapes.

:func:`run_forall_scaling` extends the figure into a campaign preset: the
same kernel swept over (problem size × nprocs × machine) through the
design-space exploration subsystem, with the kernel shipped as an ad-hoc
:class:`~repro.explore.space.ProgramSpec` rather than a suite entry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from ..appmodel import AAUType
from ..compiler import CommPhase, LocalLoopNest, SeqOverhead, compile_source
from ..compiler.pipeline import CompiledProgram
from ..explore import Campaign, CampaignRun, ProgramSpec, ResultStore, ScenarioSpace
from ..interpreter import build_saag

FORALL_EXAMPLE_SOURCE = """
      program figure2
      integer, parameter :: n = 64
      real, dimension(n + 1) :: x
      real, dimension(n) :: v
!HPF$ PROCESSORS p(4)
!HPF$ TEMPLATE t(n + 1)
!HPF$ ALIGN x(i) WITH t(i)
!HPF$ ALIGN v(i) WITH t(i)
!HPF$ DISTRIBUTE t(BLOCK) ONTO p
      forall (k = 1:n) v(k) = k - n / 2
      forall (k = 1:n + 1) x(k) = 0.01 * k
      forall (k = 2:n - 1, v(k) .gt. 0.0) x(k + 1) = x(k) + x(k - 1)
      print *, x(n)
      end program figure2
"""


@dataclass
class ForallAbstraction:
    """Phase-1 and Phase-2 shapes of the Figure 2 forall."""

    compiled: CompiledProgram
    phase1_levels: list[str] = field(default_factory=list)   # SPMD node kinds, in order
    aau_types: list[str] = field(default_factory=list)       # AAU type names, in order
    shift_offsets: list[int] = field(default_factory=list)
    has_mask_condition: bool = False
    needs_final_communication: bool = False

    def describe(self) -> str:
        lines = ["Figure 2: abstraction of the forall statement",
                 "  Phase 1 (SPMD structure): " + " -> ".join(self.phase1_levels),
                 "  Phase 2 (AAU structure):  " + " -> ".join(self.aau_types),
                 f"  stencil shift offsets: {sorted(self.shift_offsets)}",
                 f"  mask abstracted as CondtD: {self.has_mask_condition}",
                 f"  final communication level required: {self.needs_final_communication}"]
        return "\n".join(lines)


def run_forall_abstraction(nprocs: int = 4, n: int = 64) -> ForallAbstraction:
    """Compile and abstract the paper's Figure 2 forall statement."""
    compiled = compile_source(FORALL_EXAMPLE_SOURCE, name="figure2", nprocs=nprocs,
                              params={"n": float(n)})
    saag = build_saag(compiled)

    # locate the masked stencil forall (the third loop nest)
    target_nest = None
    for node in compiled.spmd.walk():
        if isinstance(node, LocalLoopNest) and node.mask is not None:
            target_nest = node
            break

    result = ForallAbstraction(compiled=compiled)

    # Phase-1 structure: the nodes surrounding the masked nest, in program order
    nodes = compiled.spmd.nodes
    if target_nest is not None:
        index = nodes.index(target_nest)
        window = nodes[max(index - 3, 0):index + 2]
        for node in window:
            if isinstance(node, SeqOverhead):
                result.phase1_levels.append(f"Seq({node.kind})")
            elif isinstance(node, CommPhase):
                result.phase1_levels.append(f"Comm({node.purpose})")
                for spec in node.comms:
                    if spec.kind == "shift":
                        result.shift_offsets.append(spec.offset)
                if node.purpose == "write-back":
                    result.needs_final_communication = True
            elif isinstance(node, LocalLoopNest):
                result.phase1_levels.append("IterD(local loop)"
                                             + ("+CondtD(mask)" if node.mask is not None else ""))

    # Phase-2 structure: AAU types covering the same source line
    line = target_nest.line if target_nest is not None else 0
    for aau in saag.walk():
        if aau.line == line and aau.type in (AAUType.SEQ, AAUType.COMM, AAUType.ITER,
                                             AAUType.COND):
            result.aau_types.append(aau.type_name)
            if aau.type is AAUType.COND:
                result.has_mask_condition = True
    return result


def forall_scaling_campaign(
    ns: Sequence[int] = (32, 64, 128),
    proc_counts: Sequence[int] = (2, 4, 8),
    machines: Sequence[str] = ("ipsc860", "paragon", "torus-cluster"),
) -> Campaign:
    """The Figure 2 kernel as a (size × nprocs × machine) campaign preset."""
    return Campaign(
        name="forall-scaling:figure2",
        space=ScenarioSpace(
            apps=("figure2",),
            sizes=tuple(ns),
            proc_counts=tuple(proc_counts),
            machines=tuple(machines),
            programs=(ProgramSpec(
                key="figure2",
                source=FORALL_EXAMPLE_SOURCE,
                description="masked stencil forall of the paper's Figure 2",
            ),),
        ),
        mode="predict",
    )


def run_forall_scaling(
    ns: Sequence[int] = (32, 64, 128),
    proc_counts: Sequence[int] = (2, 4, 8),
    machines: Sequence[str] = ("ipsc860", "paragon", "torus-cluster"),
    store: ResultStore | None = None,
) -> CampaignRun:
    """Predict how the Figure 2 forall scales across sizes, procs, machines.

    Ad-hoc programs are content-hashed by source text, so edits to the kernel
    never collide with stale store entries.
    """
    return forall_scaling_campaign(ns, proc_counts, machines).run(store=store)
