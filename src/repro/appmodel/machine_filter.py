"""The machine-specific filter (§3.2, second abstraction step).

*"The second step consists of machine specific augmentation and is performed
by the machine specific filter.  This step incorporates machine specific
information (such as introduced compiler transformations/optimizations) into
the SAAG based on a mapping defined by the user."*

The paper leaves that mapping to the user.  Here it is fixed in code,
because no caller ever defined another.  Concretely the filter:

* assigns every AAU the SAU it is charged against (node code → the ``node``
  SAU; communication → the ``cube`` SAU; I/O and program load → the ``host``
  SAU, when the machine has one),
* annotates loop-nest AAUs with the machine-specific execution details the
  interpretation functions need (element size / precision of the home array,
  whether the compiler's loop-reordering produced stride-1 access), and
* records which Phase-1 optimisations were active so the interpretation parse
  can honour the user's on/off switches.
"""

from __future__ import annotations

from ..compiler.pipeline import CompiledProgram
from ..compiler.spmd import CommPhase, LocalLoopNest, ReductionNode, ShiftNode
from ..system.machine import Machine
from .aau import AAUType
from .saag import SAAG


def apply_machine_filter(saag: SAAG, compiled: CompiledProgram, machine: Machine) -> SAAG:
    """Augment *saag* in place with machine-specific information; returns it."""
    opts = compiled.options.optimizations

    for aau in saag.walk():
        node = aau.spmd_node

        # --- SAU assignment ------------------------------------------------
        if aau.type in (AAUType.COMM, AAUType.SYNC):
            aau.sau_name = "cube"
        elif aau.type is AAUType.IO and machine.host is not None:
            aau.sau_name = "host"
        else:
            aau.sau_name = "node"

        # --- machine-specific annotations -----------------------------------
        if isinstance(node, LocalLoopNest) and node.home_array:
            dist = compiled.mapping.distribution_of(node.home_array)
            if dist is not None:
                aau.detail["element_size"] = dist.element_size
                aau.detail["precision"] = _precision_of(compiled, node.home_array)
                aau.detail["local_elements_max"] = float(dist.max_local_size())
                aau.detail["local_elements_avg"] = float(dist.avg_local_size())
            aau.detail["stride1_innermost"] = bool(opts.loop_reordering)
        elif isinstance(node, ReductionNode) and node.home_array:
            dist = compiled.mapping.distribution_of(node.home_array)
            if dist is not None:
                aau.detail["element_size"] = dist.element_size
                aau.detail["precision"] = _precision_of(compiled, node.home_array)
                aau.detail["local_elements_avg"] = float(dist.avg_local_size())
        elif isinstance(node, (CommPhase, ShiftNode)):
            aau.detail["network"] = "direct-connect hypercube"

        aau.detail["machine"] = machine.name
        aau.detail["optimizations"] = {
            "merge_comm_phases": opts.merge_comm_phases,
            "loop_reordering": opts.loop_reordering,
        }

    return saag


def _precision_of(compiled: CompiledProgram, array: str) -> str:
    sym = compiled.symtable.get(array)
    if sym is None:
        return "real"
    return "double" if sym.type_name == "double" else "real"
