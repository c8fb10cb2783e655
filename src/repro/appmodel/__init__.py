"""Application Module: AAU / AAG / SAAG abstraction of an HPF program.

Defines what the abstraction parse of Phase 2 builds: the SPMD node program
is characterized into Application Abstraction Units (per programming
construct or communication operation, each with its machine-free
parameters), combined into the Application Abstraction Graph, augmented with
communication/synchronisation edges (SAAG), the communication table and the
critical-variable report.  The walk that builds them is
:func:`repro.interpreter.build_saag`: each AAU's parameters come from the
interpretation functions' planners, which need the operation counter.  The
paper's machine-specific filter (§3.2) is no separate pass: the
interpretation functions read each AAU's machine parameters from the SAU it
is charged against, and its element size, precision and access stride from
the compiled program, so nothing here depends on the target machine.
"""

from .aag import AAG
from .aau import AAU, AAUType
from .comm_table import CommTableEntry, CommunicationTable
from .critical_vars import (
    CriticalVariable,
    CriticalVariableReport,
    identify_critical_variables,
    resolve_critical_variables,
)
from .saag import SAAG, SyncEdge

__all__ = [
    "AAG",
    "AAU",
    "AAUType",
    "CommTableEntry",
    "CommunicationTable",
    "CriticalVariable",
    "CriticalVariableReport",
    "identify_critical_variables",
    "resolve_critical_variables",
    "SAAG",
    "SyncEdge",
]
