"""Application Module: AAU / AAG / SAAG abstraction of an HPF program.

Implements the abstraction parse of Phase 2: the SPMD node program is
characterized into Application Abstraction Units (per programming construct or
communication operation), combined into the Application Abstraction Graph,
augmented with communication/synchronisation edges (SAAG), the communication
table and the critical-variable report, then machine-specifically filtered.
"""

from .aag import AAG
from .aau import AAU, AAUType
from .builder import AAGBuilder, build_aag, build_saag
from .comm_table import CommTableEntry, CommunicationTable
from .critical_vars import (
    CriticalVariable,
    CriticalVariableReport,
    identify_critical_variables,
    resolve_critical_variables,
)
from .machine_filter import apply_machine_filter
from .saag import SAAG, SyncEdge

__all__ = [
    "AAG",
    "AAU",
    "AAUType",
    "AAGBuilder",
    "build_aag",
    "build_saag",
    "CommTableEntry",
    "CommunicationTable",
    "CriticalVariable",
    "CriticalVariableReport",
    "identify_critical_variables",
    "resolve_critical_variables",
    "apply_machine_filter",
    "SAAG",
    "SyncEdge",
]
