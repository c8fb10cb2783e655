"""Systems Module: hierarchical machine characterisation (SAG / SAU).

The machine is abstracted off-line into a System Abstraction Graph whose nodes
(System Abstraction Units) export Processing, Memory, Communication/
Synchronisation and I/O parameters, plus a structural interconnect
:class:`~repro.system.topology.Topology`.  Six machine targets ship in the
registry — the paper's iPSC/860 hypercube (:func:`ipsc860`), a Paragon-class
2-D mesh (:func:`paragon`), a switched workstation cluster (:func:`cluster`),
a T3D-class 2-D torus (:func:`torus_cluster`), a CM-5-class fat tree
(:func:`cm5`) and a modern commodity cluster (:func:`modern_cluster`, the
post-CM5 target for p ≥ 64 studies).  Each is one :func:`build_machine`
call over its parameter set, and :func:`get_machine` builds any of them by
name.
"""

from .cluster import SWITCH_COMMUNICATION, cluster
from .cm5 import FAT_TREE_COMMUNICATION, cm5
from .modern_cluster import MODERN_COMMUNICATION, modern_cluster
from .comm_models import (
    allreduce_time,
    barrier_time,
    broadcast_time,
    hypercube_dim,
    message_packets,
    p2p_time,
    shift_exchange_time,
    unstructured_gather_time,
)
from .host import ExperimentationCostModel, InterpretationWorkflow, MeasurementWorkflow
from .ipsc860 import CUBE_COMMUNICATION, I860_MEMORY, I860_PROCESSING, ipsc860
from .machine import Machine, build_machine
from .paragon import MESH_COMMUNICATION, paragon
from .registry import (
    MachineSpec,
    canonical_machine_name,
    get_machine,
    machine_names,
    machine_specs,
    register_machine,
    resolve_machine,
)
from .sag import SAG
from .sau import (
    SAU,
    CommunicationComponent,
    IOComponent,
    MemoryComponent,
    ProcessingComponent,
)
from .topology import (
    SHAPED_KINDS,
    FatTreeTopology,
    HypercubeTopology,
    MeshTopology,
    SwitchedTopology,
    Topology,
    TopologyError,
    TorusTopology,
    make_topology,
    near_square_shape,
    ring_distance,
)
from .torus_cluster import TORUS_COMMUNICATION, torus_cluster

__all__ = [
    "allreduce_time",
    "barrier_time",
    "broadcast_time",
    "hypercube_dim",
    "message_packets",
    "p2p_time",
    "shift_exchange_time",
    "unstructured_gather_time",
    "ExperimentationCostModel",
    "InterpretationWorkflow",
    "MeasurementWorkflow",
    "CUBE_COMMUNICATION",
    "MESH_COMMUNICATION",
    "SWITCH_COMMUNICATION",
    "TORUS_COMMUNICATION",
    "FAT_TREE_COMMUNICATION",
    "I860_MEMORY",
    "I860_PROCESSING",
    "Machine",
    "build_machine",
    "modern_cluster",
    "MODERN_COMMUNICATION",
    "ipsc860",
    "paragon",
    "cluster",
    "torus_cluster",
    "cm5",
    "MachineSpec",
    "canonical_machine_name",
    "get_machine",
    "machine_names",
    "machine_specs",
    "register_machine",
    "resolve_machine",
    "SAG",
    "SAU",
    "CommunicationComponent",
    "IOComponent",
    "MemoryComponent",
    "ProcessingComponent",
    "FatTreeTopology",
    "HypercubeTopology",
    "MeshTopology",
    "SwitchedTopology",
    "TorusTopology",
    "Topology",
    "TopologyError",
    "SHAPED_KINDS",
    "make_topology",
    "near_square_shape",
    "ring_distance",
]
