"""Execution simulator: the measurement substrate of the reproduction.

Executes compiled SPMD node programs with a per-rank timing plane (dynamic
node cost model + message-level network with link contention + seeded system
noise) and a NumPy data plane identical to the functional interpreter,
producing the "measured" times that the interpretation parse's estimates are
validated against.  The network routes over the target machine's pluggable
:class:`~repro.system.topology.Topology` — iPSC/860 hypercube, Paragon-style
2-D mesh, or switched cluster; the topologies and their routing helpers
(``HypercubeTopology``, ``ecube_route``, …) are imported from
:mod:`repro.system.topology`.

Two execution cores are provided behind ``SimulatorOptions(engine=...)``:
the ``"vector"`` engine (default) computes per-rank state in bulk and prices
each network stage with array kernels, and the ``"loop"`` engine keeps the
original per-rank python loops and the per-message network drain as the
correctness oracle.  Both run one control flow (:class:`SPMDExecutor`) and
differ only in their kernels, so they produce identical times; see
``docs/simulator.md``.
"""

from .collectives import (
    allgather,
    allgather_clocks,
    allreduce,
    allreduce_clocks,
    broadcast,
    broadcast_clocks,
    shift_exchange,
    shift_exchange_clocks,
    unstructured_gather,
    unstructured_gather_clocks,
)
from .executor import (
    ENGINES,
    CommStatistics,
    SimulatorOptions,
    SPMDExecutor,
)
from .network import (
    STAGE_DISJOINT,
    STAGE_PAIRED,
    STAGE_SERIAL,
    Message,
    Network,
    TransferResult,
    batch_order,
)
from .node import IterationProfile, NodeCostModel
from .noise import NoiseKey, NoiseModel, NoiseOptions
from .runtime import SimulationResult, simulate
from .vector import VectorSPMDExecutor

__all__ = [
    "allgather",
    "allgather_clocks",
    "allreduce",
    "allreduce_clocks",
    "broadcast",
    "broadcast_clocks",
    "shift_exchange",
    "shift_exchange_clocks",
    "unstructured_gather",
    "unstructured_gather_clocks",
    "batch_order",
    "STAGE_DISJOINT",
    "STAGE_PAIRED",
    "STAGE_SERIAL",
    "ENGINES",
    "CommStatistics",
    "SimulatorOptions",
    "SPMDExecutor",
    "VectorSPMDExecutor",
    "Message",
    "Network",
    "TransferResult",
    "IterationProfile",
    "NodeCostModel",
    "NoiseKey",
    "NoiseModel",
    "NoiseOptions",
    "SimulationResult",
    "simulate",
]
