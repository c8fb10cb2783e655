"""Analytic communication cost models, parameterised by interconnect topology.

These are the C/S parameters "exported" by the partition SAU in functional
form: point-to-point message time and the collective algorithms of the
HPF/Fortran 90D run-time library, parameterised by the benchmarked latency /
bandwidth / per-hop constants of
:class:`~repro.system.sau.CommunicationComponent` **and** by the structural
:class:`~repro.system.topology.Topology` of the target machine.

Each collective cost is computed from the *schedule* the topology exports
(recursive doubling on the hypercube and the switch, row–column trees on the
mesh): the cost of a stage is the worst uncontended point-to-point time of
its pairs, at that pair's actual hop distance.  Every collective takes the
machine's topology over the nodes that take part.

The same schedules drive the simulator's collective layer (per simulated
operation), so any systematic difference between estimate and measurement
comes from *dynamic* effects (actual sizes, contention, imbalance, jitter)
rather than from two unrelated analytic models.

Degenerate inputs are explicitly guarded: single-node collectives and
zero-byte payloads cost nothing, negative sizes and hop counts are clamped.
"""

from __future__ import annotations

import math

from .sau import CommunicationComponent
from .topology import Topology


def message_packets(comm: CommunicationComponent, nbytes: int) -> int:
    """Number of hardware packets a message of *nbytes* occupies."""
    if nbytes <= 0:
        return 1
    return -(-nbytes // comm.packetization_bytes)


def p2p_time(comm: CommunicationComponent, nbytes: int, hops: int = 1) -> float:
    """Time (µs) for one point-to-point message of *nbytes* across *hops* links."""
    nbytes = max(int(nbytes), 0)
    hops = max(int(hops), 1)
    startup = comm.latency(nbytes)
    packets = message_packets(comm, nbytes)
    return (
        startup
        + nbytes * comm.per_byte
        + (hops - 1) * comm.per_hop
        + (packets - 1) * comm.per_packet_overhead
    )


def hypercube_dim(p: int) -> int:
    if p <= 1:
        return 0
    return int(math.ceil(math.log2(p)))


def _stage_hops(topology: Topology, schedule_kind: str, p: int) -> list[int]:
    """Worst-case hop distance of each stage of a collective on *topology*.

    ``schedule_kind`` selects the broadcast tree or the pairwise-exchange
    schedule over the topology's first *p* nodes.
    """
    if p <= 1:
        return []
    schedule = (topology.broadcast_schedule(p) if schedule_kind == "broadcast"
                else topology.exchange_schedule(p))
    return [max(topology.hops(a, b) for a, b in stage) for stage in schedule if stage]


def shift_exchange_time(comm: CommunicationComponent, nbytes: int) -> float:
    """Nearest-neighbour boundary exchange (simultaneous send + receive).

    The network hardware allows the send and the matching receive to be
    largely overlapped, but the node CPU pays both protocol startups.
    """
    return p2p_time(comm, nbytes) + 0.5 * comm.latency(nbytes)


def broadcast_time(
    comm: CommunicationComponent, nbytes: int, p: int, *, topology: Topology,
) -> float:
    """Tree broadcast to *p* nodes over the topology's broadcast schedule."""
    nbytes = max(int(nbytes), 0)
    if p <= 1 or nbytes <= 0:
        return 0.0
    stage_hops = _stage_hops(topology, "broadcast", p)
    return comm.collective_call_overhead + sum(
        p2p_time(comm, nbytes, hops=h) for h in stage_hops)


def allreduce_time(
    comm: CommunicationComponent, nbytes: int, p: int, *,
    combine_time_per_stage: float = 0.5,
    topology: Topology,
) -> float:
    """Reduce-to-all (the HPF intrinsic library returns the result on every node)."""
    nbytes = max(int(nbytes), 0)
    if p <= 1 or nbytes <= 0:
        return 0.0
    stage_hops = _stage_hops(topology, "exchange", p)
    return comm.collective_call_overhead + sum(
        p2p_time(comm, nbytes, hops=h) + combine_time_per_stage for h in stage_hops)


def barrier_time(comm: CommunicationComponent, p: int, *, topology: Topology) -> float:
    """Dissemination barrier over *p* nodes."""
    if p <= 1:
        return 0.0
    return len(_stage_hops(topology, "exchange", p)) * comm.barrier_per_stage


def unstructured_gather_time(
    comm: CommunicationComponent, nbytes_per_proc: int, p: int, *,
    topology: Topology,
) -> float:
    """General gather of off-processor data (the GATHER_DATA runtime call).

    Modelled as each node exchanging one block with every other node involved
    in the communication pattern — the worst of the runtime library's
    unstructured patterns — serialised at the node interface, at the
    topology's average hop distance.
    """
    block = max(int(nbytes_per_proc), 0)
    if p <= 1 or block <= 0:
        return 0.0
    hops = int(round(max(topology.average_distance(), 1.0)))
    peers = max(p - 1, 1)
    # The runtime packs all destinations into at most log2(p) bulk messages.
    stages = hypercube_dim(p)
    per_stage_bytes = block * peers / max(stages, 1)
    return comm.collective_call_overhead + stages * p2p_time(
        comm, int(per_stage_bytes), hops=hops
    )
