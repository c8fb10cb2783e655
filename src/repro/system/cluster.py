"""Off-line abstraction of a switched workstation-cluster target.

The third machine target of the registry: a Delta/SP-class cluster — fast
RISC workstations (62.5 MHz, large caches, generous memory) connected by a
central crossbar switch.  Every node pair is a constant two hops apart (node
→ switch → node) and disjoint pairs never contend inside the fabric, but the
message-passing software stack is heavy: startup latency dominates all but
bulk transfers, which is the defining trade-off of this machine class:

* node flops ~2x faster than the iPSC/860's i860 XR, caches 4-8x larger,
* message startup ~3x *more* expensive (protocol stack + switch setup),
* sustained bandwidth ~3x higher than the cube link, far below the mesh.
"""

from __future__ import annotations

from .machine import Machine, build_machine
from .sau import (
    CommunicationComponent,
    IOComponent,
    MemoryComponent,
    ProcessingComponent,
)

# Node-level components -------------------------------------------------------

RISC_PROCESSING = ProcessingComponent(
    clock_mhz=62.5,
    flop_time_sp=0.055,
    flop_time_dp=0.070,
    divide_time=0.60,
    int_op_time=0.030,
    branch_time=0.080,
    loop_iteration_overhead=0.120,
    loop_startup_overhead=1.10,
    conditional_overhead=0.150,
    call_overhead=1.00,
    assignment_overhead=0.035,
    peak_mflops_sp=125.0,
    peak_mflops_dp=125.0,
)

RISC_MEMORY = MemoryComponent(
    icache_kbytes=32.0,
    dcache_kbytes=64.0,
    main_memory_mbytes=128.0,
    cache_line_bytes=64,
    hit_time=0.018,
    miss_penalty=0.35,
    write_through_penalty=0.06,
    memory_bandwidth_mbs=150.0,
)

SWITCH_COMMUNICATION = CommunicationComponent(
    startup_latency=240.0,
    long_startup_latency=330.0,
    long_message_threshold=4096,
    per_byte=0.115,              # ≈ 8.7 MB/s through the adapter
    per_hop=4.0,                 # one switch traversal
    packetization_bytes=4096,
    per_packet_overhead=18.0,
    barrier_per_stage=270.0,
    collective_call_overhead=120.0,
)

CLUSTER_NODE_IO = IOComponent(open_close_time=6000.0, per_byte=0.20, seek_time=9000.0)


def cluster(num_nodes: int = 8, noise_seed: int = 0) -> Machine:
    """A switched workstation cluster with *num_nodes* nodes."""
    return build_machine(
        num_nodes, noise_seed, label="Cluster", topology_kind="switch",
        processing=RISC_PROCESSING, memory=RISC_MEMORY,
        communication=SWITCH_COMMUNICATION, io=CLUSTER_NODE_IO,
        system="switched workstation cluster ({n} nodes)",
        fabric="switch",
        fabric_description="{n}-port central crossbar (constant 2-hop routes)",
        node_description="62.5 MHz RISC workstation: 32 KB I-cache, 64 KB "
                         "D-cache, 128 MB",
    )
