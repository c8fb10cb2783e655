"""Off-line abstraction of the Intel iPSC/860 hypercube (§4.4).

The paper abstracts the target machine once, off-line, from a combination of
vendor specifications (processing and memory components), assembly instruction
counts (iterative / conditional overheads) and benchmarking runs
(communication and intrinsic library parameters).  This module encodes the
resulting parameter set for the 8-node iPSC/860 used in the evaluation, plus
the SRM (System Resource Manager) front-end host and the host↔cube channel.

The numbers are representative of published iPSC/860 measurements (≈75 µs
short-message latency, ≈2.8 MB/s sustained link bandwidth, 40 MHz i860 XR
nodes with 4 KB I-cache / 8 KB D-cache / 8 MB memory) — the *relationships*
between them (latency ≫ per-byte cost ≫ flop cost) are what drive the
experiments, not the absolute values.
"""

from __future__ import annotations

from .machine import Machine, build_machine
from .sau import (
    SAU,
    CommunicationComponent,
    IOComponent,
    MemoryComponent,
    ProcessingComponent,
)

# Node-level components -------------------------------------------------------

I860_PROCESSING = ProcessingComponent(
    clock_mhz=40.0,
    flop_time_sp=0.105,
    flop_time_dp=0.175,
    divide_time=0.90,
    int_op_time=0.045,
    branch_time=0.12,
    loop_iteration_overhead=0.18,
    loop_startup_overhead=1.6,
    conditional_overhead=0.22,
    call_overhead=1.4,
    assignment_overhead=0.05,
    peak_mflops_sp=80.0,
    peak_mflops_dp=40.0,
)

I860_MEMORY = MemoryComponent(
    icache_kbytes=4.0,
    dcache_kbytes=8.0,
    main_memory_mbytes=8.0,
    cache_line_bytes=32,
    hit_time=0.025,
    miss_penalty=0.55,
    write_through_penalty=0.10,
    memory_bandwidth_mbs=60.0,
)

CUBE_COMMUNICATION = CommunicationComponent(
    startup_latency=75.0,
    long_startup_latency=160.0,
    long_message_threshold=100,
    per_byte=0.36,
    per_hop=10.5,
    packetization_bytes=1024,
    per_packet_overhead=8.0,
    barrier_per_stage=90.0,
    collective_call_overhead=30.0,
)

NODE_IO = IOComponent(open_close_time=12000.0, per_byte=1.1, seek_time=18000.0)

#: Node-program startup charged on every run (load + initial synchronisation).
#: Used as the default by both the interpretation engine and the simulator so
#: the constant offset cancels out of the prediction-error comparison.
PROGRAM_STARTUP_US = 1800.0

# SRM host (80386 front end) ---------------------------------------------------

SRM_PROCESSING = ProcessingComponent(
    clock_mhz=25.0,
    flop_time_sp=1.9,
    flop_time_dp=3.0,
    divide_time=7.0,
    int_op_time=0.35,
    branch_time=0.5,
    loop_iteration_overhead=0.9,
    loop_startup_overhead=5.0,
    conditional_overhead=0.8,
    call_overhead=6.0,
    assignment_overhead=0.3,
    peak_mflops_sp=0.6,
    peak_mflops_dp=0.3,
)

SRM_MEMORY = MemoryComponent(
    icache_kbytes=0.0,
    dcache_kbytes=32.0,
    main_memory_mbytes=16.0,
    cache_line_bytes=16,
    hit_time=0.08,
    miss_penalty=0.9,
    memory_bandwidth_mbs=20.0,
)

HOST_CUBE_CHANNEL = CommunicationComponent(
    startup_latency=900.0,
    long_startup_latency=1500.0,
    long_message_threshold=1024,
    per_byte=1.8,               # ≈ 0.55 MB/s SRM↔cube channel
    per_hop=0.0,
    packetization_bytes=4096,
    per_packet_overhead=30.0,
    barrier_per_stage=500.0,
    collective_call_overhead=150.0,
)

SRM_HOST = SAU(
    name="host",
    level="host",
    description="System Resource Manager (80386 front end)",
    processing=SRM_PROCESSING,
    memory=SRM_MEMORY,
    communication=HOST_CUBE_CHANNEL,
    io=NODE_IO,
)


def ipsc860(num_nodes: int = 8, noise_seed: int = 0) -> Machine:
    """The standard target machine of the paper: an 8-node iPSC/860."""
    return build_machine(
        num_nodes, noise_seed, label="iPSC/860", topology_kind="hypercube",
        processing=I860_PROCESSING, memory=I860_MEMORY,
        communication=CUBE_COMMUNICATION, io=NODE_IO,
        system="iPSC/860 hypercube system ({n} nodes) with SRM host",
        fabric="cube",
        fabric_description="{n}-node i860 hypercube (Direct-Connect network)",
        node_description="i860 XR node: 40 MHz, 4 KB I-cache, 8 KB D-cache, "
                         "8 MB memory",
        host=SRM_HOST,
    )
