"""Off-line abstraction of a Paragon-class 2-D mesh multicomputer.

The second machine target of the registry: an Intel Paragon XP/S-style
system — i860 XP compute nodes (50 MHz, 16 KB I-cache / 16 KB D-cache,
32 MB memory) on a 2-D wormhole-routed mesh with XY routing.  The parameter
set follows the same off-line methodology as the iPSC/860 abstraction
(vendor specifications + instruction counts + benchmarking-style constants)
and, as there, it is the *relationships* between the numbers that matter:

* message startup is ~2x cheaper than the iPSC/860 (NX on OSF/1 with the
  message co-processor), sustained link bandwidth ~25x higher,
* the per-hop cost of the wormhole routers is two orders of magnitude below
  the store-and-forward-style Direct-Connect hop cost,
* node flops are ~25 % faster (50 MHz XP vs 40 MHz XR) with caches twice
  the size.
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

I860XP_PROCESSING = ProcessingComponent(
    clock_mhz=50.0,
    flop_time_sp=0.084,
    flop_time_dp=0.140,
    divide_time=0.72,
    int_op_time=0.036,
    branch_time=0.096,
    loop_iteration_overhead=0.144,
    loop_startup_overhead=1.28,
    conditional_overhead=0.176,
    call_overhead=1.12,
    assignment_overhead=0.04,
    peak_mflops_sp=100.0,
    peak_mflops_dp=75.0,
)

I860XP_MEMORY = MemoryComponent(
    icache_kbytes=16.0,
    dcache_kbytes=16.0,
    main_memory_mbytes=32.0,
    cache_line_bytes=32,
    hit_time=0.020,
    miss_penalty=0.45,
    write_through_penalty=0.08,
    memory_bandwidth_mbs=90.0,
)

MESH_COMMUNICATION = CommunicationComponent(
    startup_latency=42.0,
    long_startup_latency=95.0,
    long_message_threshold=8192,   # NX-style rendezvous switch at 8 KB
    per_byte=0.014,              # ≈ 70 MB/s sustained per link
    per_hop=0.06,                # wormhole router pass-through
    packetization_bytes=4096,
    per_packet_overhead=2.5,
    barrier_per_stage=48.0,
    collective_call_overhead=22.0,
)

MESH_NODE_IO = IOComponent(open_close_time=9000.0, per_byte=0.30, seek_time=14000.0)


def paragon(num_nodes: int = 8, noise_seed: int = 0) -> Machine:
    """A Paragon-class 2-D mesh partition with *num_nodes* compute nodes."""
    return build_machine(
        num_nodes, noise_seed, label="Paragon", topology_kind="mesh",
        processing=I860XP_PROCESSING, memory=I860XP_MEMORY,
        communication=MESH_COMMUNICATION, io=MESH_NODE_IO,
        system="Paragon-class 2-D mesh system ({n} nodes)",
        fabric="mesh",
        fabric_description="{n}-node i860 XP partition (2-D wormhole mesh, "
                           "XY routing)",
        node_description="i860 XP node: 50 MHz, 16 KB I-cache, 16 KB "
                         "D-cache, 32 MB memory",
    )
