"""Off-line abstraction of a T3D-class 2-D torus multicomputer.

The fourth machine target of the registry: a Cray T3D-style system — fast
150 MHz RISC (Alpha-class) compute nodes on a wraparound 2-D torus with
dimension-ordered routing that takes the shorter way around each ring.  The
parameter set follows the same off-line methodology as the other targets
(vendor specifications + instruction counts + benchmarking-style constants);
as there, the *relationships* between the numbers define the machine class:

* hardware-supported messaging: startup well below the iPSC/860 and the
  switched cluster, link bandwidth the highest of the registry,
* torus wrap links halve worst-case hop distances relative to the mesh and
  double its bisection width,
* node flops the fastest of the registry (150 MHz superscalar RISC) but with
  small (8 KB) direct-mapped caches, so the memory model matters more.
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

ALPHA_PROCESSING = ProcessingComponent(
    clock_mhz=150.0,
    flop_time_sp=0.045,
    flop_time_dp=0.060,
    divide_time=0.42,
    int_op_time=0.020,
    branch_time=0.052,
    loop_iteration_overhead=0.095,
    loop_startup_overhead=0.95,
    conditional_overhead=0.115,
    call_overhead=0.85,
    assignment_overhead=0.026,
    peak_mflops_sp=150.0,
    peak_mflops_dp=150.0,
)

ALPHA_MEMORY = MemoryComponent(
    icache_kbytes=8.0,
    dcache_kbytes=8.0,
    main_memory_mbytes=64.0,
    cache_line_bytes=32,
    hit_time=0.014,
    miss_penalty=0.40,
    write_through_penalty=0.07,
    memory_bandwidth_mbs=320.0,
)

TORUS_COMMUNICATION = CommunicationComponent(
    startup_latency=26.0,
    long_startup_latency=58.0,
    long_message_threshold=4096,
    per_byte=0.008,              # ≈ 125 MB/s sustained per link
    per_hop=0.045,               # torus router pass-through
    packetization_bytes=4096,
    per_packet_overhead=2.2,
    barrier_per_stage=32.0,      # hardware barrier tree assists
    collective_call_overhead=18.0,
)

TORUS_NODE_IO = IOComponent(open_close_time=8000.0, per_byte=0.25, seek_time=12000.0)


def torus_cluster(num_nodes: int = 8, noise_seed: int = 0) -> Machine:
    """A T3D-class 2-D torus partition with *num_nodes* compute nodes."""
    return build_machine(
        num_nodes, noise_seed, label="Torus", topology_kind="torus",
        processing=ALPHA_PROCESSING, memory=ALPHA_MEMORY,
        communication=TORUS_COMMUNICATION, io=TORUS_NODE_IO,
        system="T3D-class 2-D torus system ({n} nodes)",
        fabric="torus",
        fabric_description="{n}-node RISC partition (2-D wraparound torus, "
                           "shortest-way XY routing)",
        node_description="150 MHz Alpha-class node: 8 KB I-cache, 8 KB "
                         "D-cache, 64 MB memory",
    )
