"""Off-line abstraction of a CM-5-class fat-tree multicomputer.

The fifth machine target of the registry: a Thinking Machines CM-5-style
system — 33 MHz SPARC compute nodes with vector units, hanging off the leaves
of a 4-ary data-network fat tree whose link capacity doubles toward the root
(:class:`~repro.system.topology.FatTreeTopology`).  The parameter set follows
the same off-line methodology as the other targets (vendor specifications +
instruction counts + benchmarking-style constants); as there, the
*relationships* between the numbers define the machine class:

* data network: moderate per-link bandwidth (~10 MB/s sustained per node
  port) but *parallel* upper links, so the fat tree loses far less to
  contention than the mesh or the single crossbar as traffic scales,
* a dedicated control network for synchronisation and small combines —
  barriers are by far the cheapest of the registry (``barrier_per_stage``
  and ``collective_call_overhead`` reflect it),
* SPARC scalar nodes are slower than the i860s at straight-line flops, but
  the vector units close most of the gap on the stride-1 loop nests the
  suite compiles to, and the caches are large (64 KB) and write-back.
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

SPARC_PROCESSING = ProcessingComponent(
    clock_mhz=33.0,
    flop_time_sp=0.090,          # vector units on stride-1 work
    flop_time_dp=0.130,
    divide_time=0.75,
    int_op_time=0.040,
    branch_time=0.10,
    loop_iteration_overhead=0.16,
    loop_startup_overhead=1.4,
    conditional_overhead=0.20,
    call_overhead=1.2,
    assignment_overhead=0.045,
    peak_mflops_sp=128.0,
    peak_mflops_dp=64.0,
)

SPARC_MEMORY = MemoryComponent(
    icache_kbytes=64.0,
    dcache_kbytes=64.0,
    main_memory_mbytes=32.0,
    cache_line_bytes=32,
    hit_time=0.030,
    miss_penalty=0.50,
    write_through_penalty=0.0,   # write-back caches
    memory_bandwidth_mbs=100.0,
)

FAT_TREE_COMMUNICATION = CommunicationComponent(
    startup_latency=64.0,        # CMMD-class send/receive software path
    long_startup_latency=120.0,
    long_message_threshold=512,
    per_byte=0.10,               # ~10 MB/s sustained per node port
    per_hop=0.5,                 # pipelined fat-tree router pass-through
    packetization_bytes=1024,
    per_packet_overhead=4.0,
    barrier_per_stage=6.0,       # dedicated control network
    collective_call_overhead=12.0,
)

CM5_NODE_IO = IOComponent(open_close_time=10000.0, per_byte=0.5, seek_time=15000.0)


def cm5(num_nodes: int = 8, noise_seed: int = 0) -> Machine:
    """A CM-5-class fat-tree partition with *num_nodes* compute nodes."""
    return build_machine(
        num_nodes, noise_seed, label="CM5", topology_kind="fattree",
        processing=SPARC_PROCESSING, memory=SPARC_MEMORY,
        communication=FAT_TREE_COMMUNICATION, io=CM5_NODE_IO,
        system="CM-5-class fat-tree system ({n} nodes)",
        fabric="fattree",
        fabric_description="{n}-node SPARC partition (4-ary data-network fat "
                           "tree, doubling link capacity, control-network "
                           "barriers)",
        node_description="33 MHz SPARC node with vector units: 64 KB caches, "
                         "32 MB memory",
    )
